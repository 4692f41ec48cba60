// Tests for the disk-backed tiered user feature store: Bloom filter
// contract (no false negatives, pinned false-positive rate, sizing knob),
// builder/reader round-trip bit-exactness, lookup outcome taxonomy, and
// the corruption matrix — truncation, flipped bytes, stale index entries —
// which must always surface as Status errors, never UB.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/obs.h"
#include "common/rng.h"
#include "common/sparse_vec.h"
#include "store/bloom.h"
#include "store/feature_store.h"

namespace retina::store {
namespace {

/// The store's counts live only in the process-wide registry, which counts
/// in every build: exact pins read the growth of counter `name` since
/// `before`.
uint64_t CounterSince(const obs::RegistrySnapshot& before,
                      const std::string& name) {
  const obs::RegistrySnapshot delta = obs::Registry::SnapshotDelta(
      before, obs::Registry::Global().TakeSnapshot());
  const auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : it->second;
}

// ---------------------------------------------------------------- Bloom --

std::vector<uint64_t> SequentialKeys(uint64_t start, size_t n,
                                     uint64_t stride = 1) {
  std::vector<uint64_t> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back(start + i * stride);
  return keys;
}

TEST(BloomFilterTest, NeverFalseNegative) {
  const auto keys = SequentialKeys(17, 5000, 3);
  const BloomFilter bloom = BloomFilter::Build(keys);
  for (const uint64_t k : keys) {
    EXPECT_TRUE(bloom.MayContain(k)) << "false negative for key " << k;
  }
}

TEST(BloomFilterTest, FalsePositiveRatePinnedAtTenBitsPerKey) {
  // Theory: fp ~ 0.6185^10 ~ 0.8% at 10 bits/key. Pin an order-of-magnitude
  // ceiling so a broken hash or bit-set path (fp -> ~100%) can't hide, with
  // enough slack that hash-seed luck never flakes the suite.
  const auto keys = SequentialKeys(0, 4096, 2);  // even keys stored
  const BloomFilter bloom = BloomFilter::Build(keys, {10.0});
  size_t fp = 0;
  const size_t probes = 4096;
  for (size_t i = 0; i < probes; ++i) {
    fp += bloom.MayContain(2 * i + 1);  // odd keys are all absent
  }
  const double rate = static_cast<double>(fp) / probes;
  EXPECT_LT(rate, 0.05) << "fp rate " << rate << " at 10 bits/key";
}

TEST(BloomFilterTest, MoreBitsPerKeyMeansFewerFalsePositives) {
  const auto keys = SequentialKeys(0, 4096, 2);
  size_t fp_small = 0, fp_large = 0;
  const BloomFilter small = BloomFilter::Build(keys, {3.0});
  const BloomFilter large = BloomFilter::Build(keys, {14.0});
  EXPECT_LT(small.num_bits(), large.num_bits());
  for (size_t i = 0; i < 4096; ++i) {
    fp_small += small.MayContain(2 * i + 1);
    fp_large += large.MayContain(2 * i + 1);
  }
  // 3 bits/key ~ 24% theoretical fp, 14 bits/key ~ 0.1%: a wide enough gap
  // that the comparison is deterministic in practice.
  EXPECT_GT(fp_small, fp_large);
}

TEST(BloomFilterTest, FromPartsRoundTripsProbeAnswers) {
  const auto keys = SequentialKeys(100, 512, 7);
  const BloomFilter built = BloomFilter::Build(keys, {8.0});
  auto restored = BloomFilter::FromParts(built.bits(), built.num_probes());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const BloomFilter& r = restored.ValueOrDie();
  EXPECT_EQ(r.num_bits(), built.num_bits());
  for (uint64_t k = 0; k < 8000; ++k) {
    EXPECT_EQ(r.MayContain(k), built.MayContain(k)) << "key " << k;
  }
}

TEST(BloomFilterTest, FromPartsRejectsInconsistentParts) {
  EXPECT_FALSE(BloomFilter::FromParts("", 3).ok());
  EXPECT_FALSE(BloomFilter::FromParts(std::string(16, '\xff'), 0).ok());
  EXPECT_FALSE(BloomFilter::FromParts(std::string(16, '\xff'), 31).ok());
  EXPECT_TRUE(BloomFilter::FromParts("", 0).ok());  // empty filter
}

TEST(BloomFilterTest, EmptyFilterRejectsEveryProbe) {
  const BloomFilter bloom = BloomFilter::Build({});
  EXPECT_FALSE(bloom.MayContain(0));
  EXPECT_FALSE(bloom.MayContain(12345));
}

// ------------------------------------------------------------ round trip --

SparseVec RandomBlock(size_t dim, uint64_t seed) {
  Rng rng(seed);
  SparseVec v(dim);
  for (size_t i = 0; i < dim; ++i) {
    if (rng.Bernoulli(0.3)) v.PushBack(i, rng.Normal());
  }
  return v;
}

class FeatureStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("retina_store_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Builds a store of `n` users with ids 3*u (gaps make "in-range absent"
  // ids plentiful), small blocks so several blocks exist.
  void BuildStore(size_t n, size_t dim = 24, size_t block_entries = 16) {
    dim_ = dim;
    FeatureStoreOptions opts;
    opts.block_entries = block_entries;
    auto builder = FeatureStoreBuilder::Create(dir_, dim, opts);
    ASSERT_TRUE(builder.ok()) << builder.status().ToString();
    for (size_t u = 0; u < n; ++u) {
      ASSERT_TRUE(
          builder.ValueOrDie()->Add(3 * u, RandomBlock(dim, 1000 + u)).ok());
    }
    ASSERT_EQ(builder.ValueOrDie()->entries_added(), n);
    ASSERT_TRUE(builder.ValueOrDie()->Finish().ok());
  }

  std::string DataPath() const {
    return (std::filesystem::path(dir_) / kStoreDataFile).string();
  }
  std::string IndexPath() const {
    return (std::filesystem::path(dir_) / kStoreIndexFile).string();
  }

  static std::string ReadAll(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  static void WriteAll(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
  }

  static void FlipByte(const std::string& path, size_t offset) {
    std::string bytes = ReadAll(path);
    ASSERT_LT(offset, bytes.size());
    bytes[offset] ^= 0x01;
    WriteAll(path, bytes);
  }

  std::string dir_;
  size_t dim_ = 0;
};

TEST_F(FeatureStoreTest, RoundTripsEveryEntryBitExact) {
  const size_t n = 150;
  BuildStore(n);
  auto opened = FeatureStore::Open(dir_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const auto& store = opened.ValueOrDie();
  EXPECT_EQ(store->dim(), dim_);
  EXPECT_EQ(store->num_entries(), n);
  EXPECT_EQ(store->num_blocks(), (n + 15) / 16);
  const obs::RegistrySnapshot before = obs::Registry::Global().TakeSnapshot();
  for (size_t u = 0; u < n; ++u) {
    SparseVec out;
    LookupOutcome outcome;
    ASSERT_TRUE(store->Lookup(3 * u, &out, &outcome).ok());
    ASSERT_EQ(outcome, LookupOutcome::kFound) << "user " << 3 * u;
    const SparseVec want = RandomBlock(dim_, 1000 + u);
    EXPECT_EQ(out.dim(), want.dim());
    EXPECT_EQ(out.indices(), want.indices());
    // Bitwise, not approximate: values are stored as IEEE-754 bit patterns.
    EXPECT_EQ(out.values(), want.values());
  }
  EXPECT_EQ(CounterSince(before, "store.found"), n);
  EXPECT_EQ(CounterSince(before, "store.lookups"), n);
  // Every block verified its checksum exactly once.
  EXPECT_EQ(CounterSince(before, "store.blocks_verified"),
            store->num_blocks());
}

TEST_F(FeatureStoreTest, LookupOutcomeTaxonomy) {
  BuildStore(64);  // ids 0, 3, ..., 189
  auto opened = FeatureStore::Open(dir_);
  ASSERT_TRUE(opened.ok());
  const auto& store = opened.ValueOrDie();
  SparseVec out;
  LookupOutcome outcome;
  const obs::RegistrySnapshot before = obs::Registry::Global().TakeSnapshot();

  // Beyond every block's range: resolved by the index alone.
  ASSERT_TRUE(store->Lookup(500, &out, &outcome).ok());
  EXPECT_EQ(outcome, LookupOutcome::kAbsentRange);
  EXPECT_EQ(CounterSince(before, "store.range_skips"), 1u);

  // In range but absent (ids not divisible by 3): Bloom skip or, on a
  // false positive, an in-block miss — never kFound, never an error.
  size_t bloom_skips = 0, block_misses = 0;
  for (uint64_t u = 1; u < 190; u += 3) {
    ASSERT_TRUE(store->Lookup(u, &out, &outcome).ok());
    ASSERT_NE(outcome, LookupOutcome::kFound) << "user " << u;
    bloom_skips += outcome == LookupOutcome::kAbsentBloom;
    block_misses += outcome == LookupOutcome::kAbsentBlock;
  }
  EXPECT_EQ(CounterSince(before, "store.bloom.skips"), bloom_skips);
  EXPECT_EQ(CounterSince(before, "store.bloom.false_positives"),
            block_misses);
  // At 10 bits/key the Bloom filters must carry the overwhelming majority.
  EXPECT_GT(bloom_skips, block_misses);
}

TEST_F(FeatureStoreTest, BuilderRejectsOutOfOrderAndWrongDim) {
  auto builder = FeatureStoreBuilder::Create(dir_, 8);
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE(builder.ValueOrDie()->Add(5, RandomBlock(8, 1)).ok());
  EXPECT_FALSE(builder.ValueOrDie()->Add(5, RandomBlock(8, 2)).ok());
  EXPECT_FALSE(builder.ValueOrDie()->Add(4, RandomBlock(8, 3)).ok());
  EXPECT_FALSE(builder.ValueOrDie()->Add(9, RandomBlock(9, 4)).ok());
  ASSERT_TRUE(builder.ValueOrDie()->Add(9, RandomBlock(8, 5)).ok());
  ASSERT_TRUE(builder.ValueOrDie()->Finish().ok());
  EXPECT_FALSE(builder.ValueOrDie()->Add(11, RandomBlock(8, 6)).ok());
}

TEST_F(FeatureStoreTest, AbandonedBuilderLeavesNoFiles) {
  {
    auto builder = FeatureStoreBuilder::Create(dir_, 8);
    ASSERT_TRUE(builder.ok());
    ASSERT_TRUE(builder.ValueOrDie()->Add(1, RandomBlock(8, 1)).ok());
    // Destroyed without Finish.
  }
  EXPECT_FALSE(std::filesystem::exists(DataPath()));
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(FeatureStoreTest, EmptyStoreOpensAndAnswersAbsent) {
  auto builder = FeatureStoreBuilder::Create(dir_, 8);
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE(builder.ValueOrDie()->Finish().ok());
  auto opened = FeatureStore::Open(dir_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.ValueOrDie()->num_blocks(), 0u);
  SparseVec out;
  LookupOutcome outcome;
  ASSERT_TRUE(opened.ValueOrDie()->Lookup(0, &out, &outcome).ok());
  EXPECT_EQ(outcome, LookupOutcome::kAbsentRange);
}

// The RETINAs1 layout and its index, pinned: a store built from fixed
// SparseVecs writes files of exactly this size and FNV-1a 64 (published
// offset basis). Every store written so far depends on them.
uint64_t FileFnv(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST_F(FeatureStoreTest, GoldenFilesPinBlocksAndIndex) {
  FeatureStoreOptions opts;
  opts.block_entries = 2;
  auto builder = FeatureStoreBuilder::Create(dir_, 6, opts);
  ASSERT_TRUE(builder.ok()) << builder.status().ToString();
  for (uint64_t u = 0; u < 5; ++u) {
    SparseVec v(6);
    for (uint32_t i = 0; i <= u % 3; ++i) v.PushBack(2 * i, 0.5 * u - i);
    ASSERT_TRUE(builder.ValueOrDie()->Add(7 * u + 1, v).ok());
  }
  ASSERT_TRUE(builder.ValueOrDie()->Finish().ok());
  const std::string data = ReadAll(DataPath());
  const std::string index = ReadAll(IndexPath());
  EXPECT_EQ(data.size(), 248u);
  EXPECT_EQ(FileFnv(data), 0xece57981752e60bbull);
  EXPECT_EQ(index.size(), 604u);
  EXPECT_EQ(FileFnv(index), 0xc3d4367f53133ab0ull);
}

// ------------------------------------------------------------ corruption --

TEST_F(FeatureStoreTest, OpenFailsOnTruncatedDataFile) {
  BuildStore(64);
  std::string bytes = ReadAll(DataPath());
  bytes.resize(bytes.size() - 9);
  WriteAll(DataPath(), bytes);
  auto opened = FeatureStore::Open(dir_);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("truncated"), std::string::npos)
      << opened.status().ToString();
}

TEST_F(FeatureStoreTest, OpenFailsOnBadMagic) {
  BuildStore(16);
  FlipByte(DataPath(), 0);
  auto opened = FeatureStore::Open(dir_);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("magic"), std::string::npos);
}

TEST_F(FeatureStoreTest, OpenFailsOnCorruptIndexCheckpoint) {
  BuildStore(64);
  const std::string bytes = ReadAll(IndexPath());
  FlipByte(IndexPath(), bytes.size() / 2);
  EXPECT_FALSE(FeatureStore::Open(dir_).ok());
}

TEST_F(FeatureStoreTest, OpenFailsOnMissingFiles) {
  BuildStore(16);
  std::filesystem::remove(DataPath());
  EXPECT_FALSE(FeatureStore::Open(dir_).ok());
  BuildStore(16);
  std::filesystem::remove(IndexPath());
  EXPECT_FALSE(FeatureStore::Open(dir_).ok());
}

TEST_F(FeatureStoreTest, FlippedBlockByteFailsThatBlockOnly) {
  BuildStore(64);  // 4 blocks of 16, ids 0..189
  // Flip a byte inside the first block's extent (just past the data-file
  // header): its checksum must fail, other blocks must still serve.
  FlipByte(DataPath(), 16 + 20);
  auto opened = FeatureStore::Open(dir_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const auto& store = opened.ValueOrDie();
  SparseVec out;
  LookupOutcome outcome;
  const Status bad = store->Lookup(0, &out, &outcome);  // block 0
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("corrupt store block 0"), std::string::npos)
      << bad.ToString();
  // A later block is untouched: id 3*63 = 189 lives in the last block.
  ASSERT_TRUE(store->Lookup(189, &out, &outcome).ok());
  EXPECT_EQ(outcome, LookupOutcome::kFound);
  EXPECT_EQ(out.indices(), RandomBlock(dim_, 1000 + 63).indices());
}

TEST_F(FeatureStoreTest, StaleIndexEntryFailsLookupNotUB) {
  // Simulate a stale index: keep the index of build A, swap in the data
  // file of build B (same users, same layout, different values). Open
  // succeeds — checksums are verified lazily — but every block lookup
  // must fail its checksum, not decode the wrong bytes.
  BuildStore(32);
  const std::string stale_index = ReadAll(IndexPath());
  std::filesystem::remove_all(dir_);
  {
    FeatureStoreOptions opts;
    opts.block_entries = 16;
    auto builder = FeatureStoreBuilder::Create(dir_, dim_, opts);
    ASSERT_TRUE(builder.ok());
    for (size_t u = 0; u < 32; ++u) {
      // Same sparsity pattern (indices drive layout), different values.
      SparseVec block = RandomBlock(dim_, 1000 + u);
      block.Scale(2.0);
      ASSERT_TRUE(builder.ValueOrDie()->Add(3 * u, block).ok());
    }
    ASSERT_TRUE(builder.ValueOrDie()->Finish().ok());
  }
  WriteAll(IndexPath(), stale_index);
  auto opened = FeatureStore::Open(dir_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  SparseVec out;
  LookupOutcome outcome;
  const Status st = opened.ValueOrDie()->Lookup(0, &out, &outcome);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("checksum mismatch"), std::string::npos)
      << st.ToString();
}

}  // namespace
}  // namespace retina::store
