#include "store/feature_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#define RETINA_STORE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "common/bytes.h"
#include "io/checkpoint.h"

namespace retina::store {
namespace {

constexpr size_t kHeaderSize = 8 + 4 + 1 + 3;  // magic, version, endian, pad

Status CorruptBlock(size_t block, const std::string& what) {
  return Status::IOError("corrupt store block " + std::to_string(block) +
                         ": " + what);
}

// Index entry names under index.ckpt. Kept under one prefix so a store
// index is recognizable at a glance in checkpoint dumps.
constexpr char kIdxVersion[] = "store/format_version";
constexpr char kIdxDim[] = "store/dim";
constexpr char kIdxEntries[] = "store/num_entries";
constexpr char kIdxBlockEntries[] = "store/block_entries";
constexpr char kIdxBitsPerKey[] = "store/bits_per_key";
constexpr char kIdxBloomProbes[] = "store/bloom_probes";
constexpr char kIdxDataSize[] = "store/data_file_size";
constexpr char kIdxFirst[] = "store/block_first_user";
constexpr char kIdxLast[] = "store/block_last_user";
constexpr char kIdxOffset[] = "store/block_offset";
constexpr char kIdxSize[] = "store/block_size";
constexpr char kIdxChecksum[] = "store/block_checksum";
constexpr char kIdxBloom[] = "store/block_bloom";

}  // namespace

// ---------------------------------------------------------------- builder --

Result<std::unique_ptr<FeatureStoreBuilder>> FeatureStoreBuilder::Create(
    const std::string& dir, size_t dim, FeatureStoreOptions options) {
  if (dim == 0) {
    return Status::InvalidArgument("feature store dim must be positive");
  }
  if (options.block_entries == 0) options.block_entries = 1;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create store directory " + dir + ": " +
                           ec.message());
  }
  auto builder =
      std::unique_ptr<FeatureStoreBuilder>(new FeatureStoreBuilder());
  builder->dir_ = dir;
  builder->dim_ = dim;
  builder->options_ = options;
  RETINA_RETURN_NOT_OK(builder->data_file_.Open(
      (std::filesystem::path(dir) / kStoreDataFile).string()));
  std::string header(kStoreMagic, sizeof(kStoreMagic));
  PutU32(&header, kStoreVersion);
  PutU8(&header, HostEndianTag());
  header.append(3, '\0');
  RETINA_RETURN_NOT_OK(builder->data_file_.Append(header));
  builder->file_offset_ = header.size();
  return builder;
}

Status FeatureStoreBuilder::Add(uint64_t user, const SparseVec& features) {
  if (finished_) {
    return Status::FailedPrecondition("builder already finished");
  }
  if (features.dim() != dim_) {
    return Status::InvalidArgument(
        "feature dim mismatch: store dim " + std::to_string(dim_) +
        ", entry dim " + std::to_string(features.dim()));
  }
  if (static_cast<int64_t>(user) <= last_user_) {
    return Status::InvalidArgument(
        "store entries must be added in strictly ascending user order "
        "(got " + std::to_string(user) + " after " +
        std::to_string(last_user_) + ")");
  }
  last_user_ = static_cast<int64_t>(user);

  block_users_.push_back(user);
  block_offsets_.push_back(block_payload_.size());
  PutU32(&block_payload_, static_cast<uint32_t>(features.nnz()));
  for (const uint32_t idx : features.indices()) PutU32(&block_payload_, idx);
  for (const double v : features.values()) PutF64(&block_payload_, v);
  ++entries_added_;

  if (block_users_.size() >= options_.block_entries) return FlushBlock();
  return Status::OK();
}

Status FeatureStoreBuilder::FlushBlock() {
  if (block_users_.empty()) return Status::OK();
  const size_t n = block_users_.size();
  std::string block;
  block.reserve(8 + 16 * n + block_payload_.size());
  PutU64(&block, n);
  for (const uint64_t u : block_users_) PutU64(&block, u);
  for (const uint64_t off : block_offsets_) PutU64(&block, off);
  block.append(block_payload_);

  const BloomFilter bloom =
      BloomFilter::Build(block_users_, {options_.bits_per_key});
  bloom_probes_ = bloom.num_probes();

  index_first_.push_back(static_cast<int64_t>(block_users_.front()));
  index_last_.push_back(static_cast<int64_t>(block_users_.back()));
  index_offset_.push_back(static_cast<int64_t>(file_offset_));
  index_size_.push_back(static_cast<int64_t>(block.size()));
  index_checksum_.push_back(static_cast<int64_t>(
      Fnv1a64(block.data(), block.size(), io::kChecksumBasis)));
  index_bloom_.push_back(bloom.bits());

  RETINA_RETURN_NOT_OK(data_file_.Append(block));
  file_offset_ += block.size();
  block_users_.clear();
  block_offsets_.clear();
  block_payload_.clear();
  return Status::OK();
}

Status FeatureStoreBuilder::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("builder already finished");
  }
  finished_ = true;
  RETINA_RETURN_NOT_OK(FlushBlock());
  RETINA_RETURN_NOT_OK(data_file_.Commit());

  io::Checkpoint index;
  index.PutI64(kIdxVersion, kStoreVersion);
  index.PutI64(kIdxDim, static_cast<int64_t>(dim_));
  index.PutI64(kIdxEntries, static_cast<int64_t>(entries_added_));
  index.PutI64(kIdxBlockEntries,
               static_cast<int64_t>(options_.block_entries));
  index.PutF64(kIdxBitsPerKey, options_.bits_per_key);
  index.PutI64(kIdxBloomProbes, static_cast<int64_t>(bloom_probes_));
  index.PutI64(kIdxDataSize, static_cast<int64_t>(file_offset_));
  index.PutI64List(kIdxFirst, index_first_);
  index.PutI64List(kIdxLast, index_last_);
  index.PutI64List(kIdxOffset, index_offset_);
  index.PutI64List(kIdxSize, index_size_);
  index.PutI64List(kIdxChecksum, index_checksum_);
  index.PutStringList(kIdxBloom, index_bloom_);
  return index.WriteFile(
      (std::filesystem::path(dir_) / kStoreIndexFile).string());
}

// ----------------------------------------------------------------- reader --

FeatureStore::ObsHooks FeatureStore::ObsHooks::Resolve() {
  obs::Registry& reg = obs::Registry::Global();
  return {
      reg.GetCounter("store.lookups"),
      reg.GetCounter("store.found"),
      reg.GetCounter("store.range_skips"),
      reg.GetCounter("store.bloom.skips"),
      reg.GetCounter("store.bloom.false_positives"),
      reg.GetCounter("store.blocks_verified"),
  };
}

Result<std::unique_ptr<FeatureStore>> FeatureStore::Open(
    const std::string& dir) {
  const std::string index_path =
      (std::filesystem::path(dir) / kStoreIndexFile).string();
  const std::string data_path =
      (std::filesystem::path(dir) / kStoreDataFile).string();

  auto index_result = io::Checkpoint::ReadFile(index_path);
  if (!index_result.ok()) {
    return Status::IOError("cannot read store index: " +
                           index_result.status().message());
  }
  const io::Checkpoint& index = index_result.ValueOrDie();

  auto store = std::unique_ptr<FeatureStore>(new FeatureStore());
  int64_t version = 0, dim = 0, entries = 0, probes = 0, data_size = 0;
  RETINA_RETURN_NOT_OK(index.GetI64(kIdxVersion, &version));
  if (version != kStoreVersion) {
    return Status::IOError("unsupported store format version " +
                           std::to_string(version));
  }
  RETINA_RETURN_NOT_OK(index.GetI64(kIdxDim, &dim));
  RETINA_RETURN_NOT_OK(index.GetI64(kIdxEntries, &entries));
  RETINA_RETURN_NOT_OK(index.GetI64(kIdxBloomProbes, &probes));
  RETINA_RETURN_NOT_OK(index.GetI64(kIdxDataSize, &data_size));
  RETINA_RETURN_NOT_OK(index.GetF64(kIdxBitsPerKey, &store->bits_per_key_));
  if (dim <= 0 || entries < 0 || data_size < 0 || probes < 0) {
    return Status::IOError("corrupt store index: negative header field");
  }
  store->dim_ = static_cast<size_t>(dim);
  store->num_entries_ = static_cast<size_t>(entries);

  std::vector<int64_t> first, last, offset, size, checksum;
  std::vector<std::string> blooms;
  RETINA_RETURN_NOT_OK(index.GetI64List(kIdxFirst, &first));
  RETINA_RETURN_NOT_OK(index.GetI64List(kIdxLast, &last));
  RETINA_RETURN_NOT_OK(index.GetI64List(kIdxOffset, &offset));
  RETINA_RETURN_NOT_OK(index.GetI64List(kIdxSize, &size));
  RETINA_RETURN_NOT_OK(index.GetI64List(kIdxChecksum, &checksum));
  RETINA_RETURN_NOT_OK(index.GetStringList(kIdxBloom, &blooms));
  const size_t n_blocks = first.size();
  if (last.size() != n_blocks || offset.size() != n_blocks ||
      size.size() != n_blocks || checksum.size() != n_blocks ||
      blooms.size() != n_blocks) {
    return Status::IOError(
        "corrupt store index: per-block lists have mismatched lengths");
  }

  // Map the data file before validating block extents against its size.
  {
#ifdef RETINA_STORE_HAVE_MMAP
    const int fd = ::open(data_path.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::IOError("cannot open store data file: " + data_path);
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::IOError("cannot stat store data file: " + data_path);
    }
    store->data_size_ = static_cast<size_t>(st.st_size);
    if (store->data_size_ > 0) {
      void* mapped = ::mmap(nullptr, store->data_size_, PROT_READ,
                            MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (mapped == MAP_FAILED) {
        return Status::IOError("mmap failed on store data file: " +
                               data_path);
      }
      store->data_ = static_cast<const unsigned char*>(mapped);
      store->mmapped_ = true;
    } else {
      ::close(fd);
    }
#else
    const Status read = ReadFileToString(data_path, &store->heap_fallback_);
    if (!read.ok()) {
      return Status::IOError("cannot read store data file: " +
                             read.message());
    }
    store->data_ =
        reinterpret_cast<const unsigned char*>(store->heap_fallback_.data());
    store->data_size_ = store->heap_fallback_.size();
#endif
  }

  if (store->data_size_ != static_cast<size_t>(data_size)) {
    return Status::IOError(
        "store data file truncated or grew: index records " +
        std::to_string(data_size) + " bytes, file has " +
        std::to_string(store->data_size_));
  }
  if (store->data_size_ < kHeaderSize ||
      std::memcmp(store->data_, kStoreMagic, sizeof(kStoreMagic)) != 0) {
    return Status::IOError("corrupt store data file: bad magic");
  }
  if (LoadLe32(store->data_ + 8) != kStoreVersion) {
    return Status::IOError("corrupt store data file: bad version");
  }
  if (store->data_[12] != HostEndianTag()) {
    return Status::IOError("store data file endianness mismatch");
  }

  store->block_first_.reserve(n_blocks);
  store->block_last_.reserve(n_blocks);
  store->block_offset_.reserve(n_blocks);
  store->block_size_.reserve(n_blocks);
  store->block_checksum_.reserve(n_blocks);
  store->block_bloom_.reserve(n_blocks);
  uint64_t prev_end = kHeaderSize;
  int64_t prev_last = -1;
  for (size_t b = 0; b < n_blocks; ++b) {
    if (first[b] < 0 || last[b] < first[b] || first[b] <= prev_last) {
      return Status::IOError(
          "corrupt store index: block user ranges not ascending");
    }
    const uint64_t off = static_cast<uint64_t>(offset[b]);
    const uint64_t sz = static_cast<uint64_t>(size[b]);
    if (offset[b] < 0 || size[b] <= 0 || off < prev_end ||
        sz > store->data_size_ || off > store->data_size_ - sz) {
      return Status::IOError(
          "corrupt store index: block " + std::to_string(b) +
          " extent [" + std::to_string(off) + ", +" + std::to_string(sz) +
          ") outside the data file");
    }
    auto bloom = BloomFilter::FromParts(blooms[b],
                                        static_cast<uint32_t>(probes));
    if (!bloom.ok()) {
      return Status::IOError("corrupt store index: " +
                             bloom.status().message());
    }
    store->block_first_.push_back(static_cast<uint64_t>(first[b]));
    store->block_last_.push_back(static_cast<uint64_t>(last[b]));
    store->block_offset_.push_back(off);
    store->block_size_.push_back(sz);
    store->block_checksum_.push_back(static_cast<uint64_t>(checksum[b]));
    store->block_bloom_.push_back(std::move(bloom).ValueOrDie());
    prev_end = off + sz;
    prev_last = last[b];
  }
  store->block_verified_.assign(n_blocks, 0);
  store->hooks_ = ObsHooks::Resolve();
  return store;
}

FeatureStore::~FeatureStore() {
#ifdef RETINA_STORE_HAVE_MMAP
  if (mmapped_ && data_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(data_), data_size_);
  }
#endif
}

Status FeatureStore::VerifyBlock(size_t b) {
  if (block_verified_[b]) return Status::OK();
  const uint64_t actual =
      Fnv1a64(data_ + block_offset_[b], block_size_[b], io::kChecksumBasis);
  if (actual != block_checksum_[b]) {
    return CorruptBlock(b, "checksum mismatch");
  }
  block_verified_[b] = 1;
  hooks_.blocks_verified->Add(1);
  return Status::OK();
}

Status FeatureStore::Lookup(uint64_t user, SparseVec* out,
                            LookupOutcome* outcome) {
  hooks_.lookups->Add(1);

  // Index binary search: first block whose last user is >= user.
  const auto it =
      std::lower_bound(block_last_.begin(), block_last_.end(), user);
  if (it == block_last_.end() ||
      user < block_first_[static_cast<size_t>(it - block_last_.begin())]) {
    *outcome = LookupOutcome::kAbsentRange;
    hooks_.range_skips->Add(1);
    return Status::OK();
  }
  const size_t b = static_cast<size_t>(it - block_last_.begin());

  // Bloom probe: a negative answer skips every byte of the block.
  if (!block_bloom_[b].MayContain(user)) {
    *outcome = LookupOutcome::kAbsentBloom;
    hooks_.bloom_skips->Add(1);
    return Status::OK();
  }

  RETINA_RETURN_NOT_OK(VerifyBlock(b));

  // Decode the block frame (bounds-checked; a verified checksum already
  // makes corruption here essentially impossible, but a stale index entry
  // could frame the wrong bytes).
  const unsigned char* block = data_ + block_offset_[b];
  const uint64_t block_size = block_size_[b];
  if (block_size < 8) return CorruptBlock(b, "shorter than its entry count");
  const uint64_t n = LoadLe64(block);
  if (n == 0 || n > (block_size - 8) / 16) {
    return CorruptBlock(b, "entry count inconsistent with block size");
  }
  const unsigned char* users = block + 8;
  const unsigned char* offsets = users + 8 * n;
  const unsigned char* payload = offsets + 8 * n;
  const uint64_t payload_size = block_size - 8 - 16 * n;

  // In-block binary search over the sorted user-id table.
  size_t lo = 0, hi = static_cast<size_t>(n);
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const uint64_t mid_user = LoadLe64(users + 8 * mid);
    if (mid_user < user) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == n || LoadLe64(users + 8 * lo) != user) {
    *outcome = LookupOutcome::kAbsentBlock;  // Bloom false positive
    hooks_.bloom_false_positives->Add(1);
    return Status::OK();
  }

  const uint64_t entry_off = LoadLe64(offsets + 8 * lo);
  if (entry_off > payload_size || payload_size - entry_off < 4) {
    return CorruptBlock(b, "entry offset outside the payload");
  }
  const unsigned char* entry = payload + entry_off;
  const uint32_t nnz = LoadLe32(entry);
  if (nnz > dim_ || payload_size - entry_off - 4 <
                        static_cast<uint64_t>(nnz) * 12) {
    return CorruptBlock(b, "entry extends past the payload");
  }
  SparseVec decoded(dim_);
  const unsigned char* idx_bytes = entry + 4;
  const unsigned char* val_bytes = idx_bytes + 4 * static_cast<size_t>(nnz);
  uint32_t prev_idx = 0;
  for (uint32_t i = 0; i < nnz; ++i) {
    const uint32_t idx = LoadLe32(idx_bytes + 4 * i);
    if (idx >= dim_ || (i > 0 && idx <= prev_idx)) {
      return CorruptBlock(b, "entry indices not ascending below dim");
    }
    decoded.PushBack(idx, LoadLeF64(val_bytes + 8 * i));
    prev_idx = idx;
  }
  *out = std::move(decoded);
  *outcome = LookupOutcome::kFound;
  hooks_.found->Add(1);
  return Status::OK();
}

}  // namespace retina::store
