// Disk-backed user feature store: immutable sorted blocks + in-memory
// block index + per-block Bloom filters.
//
// The store makes the serving layer's per-user working set disk-sized
// instead of RAM-sized: user history blocks (sparse feature vectors) are
// written once, sorted by user id, into fixed-fan-out blocks of a single
// data file, and looked up through an in-memory index that knows each
// block's user range, byte extent, FNV-1a-64 checksum, and Bloom filter.
// The serving LRU stays in front as the warm tier; this store is the cold
// tier behind it, and the Bloom filters make lookups for users the store
// does not hold nearly free (no disk touch at all).
//
// On-disk layout (directory with two files, both written atomically via
// temp-file + rename, following the RETINAc1 container conventions; the
// encoding, the checksum and the atomic write are common/bytes.h's):
//
//   blocks.dat   magic "RETINAs1" | u32 version | u8 endian tag | 3 zero
//                then blocks back to back, each:
//                  u64 n                  entries in this block
//                  u64 user_id[n]         ascending
//                  u64 entry_offset[n]    relative to this block's payload
//                  payload: per entry u32 nnz, nnz*u32 indices (ascending),
//                           nnz*f64 values (IEEE-754 bit patterns)
//   index.ckpt   a RETINAc1 io::Checkpoint (versioned, typed entries,
//                trailing FNV-1a-64 checksum) holding the store header
//                (dim, entry count, sizing knobs) and per-block parallel
//                lists: first/last user, offset, byte size, checksum, and
//                the serialized Bloom filter.
//
// A block's checksum is FNV-1a 64 over its bytes (from its u64 n through
// the end of its payload), from io::kChecksumBasis, 1469598103934665603:
// the published basis without its last digit, as in the checkpoint.
//
// Doubles round-trip as bit patterns, so a block read returns exactly the
// SparseVec the builder was handed — the tiered read path is bit-identical
// to recomputing the feature block in process.
//
// Read path: Open mmaps blocks.dat (falling back to a heap buffer where
// mmap is unavailable) and parses only the index; block bytes are touched
// lazily. A Lookup binary-searches the block ranges, probes that block's
// Bloom filter, and only then verifies the block checksum (once per block,
// cached) and binary-searches the in-block user table straight from the
// mapped bytes. Every parse is bounds-checked: truncation, flipped bytes,
// and stale index entries surface as Status errors, never UB.
//
// Not thread-safe: like the serving engine that owns it, one store
// instance per serving thread (the verified-block cache is
// unsynchronized).

#ifndef RETINA_STORE_FEATURE_STORE_H_
#define RETINA_STORE_FEATURE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/obs.h"
#include "common/sparse_vec.h"
#include "common/status.h"
#include "store/bloom.h"

namespace retina::store {

inline constexpr char kStoreMagic[8] = {'R', 'E', 'T', 'I', 'N', 'A', 's', '1'};
inline constexpr uint32_t kStoreVersion = 1;
inline constexpr char kStoreDataFile[] = "blocks.dat";
inline constexpr char kStoreIndexFile[] = "index.ckpt";

struct FeatureStoreOptions {
  /// Users per block. Smaller blocks mean finer Bloom filters and less
  /// wasted checksum work per cold lookup; larger blocks amortize the
  /// per-block index footprint. 64 keeps a cold lookup's checksum scan in
  /// the tens of kilobytes.
  size_t block_entries = 64;
  /// Bloom filter bits per stored user (the Monkey-style sizing knob).
  double bits_per_key = 10.0;
};

/// How a lookup resolved. Everything except kFound means "definitely not
/// in the store" — the Bloom filter is one-sided.
enum class LookupOutcome : uint8_t {
  kFound = 0,        ///< entry located and decoded
  kAbsentRange,      ///< user id outside every block's [first, last] range
  kAbsentBloom,      ///< the owning block's Bloom filter rejected the user
  kAbsentBlock,      ///< Bloom false positive: block searched, user absent
};

/// \brief Streaming writer: Add users in ascending id order, then Finish.
///
/// Blocks are flushed to the temp data file as they fill, so building a
/// store holds one block — not the population — in memory. Finish seals
/// the data file (atomic rename) and writes the index checkpoint; a
/// builder destroyed before Finish removes its temp file.
class FeatureStoreBuilder {
 public:
  /// Creates `dir` if needed and opens the temp data file.
  static Result<std::unique_ptr<FeatureStoreBuilder>> Create(
      const std::string& dir, size_t dim, FeatureStoreOptions options = {});

  FeatureStoreBuilder(const FeatureStoreBuilder&) = delete;
  FeatureStoreBuilder& operator=(const FeatureStoreBuilder&) = delete;

  /// Appends one user's feature block. Ids must be strictly ascending and
  /// `features.dim()` must equal the builder's dim.
  Status Add(uint64_t user, const SparseVec& features);

  /// Flushes the tail block, atomically publishes blocks.dat, and writes
  /// index.ckpt. The builder is spent afterwards.
  Status Finish();

  size_t entries_added() const { return entries_added_; }

 private:
  FeatureStoreBuilder() = default;

  Status FlushBlock();

  std::string dir_;
  AtomicFile data_file_;      // blocks.dat, published by Finish
  uint64_t file_offset_ = 0;  // bytes written so far (incl. header)
  size_t dim_ = 0;
  FeatureStoreOptions options_;
  bool finished_ = false;
  size_t entries_added_ = 0;
  int64_t last_user_ = -1;

  // Current (unflushed) block.
  std::vector<uint64_t> block_users_;
  std::vector<uint64_t> block_offsets_;
  std::string block_payload_;

  // Per-flushed-block index rows.
  std::vector<int64_t> index_first_;
  std::vector<int64_t> index_last_;
  std::vector<int64_t> index_offset_;
  std::vector<int64_t> index_size_;
  std::vector<int64_t> index_checksum_;  // u64 checksum, bit-cast
  std::vector<std::string> index_bloom_;
  uint32_t bloom_probes_ = 0;
};

/// \brief mmap-backed reader over a finished store directory.
class FeatureStore {
 public:
  static Result<std::unique_ptr<FeatureStore>> Open(const std::string& dir);

  ~FeatureStore();

  FeatureStore(const FeatureStore&) = delete;
  FeatureStore& operator=(const FeatureStore&) = delete;

  /// Resolves `user`. On kFound, `*out` is the stored SparseVec
  /// (bit-identical to what the builder was handed). Other outcomes leave
  /// `*out` untouched. A non-OK Status means the store is corrupt
  /// (checksum mismatch, truncated or inconsistent block bytes); the
  /// store stays usable for blocks that still verify.
  Status Lookup(uint64_t user, SparseVec* out, LookupOutcome* outcome);

  size_t dim() const { return dim_; }
  size_t num_entries() const { return num_entries_; }
  size_t num_blocks() const { return block_offset_.size(); }
  double bits_per_key() const { return bits_per_key_; }

 private:
  FeatureStore() = default;

  Status VerifyBlock(size_t b);

  // Mapped (or heap-loaded) data file.
  const unsigned char* data_ = nullptr;
  size_t data_size_ = 0;
  bool mmapped_ = false;
  std::string heap_fallback_;  // owns bytes when mmap was unavailable

  size_t dim_ = 0;
  size_t num_entries_ = 0;
  double bits_per_key_ = 10.0;

  // Parallel per-block index arrays (decoded from index.ckpt).
  std::vector<uint64_t> block_first_;
  std::vector<uint64_t> block_last_;
  std::vector<uint64_t> block_offset_;
  std::vector<uint64_t> block_size_;
  std::vector<uint64_t> block_checksum_;
  std::vector<BloomFilter> block_bloom_;
  std::vector<uint8_t> block_verified_;

  /// Registry instruments, resolved once at Open: the store's only record
  /// of its lookups, process-wide and counting in every build (read them
  /// as a Registry::SnapshotDelta). Observers only — nothing here affects
  /// lookup results.
  struct ObsHooks {
    static ObsHooks Resolve();
    obs::Counter* lookups;      ///< store.lookups
    obs::Counter* found;        ///< store.found
    obs::Counter* range_skips;  ///< store.range_skips: kAbsentRange
    obs::Counter* bloom_skips;  ///< store.bloom.skips: kAbsentBloom
    /// store.bloom.false_positives: kAbsentBlock outcomes
    obs::Counter* bloom_false_positives;
    /// store.blocks_verified: checksum passes (first touch per block)
    obs::Counter* blocks_verified;
  };
  ObsHooks hooks_ = {};
};

}  // namespace retina::store

#endif  // RETINA_STORE_FEATURE_STORE_H_
