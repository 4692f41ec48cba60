// Versioned binary checkpoint container.
//
// A Checkpoint is an in-memory table of named, typed entries (tensors,
// scalars, strings, integer lists) that serializes to a single file:
//
//   offset  size  field
//   0       8     magic "RETINAc1"
//   8       4     format version (u32, little-endian)
//   12      1     endianness tag (1 = little-endian payload)
//   13      3     reserved (zero)
//   16      8     entry count (u64)
//   24      ...   entries, each:
//                   u32  name length, then name bytes (UTF-8, no NUL)
//                   u8   type tag (EntryType)
//                   ...  typed payload (see checkpoint.cc)
//   end-8   8     FNV-1a 64 checksum of every preceding byte, from the
//                 offset basis kChecksumBasis (below)
//
// All integers are little-endian; doubles are stored as their IEEE-754
// bit pattern in a little-endian u64, so a save→load round trip is
// bit-exact. The encoding, the bounds-checked decoding, the checksum and
// the temp-file-then-rename write are common/bytes.h's, shared with the
// user store and the serve protocol. ReadFile returns a Status error —
// never crashes, never yields silent garbage — on wrong magic,
// unsupported version, endianness mismatch, truncation, or checksum
// failure.

#ifndef RETINA_IO_CHECKPOINT_H_
#define RETINA_IO_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/vec.h"

namespace retina::io {

inline constexpr char kCheckpointMagic[8] = {'R', 'E', 'T', 'I',
                                             'N', 'A', 'c', '1'};
inline constexpr uint32_t kCheckpointVersion = 1;
/// Offset basis of the trailing FNV-1a 64 checksum, which the user store's
/// per-block checksums share: 1469598103934665603, the published basis
/// 14695981039346656037 without its last digit. Every file written so far
/// is summed from it. To verify a file by hand, run FNV-1a 64 from this
/// basis over all but its last 8 bytes and compare with those bytes read
/// as a little-endian u64.
inline constexpr uint64_t kChecksumBasis = 1469598103934665603ULL;

/// Payload type of one named entry.
enum class EntryType : uint8_t {
  kTensor = 1,      // u64 rows, u64 cols, rows*cols f64
  kI64List = 2,     // u64 count, count i64
  kString = 3,      // u64 length, bytes
  kStringList = 4,  // u64 count, count * (u64 length, bytes)
  kF64 = 5,         // one f64
  kI64 = 6,         // one i64
};

const char* EntryTypeName(EntryType type);

/// \brief Named typed table of model state, save/load bit-exactly.
///
/// Put* overwrite on duplicate names. Get* return a Status error if the
/// name is missing or holds a different type. Vec entries are stored as
/// 1×n tensors, so GetVec accepts any tensor and flattens it.
class Checkpoint {
 public:
  void PutTensor(const std::string& name, const Matrix& value);
  void PutVec(const std::string& name, const Vec& value);
  void PutI64List(const std::string& name, std::vector<int64_t> value);
  void PutString(const std::string& name, std::string value);
  void PutStringList(const std::string& name,
                     std::vector<std::string> value);
  void PutF64(const std::string& name, double value);
  void PutI64(const std::string& name, int64_t value);
  void PutBool(const std::string& name, bool value) {
    PutI64(name, value ? 1 : 0);
  }

  Status GetTensor(const std::string& name, Matrix* out) const;
  Status GetVec(const std::string& name, Vec* out) const;
  Status GetI64List(const std::string& name,
                    std::vector<int64_t>* out) const;
  Status GetString(const std::string& name, std::string* out) const;
  Status GetStringList(const std::string& name,
                       std::vector<std::string>* out) const;
  Status GetF64(const std::string& name, double* out) const;
  Status GetI64(const std::string& name, int64_t* out) const;
  Status GetBool(const std::string& name, bool* out) const;

  bool Contains(const std::string& name) const {
    return entries_.count(name) > 0;
  }
  size_t NumEntries() const { return entries_.size(); }
  /// All entry names in lexicographic order.
  std::vector<std::string> Names() const;

  /// Serializes the table to `path` (atomically: temp file + rename).
  Status WriteFile(const std::string& path) const;

  /// Parses a checkpoint file; validates magic, version, endianness tag,
  /// entry framing, and the trailing checksum before returning.
  static Result<Checkpoint> ReadFile(const std::string& path);

  /// In-memory (de)serialization used by WriteFile/ReadFile; exposed so
  /// tests can corrupt bytes deliberately.
  std::string SerializeToBytes() const;
  static Result<Checkpoint> DeserializeFromBytes(const std::string& bytes);

 private:
  struct Entry {
    EntryType type = EntryType::kTensor;
    Matrix tensor;                    // kTensor
    std::vector<int64_t> i64s;        // kI64List
    std::string str;                  // kString
    std::vector<std::string> strs;    // kStringList
    double f64 = 0.0;                 // kF64
    int64_t i64 = 0;                  // kI64
  };

  const Entry* FindTyped(const std::string& name, EntryType type,
                         Status* error) const;

  // Ordered map: serialization order (and thus file bytes) depend only on
  // entry names, not on insertion history.
  std::map<std::string, Entry> entries_;
};

}  // namespace retina::io

#endif  // RETINA_IO_CHECKPOINT_H_
