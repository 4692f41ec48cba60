// The byte codec every binary format shares: the RETINAc1 checkpoint
// (io/checkpoint.h), the user store's blocks.dat (store/feature_store.h)
// and the serve wire protocol (serve/protocol.h). Every format is
// little-endian on every host. Put*, LoadLe* and ByteReader are inline and
// allocate nothing beyond the string they append to: the daemon runs them
// on every request.

#ifndef RETINA_COMMON_BYTES_H_
#define RETINA_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/status.h"

namespace retina {

/// The published FNV-1a 64 offset basis.
inline constexpr uint64_t kFnv1a64Basis = 14695981039346656037ULL;

/// FNV-1a 64 over `n` bytes, starting from `basis` (pass a previous hash to
/// continue it).
uint64_t Fnv1a64(const void* data, size_t n, uint64_t basis);

/// Byte-order tag the checkpoint and the store write into their headers:
/// 1 on a little-endian host, 2 on a big-endian one.
constexpr uint8_t HostEndianTag() {
  return std::endian::native == std::endian::little ? 1 : 2;
}

/// `v` with its bytes in little-endian order; converts back as well.
template <typename T>
constexpr T ToLittleEndian(T v) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::big) {
    T out = 0;
    for (size_t i = 0; i < sizeof(T); ++i, v >>= 8) {
      out = static_cast<T>((out << 8) | (v & 0xFF));
    }
    return out;
  }
  return v;
}

/// Appends `v` little-endian.
template <typename T>
inline void PutLe(std::string* out, T v) {
  v = ToLittleEndian(v);
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

inline void PutU8(std::string* out, uint8_t v) { PutLe(out, v); }
inline void PutU16(std::string* out, uint16_t v) { PutLe(out, v); }
inline void PutU32(std::string* out, uint32_t v) { PutLe(out, v); }
inline void PutU64(std::string* out, uint64_t v) { PutLe(out, v); }
/// Two's complement in a u64.
inline void PutI64(std::string* out, int64_t v) {
  PutLe(out, static_cast<uint64_t>(v));
}
/// The IEEE-754 bit pattern in a u64, so doubles round-trip bit-exactly.
inline void PutF64(std::string* out, double v) {
  PutLe(out, std::bit_cast<uint64_t>(v));
}

/// Decodes a little-endian T at `p` (no alignment needed).
template <typename T>
inline T LoadLe(const void* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return ToLittleEndian(v);
}

inline uint32_t LoadLe32(const void* p) { return LoadLe<uint32_t>(p); }
inline uint64_t LoadLe64(const void* p) { return LoadLe<uint64_t>(p); }
inline double LoadLeF64(const void* p) {
  return std::bit_cast<double>(LoadLe64(p));
}

/// \brief Forward, bounds-checked reads of little-endian bytes. A read that
/// would run past the end returns false and leaves the position where it
/// was. Every bound is one 64-bit test, `n > remaining()`, so a hostile
/// count cannot wrap a check.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  size_t pos() const { return pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

  /// True when `count` items of `width` bytes each fit in what is left. It
  /// divides rather than multiplies, so a count whose byte size overflows
  /// 64 bits never fits.
  bool Fits(uint64_t count, uint64_t width) const {
    return width == 0 || count <= remaining() / width;
  }

  bool ReadU8(uint8_t* v) { return ReadLe<uint8_t>(v); }
  bool ReadU16(uint16_t* v) { return ReadLe<uint16_t>(v); }
  bool ReadU32(uint32_t* v) { return ReadLe<uint32_t>(v); }
  bool ReadU64(uint64_t* v) { return ReadLe<uint64_t>(v); }
  bool ReadI64(int64_t* v) { return ReadLe<uint64_t>(v); }
  bool ReadF64(double* v) { return ReadLe<uint64_t>(v); }

  /// Copies the next `n` bytes into `*out`.
  bool ReadBytes(uint64_t n, std::string* out) {
    if (n > remaining()) return false;
    out->assign(bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

 private:
  /// Reads a little-endian Bits and bit-casts it to `*v`.
  template <typename Bits, typename T>
  bool ReadLe(T* v) {
    if (sizeof(Bits) > remaining()) return false;
    *v = std::bit_cast<T>(LoadLe<Bits>(bytes_.data() + pos_));
    pos_ += sizeof(Bits);
    return true;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

/// \brief Writes a file whole or not at all. Bytes go to `path.tmp`, and
/// Commit closes it and renames it over `path`, so a reader of `path` sees
/// the previous file or the new one, never a prefix. Destroyed before
/// Commit, it removes the temp. Append and Commit need a successful Open.
class AtomicFile {
 public:
  AtomicFile() = default;
  ~AtomicFile();

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  /// Creates (or truncates) `path.tmp` for writing.
  Status Open(const std::string& path);
  Status Append(std::string_view bytes);
  /// Closes the temp and renames it over the path given to Open.
  Status Commit();

  /// Open, Append and Commit in one call.
  static Status Write(const std::string& path, std::string_view bytes);

 private:
  std::string path_;
  std::string tmp_;
  std::FILE* file_ = nullptr;
};

/// Reads the whole file at `path` into `*out`.
Status ReadFileToString(const std::string& path, std::string* out);

}  // namespace retina

#endif  // RETINA_COMMON_BYTES_H_
