#include "io/checkpoint.h"

#include <bit>
#include <cstdio>
#include <cstring>

namespace retina::io {
namespace {

// FNV-1a 64-bit over a byte range.
uint64_t Fnv1a(const char* data, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendI64(std::string* out, int64_t v) {
  AppendU64(out, static_cast<uint64_t>(v));
}

void AppendF64(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

void AppendBytes(std::string* out, const std::string& s) {
  AppendU64(out, s.size());
  out->append(s);
}

/// Bounds-checked little-endian reader over a byte string.
class Reader {
 public:
  Reader(const std::string& bytes, size_t pos, size_t end)
      : bytes_(bytes), pos_(pos), end_(end) {}

  size_t pos() const { return pos_; }

  Status ReadU8(uint8_t* out) {
    if (pos_ + 1 > end_) return Truncated();
    *out = static_cast<uint8_t>(bytes_[pos_++]);
    return Status::OK();
  }

  Status ReadU32(uint32_t* out) {
    if (pos_ + 4 > end_) return Truncated();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  Status ReadU64(uint64_t* out) {
    if (pos_ + 8 > end_) return Truncated();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return Status::OK();
  }

  Status ReadI64(int64_t* out) {
    uint64_t v;
    RETINA_RETURN_NOT_OK(ReadU64(&v));
    *out = static_cast<int64_t>(v);
    return Status::OK();
  }

  Status ReadF64(double* out) {
    uint64_t bits;
    RETINA_RETURN_NOT_OK(ReadU64(&bits));
    std::memcpy(out, &bits, sizeof(bits));
    return Status::OK();
  }

  Status Skip(size_t n) {
    if (n > end_ - pos_) return Truncated();
    pos_ += n;
    return Status::OK();
  }

  /// Reads a u64 length prefix followed by that many raw bytes.
  Status ReadBytes(std::string* out) {
    uint64_t n = 0;
    RETINA_RETURN_NOT_OK(ReadU64(&n));
    if (n > end_ - pos_) return Truncated();
    out->assign(bytes_, pos_, n);
    pos_ += n;
    return Status::OK();
  }

  /// Guards multiplication-based allocations against hostile sizes.
  Status CheckRoom(uint64_t count, uint64_t elem_size) {
    const uint64_t room = end_ - pos_;
    if (elem_size != 0 && count > room / elem_size) return Truncated();
    return Status::OK();
  }

 private:
  static Status Truncated() {
    return Status::IOError("corrupt checkpoint: truncated entry data");
  }

  const std::string& bytes_;
  size_t pos_;
  size_t end_;
};

}  // namespace

const char* EntryTypeName(EntryType type) {
  switch (type) {
    case EntryType::kTensor: return "tensor";
    case EntryType::kI64List: return "i64-list";
    case EntryType::kString: return "string";
    case EntryType::kStringList: return "string-list";
    case EntryType::kF64: return "f64";
    case EntryType::kI64: return "i64";
  }
  return "unknown";
}

void Checkpoint::PutTensor(const std::string& name, const Matrix& value) {
  Entry& e = entries_[name];
  e = Entry{};
  e.type = EntryType::kTensor;
  e.tensor = value;
}

void Checkpoint::PutVec(const std::string& name, const Vec& value) {
  Matrix m(1, value.size());
  m.data().assign(value.begin(), value.end());
  PutTensor(name, m);
}

void Checkpoint::PutI64List(const std::string& name,
                            std::vector<int64_t> value) {
  Entry& e = entries_[name];
  e = Entry{};
  e.type = EntryType::kI64List;
  e.i64s = std::move(value);
}

void Checkpoint::PutString(const std::string& name, std::string value) {
  Entry& e = entries_[name];
  e = Entry{};
  e.type = EntryType::kString;
  e.str = std::move(value);
}

void Checkpoint::PutStringList(const std::string& name,
                               std::vector<std::string> value) {
  Entry& e = entries_[name];
  e = Entry{};
  e.type = EntryType::kStringList;
  e.strs = std::move(value);
}

void Checkpoint::PutF64(const std::string& name, double value) {
  Entry& e = entries_[name];
  e = Entry{};
  e.type = EntryType::kF64;
  e.f64 = value;
}

void Checkpoint::PutI64(const std::string& name, int64_t value) {
  Entry& e = entries_[name];
  e = Entry{};
  e.type = EntryType::kI64;
  e.i64 = value;
}

const Checkpoint::Entry* Checkpoint::FindTyped(const std::string& name,
                                               EntryType type,
                                               Status* error) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    *error = Status::NotFound("checkpoint entry not found: " + name);
    return nullptr;
  }
  if (it->second.type != type) {
    *error = Status::InvalidArgument(
        "checkpoint entry " + name + " is " +
        EntryTypeName(it->second.type) + ", expected " + EntryTypeName(type));
    return nullptr;
  }
  return &it->second;
}

Status Checkpoint::GetTensor(const std::string& name, Matrix* out) const {
  Status error;
  const Entry* e = FindTyped(name, EntryType::kTensor, &error);
  if (e == nullptr) return error;
  *out = e->tensor;
  return Status::OK();
}

Status Checkpoint::GetVec(const std::string& name, Vec* out) const {
  Status error;
  const Entry* e = FindTyped(name, EntryType::kTensor, &error);
  if (e == nullptr) return error;
  out->assign(e->tensor.data().begin(), e->tensor.data().end());
  return Status::OK();
}

Status Checkpoint::GetI64List(const std::string& name,
                              std::vector<int64_t>* out) const {
  Status error;
  const Entry* e = FindTyped(name, EntryType::kI64List, &error);
  if (e == nullptr) return error;
  *out = e->i64s;
  return Status::OK();
}

Status Checkpoint::GetString(const std::string& name,
                             std::string* out) const {
  Status error;
  const Entry* e = FindTyped(name, EntryType::kString, &error);
  if (e == nullptr) return error;
  *out = e->str;
  return Status::OK();
}

Status Checkpoint::GetStringList(const std::string& name,
                                 std::vector<std::string>* out) const {
  Status error;
  const Entry* e = FindTyped(name, EntryType::kStringList, &error);
  if (e == nullptr) return error;
  *out = e->strs;
  return Status::OK();
}

Status Checkpoint::GetF64(const std::string& name, double* out) const {
  Status error;
  const Entry* e = FindTyped(name, EntryType::kF64, &error);
  if (e == nullptr) return error;
  *out = e->f64;
  return Status::OK();
}

Status Checkpoint::GetI64(const std::string& name, int64_t* out) const {
  Status error;
  const Entry* e = FindTyped(name, EntryType::kI64, &error);
  if (e == nullptr) return error;
  *out = e->i64;
  return Status::OK();
}

Status Checkpoint::GetBool(const std::string& name, bool* out) const {
  int64_t v = 0;
  RETINA_RETURN_NOT_OK(GetI64(name, &v));
  *out = v != 0;
  return Status::OK();
}

std::vector<std::string> Checkpoint::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

std::string Checkpoint::SerializeToBytes() const {
  std::string out;
  out.append(kCheckpointMagic, sizeof(kCheckpointMagic));
  AppendU32(&out, kCheckpointVersion);
  AppendU8(&out, std::endian::native == std::endian::little ? 1 : 2);
  out.append(3, '\0');  // reserved
  AppendU64(&out, entries_.size());
  for (const auto& [name, e] : entries_) {
    AppendU32(&out, static_cast<uint32_t>(name.size()));
    out.append(name);
    AppendU8(&out, static_cast<uint8_t>(e.type));
    switch (e.type) {
      case EntryType::kTensor:
        AppendU64(&out, e.tensor.rows());
        AppendU64(&out, e.tensor.cols());
        for (double v : e.tensor.data()) AppendF64(&out, v);
        break;
      case EntryType::kI64List:
        AppendU64(&out, e.i64s.size());
        for (int64_t v : e.i64s) AppendI64(&out, v);
        break;
      case EntryType::kString:
        AppendBytes(&out, e.str);
        break;
      case EntryType::kStringList:
        AppendU64(&out, e.strs.size());
        for (const std::string& s : e.strs) AppendBytes(&out, s);
        break;
      case EntryType::kF64:
        AppendF64(&out, e.f64);
        break;
      case EntryType::kI64:
        AppendI64(&out, e.i64);
        break;
    }
  }
  AppendU64(&out, Fnv1a(out.data(), out.size()));
  return out;
}

Result<Checkpoint> Checkpoint::DeserializeFromBytes(
    const std::string& bytes) {
  constexpr size_t kHeaderSize = 8 + 4 + 1 + 3 + 8;
  constexpr size_t kChecksumSize = 8;
  if (bytes.size() < kHeaderSize + kChecksumSize) {
    return Status::IOError("corrupt checkpoint: file too small");
  }
  if (std::memcmp(bytes.data(), kCheckpointMagic,
                  sizeof(kCheckpointMagic)) != 0) {
    return Status::IOError("corrupt checkpoint: bad magic");
  }

  const size_t body_end = bytes.size() - kChecksumSize;
  Reader reader(bytes, sizeof(kCheckpointMagic), bytes.size());
  uint32_t version = 0;
  RETINA_RETURN_NOT_OK(reader.ReadU32(&version));
  if (version != kCheckpointVersion) {
    return Status::IOError("unsupported checkpoint version " +
                           std::to_string(version) + " (expected " +
                           std::to_string(kCheckpointVersion) + ")");
  }
  uint8_t endian_tag = 0;
  RETINA_RETURN_NOT_OK(reader.ReadU8(&endian_tag));
  const uint8_t host_tag =
      std::endian::native == std::endian::little ? 1 : 2;
  if (endian_tag != host_tag) {
    return Status::IOError(
        "checkpoint endianness mismatch: file tag " +
        std::to_string(endian_tag) + ", host tag " +
        std::to_string(host_tag));
  }

  {
    Reader tail(bytes, body_end, bytes.size());
    uint64_t stored = 0;
    RETINA_RETURN_NOT_OK(tail.ReadU64(&stored));
    const uint64_t actual = Fnv1a(bytes.data(), body_end);
    if (stored != actual) {
      return Status::IOError("corrupt checkpoint: checksum mismatch");
    }
  }

  Reader body(bytes, kHeaderSize - 8, body_end);
  uint64_t count = 0;
  RETINA_RETURN_NOT_OK(body.ReadU64(&count));
  Checkpoint ckpt;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    RETINA_RETURN_NOT_OK(body.ReadU32(&name_len));
    if (name_len > body_end - body.pos()) {
      return Status::IOError("corrupt checkpoint: truncated entry name");
    }
    const std::string name = bytes.substr(body.pos(), name_len);
    RETINA_RETURN_NOT_OK(body.Skip(name_len));
    uint8_t raw_type = 0;
    RETINA_RETURN_NOT_OK(body.ReadU8(&raw_type));
    Entry e;
    e.type = static_cast<EntryType>(raw_type);
    switch (e.type) {
      case EntryType::kTensor: {
        uint64_t rows = 0, cols = 0;
        RETINA_RETURN_NOT_OK(body.ReadU64(&rows));
        RETINA_RETURN_NOT_OK(body.ReadU64(&cols));
        if (rows != 0 && cols > UINT64_MAX / rows) {
          return Status::IOError("corrupt checkpoint: tensor too large");
        }
        RETINA_RETURN_NOT_OK(body.CheckRoom(rows * cols, 8));
        e.tensor = Matrix(rows, cols);
        for (double& v : e.tensor.data()) {
          RETINA_RETURN_NOT_OK(body.ReadF64(&v));
        }
        break;
      }
      case EntryType::kI64List: {
        uint64_t n = 0;
        RETINA_RETURN_NOT_OK(body.ReadU64(&n));
        RETINA_RETURN_NOT_OK(body.CheckRoom(n, 8));
        e.i64s.resize(n);
        for (int64_t& v : e.i64s) {
          RETINA_RETURN_NOT_OK(body.ReadI64(&v));
        }
        break;
      }
      case EntryType::kString:
        RETINA_RETURN_NOT_OK(body.ReadBytes(&e.str));
        break;
      case EntryType::kStringList: {
        uint64_t n = 0;
        RETINA_RETURN_NOT_OK(body.ReadU64(&n));
        RETINA_RETURN_NOT_OK(body.CheckRoom(n, 8));
        e.strs.resize(n);
        for (std::string& s : e.strs) {
          RETINA_RETURN_NOT_OK(body.ReadBytes(&s));
        }
        break;
      }
      case EntryType::kF64:
        RETINA_RETURN_NOT_OK(body.ReadF64(&e.f64));
        break;
      case EntryType::kI64:
        RETINA_RETURN_NOT_OK(body.ReadI64(&e.i64));
        break;
      default:
        return Status::IOError(
            "corrupt checkpoint: unknown entry type " +
            std::to_string(raw_type) + " for entry " + name);
    }
    ckpt.entries_[name] = std::move(e);
  }
  if (body.pos() != body_end) {
    return Status::IOError("corrupt checkpoint: trailing bytes after table");
  }
  return ckpt;
}

Status Checkpoint::WriteFile(const std::string& path) const {
  const std::string bytes = SerializeToBytes();
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open for writing: " + tmp);
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != bytes.size() || !close_ok) {
    std::remove(tmp.c_str());
    return Status::IOError("short write: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Result<Checkpoint> Checkpoint::ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open checkpoint: " + path);
  }
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IOError("read error on checkpoint: " + path);
  }
  auto result = DeserializeFromBytes(bytes);
  if (!result.ok()) {
    return Status::IOError(result.status().message() + " (" + path + ")");
  }
  return result;
}

}  // namespace retina::io
