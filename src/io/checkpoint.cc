#include "io/checkpoint.h"

#include <cstring>

#include "common/bytes.h"

namespace retina::io {
namespace {

Status Truncated() {
  return Status::IOError("corrupt checkpoint: truncated entry data");
}

void PutBytes(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

/// Reads a u64 length prefix followed by that many raw bytes.
bool ReadBytes(ByteReader* in, std::string* out) {
  uint64_t n = 0;
  return in->ReadU64(&n) && in->ReadBytes(n, out);
}

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
  // retina::PutF64/PutI64 are the byte appenders; the unqualified names
  // are this class's entry setters.
  std::string out;
  out.append(kCheckpointMagic, sizeof(kCheckpointMagic));
  PutU32(&out, kCheckpointVersion);
  PutU8(&out, HostEndianTag());
  out.append(3, '\0');  // reserved
  PutU64(&out, entries_.size());
  for (const auto& [name, e] : entries_) {
    PutU32(&out, static_cast<uint32_t>(name.size()));
    out.append(name);
    PutU8(&out, static_cast<uint8_t>(e.type));
    switch (e.type) {
      case EntryType::kTensor:
        PutU64(&out, e.tensor.rows());
        PutU64(&out, e.tensor.cols());
        for (double v : e.tensor.data()) retina::PutF64(&out, v);
        break;
      case EntryType::kI64List:
        PutU64(&out, e.i64s.size());
        for (int64_t v : e.i64s) retina::PutI64(&out, v);
        break;
      case EntryType::kString:
        PutBytes(&out, e.str);
        break;
      case EntryType::kStringList:
        PutU64(&out, e.strs.size());
        for (const std::string& s : e.strs) PutBytes(&out, s);
        break;
      case EntryType::kF64:
        retina::PutF64(&out, e.f64);
        break;
      case EntryType::kI64:
        retina::PutI64(&out, e.i64);
        break;
    }
  }
  PutU64(&out, Fnv1a64(out.data(), out.size(), kChecksumBasis));
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

  const uint32_t version = LoadLe32(bytes.data() + 8);
  if (version != kCheckpointVersion) {
    return Status::IOError("unsupported checkpoint version " +
                           std::to_string(version) + " (expected " +
                           std::to_string(kCheckpointVersion) + ")");
  }
  const uint8_t endian_tag = static_cast<uint8_t>(bytes[12]);
  if (endian_tag != HostEndianTag()) {
    return Status::IOError(
        "checkpoint endianness mismatch: file tag " +
        std::to_string(endian_tag) + ", host tag " +
        std::to_string(HostEndianTag()));
  }

  const size_t body_end = bytes.size() - kChecksumSize;
  if (LoadLe64(bytes.data() + body_end) !=
      Fnv1a64(bytes.data(), body_end, kChecksumBasis)) {
    return Status::IOError("corrupt checkpoint: checksum mismatch");
  }

  ByteReader body(std::string_view(bytes).substr(
      kHeaderSize - 8, body_end - (kHeaderSize - 8)));
  uint64_t count = 0;
  if (!body.ReadU64(&count)) return Truncated();
  Checkpoint ckpt;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    if (!body.ReadU32(&name_len)) return Truncated();
    std::string name;
    if (!body.ReadBytes(name_len, &name)) {
      return Status::IOError("corrupt checkpoint: truncated entry name");
    }
    uint8_t raw_type = 0;
    if (!body.ReadU8(&raw_type)) return Truncated();
    Entry e;
    e.type = static_cast<EntryType>(raw_type);
    switch (e.type) {
      case EntryType::kTensor: {
        uint64_t rows = 0, cols = 0;
        if (!body.ReadU64(&rows) || !body.ReadU64(&cols)) return Truncated();
        if (rows != 0 && cols > UINT64_MAX / rows) {
          return Status::IOError("corrupt checkpoint: tensor too large");
        }
        if (!body.Fits(rows * cols, 8)) return Truncated();
        e.tensor = Matrix(rows, cols);
        for (double& v : e.tensor.data()) {
          if (!body.ReadF64(&v)) return Truncated();
        }
        break;
      }
      case EntryType::kI64List: {
        uint64_t n = 0;
        if (!body.ReadU64(&n) || !body.Fits(n, 8)) return Truncated();
        e.i64s.resize(n);
        for (int64_t& v : e.i64s) {
          if (!body.ReadI64(&v)) return Truncated();
        }
        break;
      }
      case EntryType::kString:
        if (!ReadBytes(&body, &e.str)) return Truncated();
        break;
      case EntryType::kStringList: {
        uint64_t n = 0;
        if (!body.ReadU64(&n) || !body.Fits(n, 8)) return Truncated();
        e.strs.resize(n);
        for (std::string& s : e.strs) {
          if (!ReadBytes(&body, &s)) return Truncated();
        }
        break;
      }
      case EntryType::kF64:
        if (!body.ReadF64(&e.f64)) return Truncated();
        break;
      case EntryType::kI64:
        if (!body.ReadI64(&e.i64)) return Truncated();
        break;
      default:
        return Status::IOError(
            "corrupt checkpoint: unknown entry type " +
            std::to_string(raw_type) + " for entry " + name);
    }
    ckpt.entries_[name] = std::move(e);
  }
  if (!body.AtEnd()) {
    return Status::IOError("corrupt checkpoint: trailing bytes after table");
  }
  return ckpt;
}

Status Checkpoint::WriteFile(const std::string& path) const {
  return AtomicFile::Write(path, SerializeToBytes());
}

Result<Checkpoint> Checkpoint::ReadFile(const std::string& path) {
  std::string bytes;
  const Status read = ReadFileToString(path, &bytes);
  if (!read.ok()) {
    return Status::IOError("cannot read checkpoint: " + read.message());
  }
  auto result = DeserializeFromBytes(bytes);
  if (!result.ok()) {
    return Status::IOError(result.status().message() + " (" + path + ")");
  }
  return result;
}

}  // namespace retina::io
