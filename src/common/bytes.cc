#include "common/bytes.h"

namespace retina {

uint64_t Fnv1a64(const void* data, size_t n, uint64_t basis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = basis;
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

AtomicFile::~AtomicFile() {
  if (file_ == nullptr) return;
  std::fclose(file_);
  std::remove(tmp_.c_str());
}

Status AtomicFile::Open(const std::string& path) {
  path_ = path;
  tmp_ = path + ".tmp";
  file_ = std::fopen(tmp_.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::IOError("cannot open for writing: " + tmp_);
  }
  return Status::OK();
}

Status AtomicFile::Append(std::string_view bytes) {
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    return Status::IOError("short write: " + tmp_);
  }
  return Status::OK();
}

Status AtomicFile::Commit() {
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  if (!closed) {
    std::remove(tmp_.c_str());
    return Status::IOError("short write: " + tmp_);
  }
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_.c_str());
    return Status::IOError("cannot rename " + tmp_ + " to " + path_);
  }
  return Status::OK();
}

Status AtomicFile::Write(const std::string& path, std::string_view bytes) {
  AtomicFile file;
  RETINA_RETURN_NOT_OK(file.Open(path));
  RETINA_RETURN_NOT_OK(file.Append(bytes));
  return file.Commit();
}

Status ReadFileToString(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  out->clear();
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::IOError("read error on " + path);
  return Status::OK();
}

}  // namespace retina
