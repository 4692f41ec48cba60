#include "serve/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "serve/protocol.h"

namespace retina::serve {

namespace {

Result<int> ConnectUnix(const std::string& path) {
  struct sockaddr_un addr;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status st = Status::IOError("connect " + path +
                                      " failed: " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  return fd;
}

Result<int> ConnectTcp(const std::string& host, const std::string& port) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  const int gai = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
  if (gai != 0) {
    return Status::InvalidArgument("cannot resolve tcp:" + host + ":" + port +
                                   ": " + ::gai_strerror(gai));
  }
  Status st = Status::IOError("no usable address for tcp:" + host + ":" + port);
  int fd = -1;
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      // Frames are whole messages; don't let Nagle sit on them.
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      st = Status::OK();
      break;
    }
    st = Status::IOError("connect tcp:" + host + ":" + port +
                         " failed: " + std::strerror(errno));
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (!st.ok()) return st;
  return fd;
}

}  // namespace

std::string Target::Describe() const {
  return tcp ? "tcp:" + host + ":" + port : "unix:" + path;
}

bool ParseTarget(const std::string& uri, Target* target) {
  if (uri.rfind("unix:", 0) == 0) {
    target->tcp = false;
    target->path = uri.substr(5);
    return !target->path.empty();
  }
  if (uri.rfind("tcp:", 0) == 0) {
    const std::string rest = uri.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos) return false;
    target->tcp = true;
    target->host = rest.substr(0, colon);
    target->port = rest.substr(colon + 1);
    if (target->host.empty()) target->host = "127.0.0.1";
    return !target->port.empty();
  }
  target->tcp = false;
  target->path = uri;
  return !target->path.empty();
}

Result<int> Connect(const Target& target) {
  return target.tcp ? ConnectTcp(target.host, target.port)
                    : ConnectUnix(target.path);
}

Status QueryMetrics(const Target& target, uint64_t request_id,
                    obs::RegistrySnapshot* snapshot) {
  auto fd_result = Connect(target);
  if (!fd_result.ok()) return fd_result.status();
  const int fd = fd_result.ValueOrDie();
  MetricsRequest req;
  req.request_id = request_id;
  Status st = WriteFrame(fd, EncodeMetricsRequest(req));
  if (st.ok()) {
    std::string payload;
    bool eof = false;
    st = ReadFrame(fd, &payload, &eof);
    if (st.ok() && eof) st = Status::IOError("server closed during metrics");
    MetricsResponse resp;
    if (st.ok()) st = DecodeMetricsResponse(payload, &resp);
    if (st.ok()) *snapshot = std::move(resp.snapshot);
  }
  ::close(fd);
  return st;
}

}  // namespace retina::serve
