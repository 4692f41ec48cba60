// retina::serve client side: where to connect, how to connect, and the
// kMetrics round trip — the pieces every retina_serve client shares
// (tools/load_driver and tools/retina_top).

#ifndef RETINA_SERVE_CLIENT_H_
#define RETINA_SERVE_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/obs.h"
#include "common/status.h"

namespace retina::serve {

/// Where to connect: a Unix-domain socket path or a TCP host:port.
struct Target {
  bool tcp = false;
  std::string path;  ///< unix socket path (tcp == false)
  std::string host;  ///< tcp host (tcp == true)
  std::string port;  ///< tcp port (tcp == true)

  /// "unix:PATH" or "tcp:HOST:PORT".
  std::string Describe() const;
};

/// Parses "unix:PATH", "tcp:HOST:PORT" (an empty host means 127.0.0.1), or
/// a bare filesystem path (treated as unix:). False on an empty path or
/// port, or a tcp: form without a colon.
bool ParseTarget(const std::string& uri, Target* target);

/// Opens a stream connection to `target`; TCP connections get TCP_NODELAY
/// (frames are whole messages). The caller owns and closes the fd.
Result<int> Connect(const Target& target);

/// One kMetrics round trip on a fresh connection: the daemon's registry
/// snapshot, with the handler's facts (handler.num_tweets, ...) among the
/// gauges. A fresh connection per query can never wedge a daemon reader.
Status QueryMetrics(const Target& target, uint64_t request_id,
                    obs::RegistrySnapshot* snapshot);

/// `key` from one section (counters or gauges) of a metrics snapshot, or
/// `fallback` when the daemon did not report it.
template <typename Section>
uint64_t ValueOr(const Section& section, const std::string& key,
                 uint64_t fallback) {
  const auto it = section.find(key);
  return it == section.end() ? fallback : static_cast<uint64_t>(it->second);
}

}  // namespace retina::serve

#endif  // RETINA_SERVE_CLIENT_H_
