// retina_serve — the serving daemon.
//
//   retina_serve --data DIR --model DIR [--socket PATH] [--listen HOST:PORT]
//                [--workers N] [--queue-capacity N]
//                [--coalesce-max-batch N]
//                [--metrics-out FILE] [--trace-out FILE] [--prom-out FILE]
//                [--metrics-tick N] [--log-level LEVEL] [--simd BACKEND]
//
// Loads the world and the scoring bundle once, then serves score
// requests over the Unix-domain socket and/or a TCP listener (same
// frame protocol on both; at least one transport is required) until
// SIGTERM/SIGINT, at which point it drains gracefully (stop accepting,
// answer everything admitted) and writes the observability exports
// before exiting 0. With --listen HOST:0 the kernel picks the port;
// the bound port is printed on the "serving on" stdout line so
// harnesses can parse it.

#include <cstdio>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "common/run_export.h"
#include "common/simd.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "serve/handler.h"
#include "serve/server.h"

namespace {

using namespace retina;

/// Cap on --workers: each one is a scoring engine and a pool thread.
constexpr size_t kMaxWorkers = 256;

struct Args {
  std::string data;
  std::string model;
  std::string socket;
  std::string listen;
  std::string metrics_out;
  std::string trace_out;
  std::string prom_out;
  std::string log_level;
  std::string simd;
  size_t workers = 4;
  size_t queue_capacity = 256;
  size_t coalesce_max_batch = 16;
  size_t metrics_tick = 64;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: retina_serve --data DIR --model DIR"
      " (--socket PATH | --listen HOST:PORT)\n"
      "  --data DIR            world CSV directory (retina generate)\n"
      "  --model DIR           scoring bundle (train-retweet --save-model)\n"
      "  --socket PATH         Unix-domain socket to listen on\n"
      "  --listen HOST:PORT    TCP listen address (port 0 = kernel picks;\n"
      "                        the bound port is printed on startup).\n"
      "                        May be combined with --socket; at least one\n"
      "                        transport is required\n"
      "  --workers N           scoring workers / engines, 1-256 (default 4)\n"
      "  --queue-capacity N    admission queue capacity; requests beyond\n"
      "                        it are shed with a kShed reply (default 256)\n"
      "  --coalesce-max-batch N  max same-tweet requests fused into one\n"
      "                        batched handler call; 1 disables coalescing\n"
      "                        (default 16)\n"
      "  --metrics-out FILE    dump the obs registry as JSON on drain\n"
      "  --trace-out FILE      record a timeline trace for the whole run\n"
      "  --prom-out FILE       refresh a Prometheus text exposition of the\n"
      "                        registry on the metrics cadence (atomic\n"
      "                        rename; scrape-safe while serving)\n"
      "  --metrics-tick N      handled requests per metrics cadence tick:\n"
      "                        window rotation, process-gauge sampling,\n"
      "                        prom refresh (default 64; 0 disables)\n"
      "  --log-level LEVEL     stderr log threshold: debug|info|warn|error\n"
      "  --simd BACKEND        kernel dispatch: auto|avx2|neon|scalar\n");
  return 2;
}

/// One-line Status rejection for unknown flags — same contract as the CLI.
int UnknownFlag(const std::string& arg) {
  std::fprintf(stderr, "%s\n",
               Status::InvalidArgument("unknown flag '" + arg +
                                       "' (run 'retina_serve' for usage)")
                   .ToString()
                   .c_str());
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, int* rc) {
  *rc = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto take = [&](const char* name, std::string* out) -> bool {
      if (arg == name) {
        const char* v = next();
        if (v == nullptr) return false;
        *out = v;
        return true;
      }
      const std::string prefix = std::string(name) + "=";
      if (arg.rfind(prefix, 0) == 0) {
        *out = arg.substr(prefix.size());
        return true;
      }
      return false;
    };
    if (take("--data", &args->data) || take("--model", &args->model) ||
        take("--socket", &args->socket) || take("--listen", &args->listen) ||
        take("--metrics-out", &args->metrics_out) ||
        take("--trace-out", &args->trace_out) ||
        take("--prom-out", &args->prom_out) ||
        take("--log-level", &args->log_level) ||
        take("--simd", &args->simd)) {
      continue;
    }
    // Numeric flags parse strictly, and a bad value stops the daemon
    // before anything loads: each worker is an engine and a pool thread.
    Status number;
    const auto numeric = [&](const char* name, size_t lo, size_t hi,
                             size_t* out) {
      std::string value;
      if (!take(name, &value)) return false;
      number = ParseNumberFlag(name, value, lo, hi, out);
      return true;
    };
    if (numeric("--metrics-tick", 0, 1000000, &args->metrics_tick) ||
        numeric("--workers", 1, kMaxWorkers, &args->workers) ||
        numeric("--queue-capacity", 1, 1000000, &args->queue_capacity) ||
        numeric("--coalesce-max-batch", 1, 4096,
                &args->coalesce_max_batch)) {
      if (number.ok()) continue;
      std::fprintf(stderr, "%s\n", number.ToString().c_str());
      *rc = 2;
      return false;
    }
    *rc = UnknownFlag(arg);
    return false;
  }
  if (args->data.empty() || args->model.empty() ||
      (args->socket.empty() && args->listen.empty())) {
    *rc = Usage();
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  int rc = 0;
  if (!ParseArgs(argc, argv, &args, &rc)) return rc;
  if (!args.log_level.empty()) {
    retina::LogLevel level;
    if (!retina::ParseLogLevel(args.log_level, &level)) {
      std::fprintf(stderr, "bad --log-level: %s (want debug|info|warn|error)\n",
                   args.log_level.c_str());
      return 2;
    }
    retina::SetLogLevel(level);
  }
  if (!args.simd.empty()) {
    simd::Backend backend;
    if (!simd::ParseBackend(args.simd, &backend)) {
      std::fprintf(stderr, "bad --simd: %s (want auto|avx2|neon|scalar)\n",
                   args.simd.c_str());
      return 2;
    }
    const Status forced = simd::ForceBackend(backend);
    if (!forced.ok()) {
      std::fprintf(stderr, "--simd=%s: %s\n", args.simd.c_str(),
                   forced.ToString().c_str());
      return 2;
    }
  }
  if (!args.trace_out.empty()) obs::StartTracing();

  Stopwatch load_timer;
  serve::RequestHandlerOptions hopts;
  hopts.num_workers = args.workers;
  auto handler_result =
      serve::RequestHandler::Open(args.data, args.model, hopts);
  if (!handler_result.ok()) {
    std::fprintf(stderr, "%s\n",
                 handler_result.status().ToString().c_str());
    return 1;
  }
  auto handler = std::move(handler_result).ValueOrDie();
  std::printf("loaded %s over %s (%.1fs): %zu tweets, %zu users\n",
              args.model.c_str(), args.data.c_str(),
              load_timer.ElapsedSeconds(), handler->world().tweets().size(),
              handler->world().NumUsers());

  serve::ServerOptions sopts;
  sopts.socket_path = args.socket;
  sopts.listen_address = args.listen;
  sopts.queue_capacity = args.queue_capacity;
  sopts.coalesce_max_batch = args.coalesce_max_batch;
  sopts.install_signal_handler = true;
  sopts.metrics_tick_requests = args.metrics_tick;
  sopts.prom_out = args.prom_out;
  serve::Server server(handler.get(), sopts);
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::string transports;
  if (!args.socket.empty()) transports = args.socket;
  if (!args.listen.empty()) {
    if (!transports.empty()) transports += " + ";
    // Print the bound port, not the requested one: --listen HOST:0 asks
    // the kernel, and harnesses parse this line to find the port.
    transports += "tcp port " + std::to_string(server.tcp_port());
  }
  std::printf("serving on %s (%zu workers, queue capacity %zu); "
              "SIGTERM drains\n",
              transports.c_str(), handler->num_workers(),
              args.queue_capacity);
  std::fflush(stdout);

  st = server.Wait();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const Status metrics_st = obs::ExportMetricsJson(args.metrics_out);
  if (!metrics_st.ok()) {
    std::fprintf(stderr, "%s\n", metrics_st.ToString().c_str());
    return 1;
  }
  const Status trace_st = obs::ExportChromeTrace(args.trace_out);
  if (!trace_st.ok()) {
    std::fprintf(stderr, "%s\n", trace_st.ToString().c_str());
    return 1;
  }
  return 0;
}
