#include "common/run_export.h"

#include <cstdio>

#include "common/bytes.h"
#include "common/obs.h"
#include "common/simd.h"
#include "common/trace.h"

namespace retina::obs {

namespace {

Status WriteWholeFile(const std::string& path, const std::string& body) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != body.size() || !closed) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

}  // namespace

Status ExportMetricsJson(const std::string& path, bool print_summary) {
  if (path.empty()) return Status::OK();
  Registry& reg = Registry::Global();
  reg.SampleProcessGauges();     // process.peak_rss_bytes at export time
  simd::PublishDispatchGauge();  // survives any Registry::Reset()
  RETINA_RETURN_NOT_OK(WriteWholeFile(path, reg.ToJson()));
  if (print_summary) {
    const std::string table = reg.SummaryTable();
    if (!table.empty()) std::printf("\n%s", table.c_str());
    std::printf("metrics written to %s\n", path.c_str());
  }
  return Status::OK();
}

Status ExportPrometheus(const std::string& path) {
  if (path.empty()) return Status::OK();
  // Write-then-rename keeps the published file whole at every instant: a
  // scraper opening `path` sees either the previous exposition or the new
  // one, never a prefix.
  return AtomicFile::Write(path, Registry::Global().ToPrometheus());
}

Status ExportChromeTrace(const std::string& path, bool print_summary) {
  if (path.empty()) return Status::OK();
  StopTracing();
  RETINA_RETURN_NOT_OK(WriteWholeFile(path, TraceToChromeJson()));
  if (print_summary) {
    std::printf("trace written to %s (%zu events, %llu dropped)\n",
                path.c_str(), TraceBufferedEvents(),
                static_cast<unsigned long long>(TraceDroppedEvents()));
  }
  return Status::OK();
}

}  // namespace retina::obs
