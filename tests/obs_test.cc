// Tests for retina::obs: counter sharding under ParallelFor, histogram
// bucket boundaries and quantile extraction, span nesting and self-time
// attribution, JSON export round-trip through a real parser, the runtime
// kill switch, and the determinism pin — obs-enabled and obs-disabled runs
// of the same train + serve workload produce bit-identical outputs.
//
// The timeline tracer (common/trace.h) is covered at the bottom: Chrome
// trace JSON export through the same in-test parser, span parenting across
// ParallelFor's thread pool, bounded-buffer drop accounting, per-request
// trace ids through the ScoringEngine, and the tracing-on ≡ tracing-off
// bit-exactness pin. Instrument-behavior tests skip themselves when obs is
// compiled out (-DRETINA_OBS_DISABLED); the determinism pins still run.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/obs.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/feature_extractor.h"
#include "core/retina.h"
#include "core/retweet_task.h"
#include "core/scoring_engine.h"
#include "datagen/world.h"
#include "hatedetect/annotation.h"

namespace retina {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::Registry;
using obs::ScopeStats;
using obs::Series;
using obs::Span;

// Every test leaves obs enabled (the process default) so ordering between
// tests cannot leak a disabled switch.
class ObsEnabledGuard {
 public:
  ObsEnabledGuard() { obs::SetEnabled(true); }
  ~ObsEnabledGuard() { obs::SetEnabled(true); }
};

// Instrument-behavior tests for the gated instruments (histograms,
// windows, series, spans) assert that they record; under
// -DRETINA_OBS_DISABLED those are no-ops by design, so the tests skip.
// Counters and gauges count in every build, so their tests never skip.
#define SKIP_IF_OBS_COMPILED_OUT()                                    \
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs instrumentation compiled out"

// ------------------------------------------------------------- Counters --

TEST(CounterTest, AddAndGet) {
  ObsEnabledGuard guard;
  Counter c;
  EXPECT_EQ(c.Get(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Get(), 42u);
  c.Reset();
  EXPECT_EQ(c.Get(), 0u);
}

TEST(CounterTest, ExactUnderParallelFor) {
  ObsEnabledGuard guard;
  Counter c;
  constexpr size_t kIters = 20000;
  par::ParallelFor(kIters, 1, [&](size_t) { c.Add(1); });
  EXPECT_EQ(c.Get(), kIters);
  // Weighted adds shard the same way.
  par::ParallelFor(kIters, 1, [&](size_t i) { c.Add(i % 3); });
  uint64_t expect = kIters;
  for (size_t i = 0; i < kIters; ++i) expect += i % 3;
  EXPECT_EQ(c.Get(), expect);
}

TEST(CounterTest, CountsWhileDisabled) {
  // The kill switch gates clocks and spans, never counts.
  ObsEnabledGuard guard;
  Counter c;
  obs::SetEnabled(false);
  c.Add(100);
  obs::SetEnabled(true);
  EXPECT_EQ(c.Get(), 100u);
  c.Add(1);
  EXPECT_EQ(c.Get(), 101u);
}

// --------------------------------------------------------------- Gauges --

TEST(GaugeTest, SetAndUpdateMax) {
  ObsEnabledGuard guard;
  Gauge g;
  g.Set(7);
  EXPECT_EQ(g.Get(), 7);
  g.UpdateMax(3);  // lower: no change
  EXPECT_EQ(g.Get(), 7);
  g.UpdateMax(19);
  EXPECT_EQ(g.Get(), 19);
  // Gauges record with the kill switch off, like counters.
  obs::SetEnabled(false);
  g.Set(1000);
  g.UpdateMax(1001);
  obs::SetEnabled(true);
  EXPECT_EQ(g.Get(), 1001);
}

// ----------------------------------------------------------- Histograms --

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds {0}; bucket b >= 1 holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);

  for (size_t b = 1; b + 1 < Histogram::kBuckets; ++b) {
    const uint64_t lo = Histogram::BucketLowerBound(b);
    const uint64_t hi = Histogram::BucketUpperBound(b);
    EXPECT_EQ(lo, uint64_t{1} << (b - 1));
    EXPECT_EQ(hi, (uint64_t{1} << b) - 1);
    EXPECT_EQ(Histogram::BucketIndex(lo), b);
    EXPECT_EQ(Histogram::BucketIndex(hi), b);
  }
  // The top bucket absorbs everything representable.
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kBuckets - 1),
            ~uint64_t{0});
}

TEST(HistogramTest, CountsSumAndBuckets) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(5);
  h.Record(5);
  h.Record(1000);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 1011u);
  EXPECT_DOUBLE_EQ(h.Mean(), 1011.0 / 5.0);
  EXPECT_EQ(h.BucketCount(0), 1u);  // {0}
  EXPECT_EQ(h.BucketCount(1), 1u);  // {1}
  EXPECT_EQ(h.BucketCount(3), 2u);  // [4, 7]
  EXPECT_EQ(h.BucketCount(10), 1u);  // [512, 1023]
}

TEST(HistogramTest, QuantilesResolveToBucketUpperBound) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  Histogram h;
  // 90 samples in [8, 15] (bucket 4), 10 samples in [512, 1023] (bucket 10).
  for (int i = 0; i < 90; ++i) h.Record(10);
  for (int i = 0; i < 10; ++i) h.Record(1000);
  EXPECT_EQ(h.Quantile(0.0), 15u);
  EXPECT_EQ(h.Quantile(0.5), 15u);
  EXPECT_EQ(h.Quantile(0.9), 15u);
  EXPECT_EQ(h.Quantile(0.95), 1023u);
  EXPECT_EQ(h.Quantile(0.99), 1023u);
  EXPECT_EQ(h.Quantile(1.0), 1023u);
}

TEST(HistogramTest, EmptyQuantileIsZeroAndDisabledRecordsNothing) {
  ObsEnabledGuard guard;
  Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0u);
  obs::SetEnabled(false);
  h.Record(123);
  obs::SetEnabled(true);
  EXPECT_EQ(h.Count(), 0u);
}

TEST(HistogramTest, ExactUnderParallelFor) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  Histogram h;
  constexpr size_t kIters = 10000;
  par::ParallelFor(kIters, 1, [&](size_t i) { h.Record(i); });
  EXPECT_EQ(h.Count(), kIters);
  EXPECT_EQ(h.Sum(), kIters * (kIters - 1) / 2);
}

// ---------------------------------------------------------------- Spans --

TEST(SpanTest, NestingAttributesChildTimeToParentTotalOnly) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  Registry& reg = Registry::Global();
  ScopeStats* outer = reg.GetScope("obs_test.outer");
  ScopeStats* inner = reg.GetScope("obs_test.inner");
  outer->Reset();
  inner->Reset();
  {
    Span outer_span(outer);
    {
      Span inner_span(inner);
      volatile double sink = 0.0;
      for (int i = 0; i < 10000; ++i) sink = sink + std::sqrt(i);
    }
  }
  EXPECT_EQ(outer->count.load(), 1u);
  EXPECT_EQ(inner->count.load(), 1u);
  const uint64_t outer_total = outer->total_ns.load();
  const uint64_t outer_self = outer->self_ns.load();
  const uint64_t inner_total = inner->total_ns.load();
  EXPECT_EQ(inner->self_ns.load(), inner_total);  // leaf: self == total
  EXPECT_GE(outer_total, inner_total);
  // Same-thread nesting: the child's elapsed time is subtracted from the
  // parent's self time exactly.
  EXPECT_EQ(outer_self, outer_total - inner_total);
}

TEST(SpanTest, SiblingSpansBothSubtractFromParent) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  Registry& reg = Registry::Global();
  ScopeStats* outer = reg.GetScope("obs_test.outer2");
  ScopeStats* child = reg.GetScope("obs_test.child2");
  outer->Reset();
  child->Reset();
  {
    Span outer_span(outer);
    for (int k = 0; k < 3; ++k) {
      Span child_span(child);
    }
  }
  EXPECT_EQ(child->count.load(), 3u);
  EXPECT_EQ(outer->self_ns.load(),
            outer->total_ns.load() - child->total_ns.load());
}

TEST(SpanTest, DisabledSpanRecordsNothing) {
  ObsEnabledGuard guard;
  Registry& reg = Registry::Global();
  ScopeStats* scope = reg.GetScope("obs_test.disabled");
  scope->Reset();
  obs::SetEnabled(false);
  {
    Span span(scope);
  }
  obs::SetEnabled(true);
  EXPECT_EQ(scope->count.load(), 0u);
  EXPECT_EQ(scope->total_ns.load(), 0u);
}

TEST(SpanTest, PerChunkSpansUnderParallelForNestPerThread) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  Registry& reg = Registry::Global();
  ScopeStats* scope = reg.GetScope("obs_test.chunk");
  scope->Reset();
  par::ParallelForChunks(1000, 10, [&](const par::ChunkRange& chunk) {
    Span span(scope);
    volatile size_t sink = 0;
    for (size_t i = chunk.begin; i < chunk.end; ++i) sink = sink + i;
  });
  EXPECT_EQ(scope->count.load(), par::MakeChunks(1000, 10).size());
  EXPECT_EQ(scope->self_ns.load(), scope->total_ns.load());
}

// --------------------------------------------------------------- Series --

TEST(SeriesTest, AppendsInOrderAndHonorsKillSwitch) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  Series s;
  s.Append(1.5);
  s.Append(-2.25);
  obs::SetEnabled(false);
  s.Append(99.0);
  obs::SetEnabled(true);
  const std::vector<double> values = s.Values();
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], 1.5);
  EXPECT_EQ(values[1], -2.25);
  s.Reset();
  EXPECT_EQ(s.Size(), 0u);
}

// ---------------------------------------------------- JSON export/parse --

// Minimal recursive-descent JSON parser — enough to round-trip the
// registry export and fail loudly on malformed output.
struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    EXPECT_TRUE(it != object.end()) << "missing key: " << key;
    static const JsonValue kEmpty;
    return it == object.end() ? kEmpty : it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = ParseValue(out);
    SkipWs();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        c = text_[pos_++];
        if (c == 'u') {
          pos_ += 4;
          c = '?';
        }
      }
      out->push_back(c);
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::kObject;
      SkipWs();
      if (Consume('}')) return true;
      for (;;) {
        std::string key;
        if (!ParseString(&key) || !Consume(':')) return false;
        if (!ParseValue(&out->object[key])) return false;
        if (Consume('}')) return true;
        if (!Consume(',')) return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::kArray;
      SkipWs();
      if (Consume(']')) return true;
      for (;;) {
        out->array.emplace_back();
        if (!ParseValue(&out->array.back())) return false;
        if (Consume(']')) return true;
        if (!Consume(',')) return false;
      }
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::kBool;
      out->b = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    // Number.
    size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) return false;
    out->kind = JsonValue::kNumber;
    out->num = std::stod(text_.substr(pos_, end - pos_));
    pos_ = end;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(RegistryTest, JsonExportRoundTrips) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  Registry& reg = Registry::Global();
  reg.GetCounter("obs_test.json_counter")->Reset();
  reg.GetCounter("obs_test.json_counter")->Add(42);
  reg.GetGauge("obs_test.json_gauge")->Set(-7);
  Histogram* h = reg.GetHistogram("obs_test.json_hist");
  h->Reset();
  h->Record(3);
  h->Record(300);
  Series* s = reg.GetSeries("obs_test.json_series");
  s->Reset();
  s->Append(0.125);
  s->Append(1e-9);

  const std::string json = reg.ToJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json;
  ASSERT_EQ(root.kind, JsonValue::kObject);

  EXPECT_EQ(root.at("enabled").b, true);
  EXPECT_EQ(root.at("counters").at("obs_test.json_counter").num, 42.0);
  EXPECT_EQ(root.at("gauges").at("obs_test.json_gauge").num, -7.0);

  const JsonValue& hist = root.at("histograms").at("obs_test.json_hist");
  EXPECT_EQ(hist.at("count").num, 2.0);
  EXPECT_EQ(hist.at("sum").num, 303.0);
  ASSERT_EQ(hist.at("buckets").array.size(), 2u);  // two non-empty buckets
  EXPECT_EQ(hist.at("buckets").array[0].array[0].num, 2.0);    // lo of [2,3]
  EXPECT_EQ(hist.at("buckets").array[1].array[0].num, 256.0);  // lo of 300

  const JsonValue& series = root.at("series").at("obs_test.json_series");
  ASSERT_EQ(series.array.size(), 2u);
  // %.17g preserves doubles exactly through the round-trip.
  EXPECT_EQ(series.array[0].num, 0.125);
  EXPECT_EQ(series.array[1].num, 1e-9);

  EXPECT_EQ(root.at("scopes").kind, JsonValue::kObject);
}

TEST(RegistryTest, PointersAreStableAndSummaryRenders) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  Registry& reg = Registry::Global();
  Counter* c1 = reg.GetCounter("obs_test.stable");
  Counter* c2 = reg.GetCounter("obs_test.stable");
  EXPECT_EQ(c1, c2);
  c1->Add(5);
  const std::string table = reg.SummaryTable();
  EXPECT_NE(table.find("obs_test.stable"), std::string::npos);
}

// ------------------------------------------- Windowed histograms --------

// Quantiles must pin to log2 bucket upper bounds exactly as the
// cumulative histogram's do, both before any rotation and across ticks.
TEST(WindowedHistogramTest, QuantilesPinToBucketUpperBoundsAcrossRotation) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  Registry& reg = Registry::Global();
  obs::WindowedHistogram* w = reg.GetWindowedHistogram("obs_test.win_rot");
  w->Reset();
  reg.GetHistogram("obs_test.win_rot")->Reset();

  for (int i = 0; i < 100; ++i) w->Record(3);  // bucket [2,3]
  obs::WindowSnapshot snap = w->SnapshotWindow();
  EXPECT_EQ(snap.ticks, 0u);
  EXPECT_EQ(snap.window.count, 100u);
  EXPECT_EQ(snap.window.sum, 300u);
  EXPECT_EQ(snap.window.p50, 3u);
  EXPECT_EQ(snap.window.p99, 3u);

  w->Tick();
  for (int i = 0; i < 100; ++i) w->Record(300);  // bucket [256,511]

  // Last slot only: the post-tick recordings.
  snap = w->SnapshotWindow(1);
  EXPECT_EQ(snap.slots, 1u);
  EXPECT_EQ(snap.window.count, 100u);
  EXPECT_EQ(snap.window.p50, 511u);

  // Full window: both slots merge; the median sits in the low bucket,
  // the tail in the high one.
  snap = w->SnapshotWindow();
  EXPECT_EQ(snap.slots, 2u);
  EXPECT_EQ(snap.window.count, 200u);
  EXPECT_EQ(snap.window.p50, 3u);
  EXPECT_EQ(snap.window.p99, 511u);

  // The cumulative view never forgets, regardless of rotation.
  EXPECT_EQ(w->Cumulative().Count(), 200u);
}

TEST(WindowedHistogramTest, RotationEvictsSlotsBeyondTheRing) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  Registry& reg = Registry::Global();
  obs::WindowedHistogram* w = reg.GetWindowedHistogram("obs_test.win_evict");
  w->Reset();
  reg.GetHistogram("obs_test.win_evict")->Reset();
  w->Record(7);
  for (size_t i = 0; i < obs::WindowedHistogram::kRingSize; ++i) w->Tick();
  const obs::WindowSnapshot snap = w->SnapshotWindow();
  EXPECT_EQ(snap.ticks, obs::WindowedHistogram::kRingSize);
  EXPECT_EQ(snap.window.count, 0u) << "pre-ring slot leaked into the window";
  EXPECT_EQ(w->Cumulative().Count(), 1u);
}

// Empty and partial windows must stay integer-exact: zero quantiles on
// zero count, and a partial window only merges the slots that exist.
TEST(WindowedHistogramTest, EmptyAndPartialWindowsAreNaNFree) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  Registry& reg = Registry::Global();
  obs::WindowedHistogram* w = reg.GetWindowedHistogram("obs_test.win_empty");
  w->Reset();
  reg.GetHistogram("obs_test.win_empty")->Reset();

  obs::WindowSnapshot snap = w->SnapshotWindow();
  EXPECT_EQ(snap.window.count, 0u);
  EXPECT_EQ(snap.window.sum, 0u);
  EXPECT_EQ(snap.window.p50, 0u);
  EXPECT_EQ(snap.window.p95, 0u);
  EXPECT_EQ(snap.window.p99, 0u);

  // One tick happened; asking for more slots than exist clamps.
  w->Tick();
  w->Record(5);
  snap = w->SnapshotWindow(obs::WindowedHistogram::kRingSize * 4);
  EXPECT_EQ(snap.slots, 2u);  // tick 0's slot + the current one
  EXPECT_EQ(snap.window.count, 1u);
  EXPECT_EQ(snap.window.p50, 7u);  // bucket [4,7]
}

TEST(WindowedHistogramTest, DisabledRecordsNothingAndTickDoesNotRotate) {
  ObsEnabledGuard guard;
  Registry& reg = Registry::Global();
  obs::WindowedHistogram* w = reg.GetWindowedHistogram("obs_test.win_off");
  w->Reset();
  reg.GetHistogram("obs_test.win_off")->Reset();
  obs::SetEnabled(false);
  w->Record(9);
  w->Tick();
  obs::SetEnabled(true);
  EXPECT_EQ(w->Ticks(), 0u);
  EXPECT_EQ(w->SnapshotWindow().window.count, 0u);
  EXPECT_EQ(w->Cumulative().Count(), 0u);
}

// One Record feeds both views: the windowed histogram shares storage
// with the plain histogram registered under the same name, so JSON
// exports and kMetrics replies agree about the cumulative series.
TEST(WindowedHistogramTest, SharesCumulativeWithSameNameHistogram) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  Registry& reg = Registry::Global();
  Histogram* plain = reg.GetHistogram("obs_test.win_shared");
  plain->Reset();
  obs::WindowedHistogram* w = reg.GetWindowedHistogram("obs_test.win_shared");
  w->Reset();
  w->Record(12);
  EXPECT_EQ(plain->Count(), 1u);
  EXPECT_EQ(plain->Sum(), 12u);
  EXPECT_EQ(&w->Cumulative(), plain);
}

// ------------------------------------------- Registry snapshots ---------

TEST(RegistryTest, SnapshotDeltaSubtractsCountersAndGauges) {
  ObsEnabledGuard guard;
  Registry& reg = Registry::Global();
  reg.GetCounter("obs_test.delta_c")->Reset();
  reg.GetCounter("obs_test.delta_c")->Add(10);
  reg.GetCounter("obs_test.delta_idle")->Reset();
  reg.GetCounter("obs_test.delta_idle")->Add(2);
  reg.GetGauge("obs_test.delta_g")->Set(100);

  const obs::RegistrySnapshot before = reg.TakeSnapshot();
  reg.GetCounter("obs_test.delta_c")->Add(5);
  reg.GetGauge("obs_test.delta_g")->Set(40);
  const obs::RegistrySnapshot after = reg.TakeSnapshot();

  const obs::RegistrySnapshot delta =
      Registry::SnapshotDelta(before, after);
  EXPECT_EQ(delta.counters.at("obs_test.delta_c"), 5u);
  EXPECT_EQ(delta.gauges.at("obs_test.delta_g"), -60);
  // Untouched instruments appear with a zero delta, not as absences.
  ASSERT_NE(delta.counters.find("obs_test.delta_idle"),
            delta.counters.end());
  EXPECT_EQ(delta.counters.at("obs_test.delta_idle"), 0u);
}

TEST(RegistryTest, JsonExportCarriesWindowsSection) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  Registry& reg = Registry::Global();
  obs::WindowedHistogram* w = reg.GetWindowedHistogram("obs_test.json_win");
  w->Reset();
  reg.GetHistogram("obs_test.json_win")->Reset();
  w->Record(3);
  w->Tick();
  w->Record(300);

  const std::string json = reg.ToJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json;
  const JsonValue& win = root.at("windows").at("obs_test.json_win");
  EXPECT_EQ(win.at("ticks").num, 1.0);
  EXPECT_EQ(win.at("count").num, 2.0);
  EXPECT_EQ(win.at("p99").num, 511.0);
  // The shared cumulative histogram still renders in "histograms".
  EXPECT_EQ(root.at("histograms").at("obs_test.json_win").at("count").num,
            2.0);
}

TEST(RegistryTest, PrometheusExpositionPinsBucketsAndQuantiles) {
  SKIP_IF_OBS_COMPILED_OUT();
  ObsEnabledGuard guard;
  Registry& reg = Registry::Global();
  reg.GetCounter("obs_test.prom_c")->Reset();
  reg.GetCounter("obs_test.prom_c")->Add(3);
  obs::WindowedHistogram* w = reg.GetWindowedHistogram("obs_test.prom_h");
  w->Reset();
  reg.GetHistogram("obs_test.prom_h")->Reset();
  w->Record(3);
  w->Record(3);
  w->Record(300);

  const std::string prom = reg.ToPrometheus();
  EXPECT_NE(prom.find("# TYPE retina_obs_test_prom_c counter"),
            std::string::npos);
  EXPECT_NE(prom.find("retina_obs_test_prom_c 3\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE retina_obs_test_prom_h histogram"),
            std::string::npos);
  // Cumulative buckets at log2 upper bounds, ending in +Inf == _count.
  EXPECT_NE(prom.find("retina_obs_test_prom_h_bucket{le=\"3\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("retina_obs_test_prom_h_bucket{le=\"511\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("retina_obs_test_prom_h_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("retina_obs_test_prom_h_sum 306\n"),
            std::string::npos);
  EXPECT_NE(prom.find("retina_obs_test_prom_h_count 3\n"),
            std::string::npos);
  // The windowed view exports as gauge families with quantile suffixes.
  EXPECT_NE(prom.find("# TYPE retina_obs_test_prom_h_window_p99 gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("retina_obs_test_prom_h_window_p99 511\n"),
            std::string::npos);
}

// ------------------------------------------------- Determinism pinning --

// Small synthetic retweet task, same shape the parallel bench uses.
core::RetweetTask MakeTask(size_t n_tweets, size_t cands_per_tweet,
                           uint64_t seed) {
  core::RetweetTask task;
  task.user_dim = 12;
  task.content_dim = 8;
  task.embed_dim = 8;
  task.interval_edges = {0.0, 1.0, 8.0, 24.0};
  Rng rng(seed);
  const size_t n_intervals = task.NumIntervals();
  for (size_t t = 0; t < n_tweets; ++t) {
    core::TweetContext ctx;
    ctx.tweet_id = t;
    ctx.content = Vec(task.content_dim);
    for (double& v : ctx.content) v = rng.Normal();
    ctx.embedding = Vec(task.embed_dim);
    for (double& v : ctx.embedding) v = rng.Normal();
    ctx.news_window = Matrix(6, task.embed_dim);
    for (double& v : ctx.news_window.data()) v = rng.Normal();
    task.tweets.push_back(std::move(ctx));
    for (size_t k = 0; k < cands_per_tweet; ++k) {
      core::RetweetCandidate cand;
      cand.tweet_pos = t;
      cand.user = static_cast<datagen::NodeId>(k);
      cand.label = (k % 3 == 0) ? 1 : 0;
      cand.interval_labels.assign(n_intervals, 0);
      if (cand.label == 1) cand.interval_labels[k % n_intervals] = 1;
      cand.user_features = Vec(task.user_dim);
      for (double& v : cand.user_features) v = rng.Normal();
      task.train.push_back(std::move(cand));
    }
  }
  task.test = task.train;
  return task;
}

// The core contract: observability is an observer. Training with obs
// enabled and disabled must produce bit-identical loss trajectories and
// bit-identical candidate scores.
TEST(ObsDeterminismTest, TrainAndEvalBitIdenticalWithObsOnAndOff) {
  ObsEnabledGuard guard;
  const core::RetweetTask task = MakeTask(4, 9, 123);

  auto run = [&](bool enabled) {
    obs::SetEnabled(enabled);
    core::RetinaOptions opts;
    opts.hidden = 8;
    opts.epochs = 2;
    opts.seed = 11;
    auto model = std::make_unique<core::Retina>(
        task.user_dim, task.content_dim, task.embed_dim, task.NumIntervals(),
        opts);
    EXPECT_TRUE(model->Train(task).ok());
    return model;
  };

  const auto model_on = run(true);
  const auto model_off = run(false);
  obs::SetEnabled(true);

  ASSERT_EQ(model_on->epoch_losses().size(), 2u);
  ASSERT_EQ(model_on->epoch_losses().size(), model_off->epoch_losses().size());
  for (size_t e = 0; e < model_on->epoch_losses().size(); ++e) {
    EXPECT_EQ(model_on->epoch_losses()[e], model_off->epoch_losses()[e])
        << "epoch " << e << " loss diverged between obs on/off";
  }

  const Vec scores_on = model_on->ScoreCandidates(task, task.test);
  const Vec scores_off = model_off->ScoreCandidates(task, task.test);
  ASSERT_EQ(scores_on.size(), scores_off.size());
  for (size_t i = 0; i < scores_on.size(); ++i) {
    EXPECT_EQ(scores_on[i], scores_off[i]) << "score " << i << " diverged";
  }
}

TEST(ObsDeterminismTest, WorldGenerationBitIdenticalWithObsOnAndOff) {
  ObsEnabledGuard guard;
  datagen::WorldConfig config;
  config.scale = 0.01;
  config.num_users = 120;
  config.history_length = 6;
  config.news_per_day = 10.0;

  obs::SetEnabled(true);
  const auto world_on = datagen::SyntheticWorld::Generate(config, 31);
  obs::SetEnabled(false);
  const auto world_off = datagen::SyntheticWorld::Generate(config, 31);
  obs::SetEnabled(true);

  ASSERT_EQ(world_on.tweets().size(), world_off.tweets().size());
  for (size_t i = 0; i < world_on.tweets().size(); ++i) {
    EXPECT_EQ(world_on.tweets()[i].time, world_off.tweets()[i].time);
    EXPECT_EQ(world_on.tweets()[i].author, world_off.tweets()[i].author);
    ASSERT_EQ(world_on.cascades()[i].retweets.size(),
              world_off.cascades()[i].retweets.size());
    for (size_t r = 0; r < world_on.cascades()[i].retweets.size(); ++r) {
      EXPECT_EQ(world_on.cascades()[i].retweets[r].time,
                world_off.cascades()[i].retweets[r].time);
    }
  }
}

// ------------------------------------------------------ Timeline tracer --

// Ends the trace session on every exit path so a failing assertion cannot
// leave emission running for later tests.
class TraceSessionGuard {
 public:
  ~TraceSessionGuard() { obs::StopTracing(); }
};

// Parses TraceToChromeJson() output and returns the traceEvents array (and
// the whole document via *doc). Fails the test on malformed JSON.
std::vector<JsonValue> ParseTraceEvents(const std::string& json,
                                        JsonValue* doc) {
  EXPECT_TRUE(JsonParser(json).Parse(doc)) << json.substr(0, 400);
  EXPECT_EQ(doc->kind, JsonValue::kObject);
  return doc->at("traceEvents").array;
}

// Complete ("X") events with the given name.
std::vector<JsonValue> CompleteEvents(const std::vector<JsonValue>& events,
                                      const std::string& name) {
  std::vector<JsonValue> out;
  for (const JsonValue& e : events) {
    if (e.at("ph").str == "X" && e.at("name").str == name) out.push_back(e);
  }
  return out;
}

void SpinWork() {
  volatile double sink = 0.0;
  for (int i = 0; i < 20000; ++i) sink = sink + std::sqrt(i);
}

TEST(TraceTest, ExportParentsNestedSpansAndStampsTraceIds) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  ObsEnabledGuard guard;
  TraceSessionGuard session;
  obs::StartTracing();
  {
    obs::TraceRequestScope request;
    RETINA_OBS_SPAN("trace_test.outer");
    SpinWork();
    {
      RETINA_OBS_SPAN("trace_test.inner");
      SpinWork();
      obs::TraceInstant("trace_test.instant");
    }
  }
  obs::StopTracing();

  JsonValue doc;
  const auto events = ParseTraceEvents(obs::TraceToChromeJson(), &doc);
  const auto outer = CompleteEvents(events, "trace_test.outer");
  const auto inner = CompleteEvents(events, "trace_test.inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);

  const double trace_id = outer[0].at("args").at("trace_id").num;
  EXPECT_NE(trace_id, 0.0);
  EXPECT_EQ(inner[0].at("args").at("trace_id").num, trace_id);
  // The inner span's parent is the outer span; the outer span is a root.
  EXPECT_EQ(inner[0].at("args").at("parent_span_id").num,
            outer[0].at("args").at("span_id").num);
  EXPECT_EQ(outer[0].at("args").at("parent_span_id").num, 0.0);
  // Complete events carry nonzero durations, and the child fits inside the
  // parent on the timeline.
  EXPECT_GT(outer[0].at("dur").num, 0.0);
  EXPECT_GT(inner[0].at("dur").num, 0.0);
  EXPECT_GE(inner[0].at("ts").num, outer[0].at("ts").num);
  EXPECT_LE(inner[0].at("ts").num + inner[0].at("dur").num,
            outer[0].at("ts").num + outer[0].at("dur").num + 1e-3);

  // The instant event rides the same trace under the inner span.
  bool saw_instant = false;
  for (const JsonValue& e : events) {
    if (e.at("ph").str != "i" || e.at("name").str != "trace_test.instant") {
      continue;
    }
    saw_instant = true;
    EXPECT_EQ(e.at("args").at("trace_id").num, trace_id);
    EXPECT_EQ(e.at("args").at("parent_span_id").num,
              inner[0].at("args").at("span_id").num);
  }
  EXPECT_TRUE(saw_instant);
}

TEST(TraceTest, FullBufferDropsNewestAndCountsThem) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  ObsEnabledGuard guard;
  TraceSessionGuard session;
  obs::StartTracing(/*buffer_capacity=*/64);
  for (int i = 0; i < 100; ++i) obs::TraceInstant("trace_test.flood");
  obs::StopTracing();

  EXPECT_EQ(obs::TraceBufferedEvents(), 64u);
  EXPECT_EQ(obs::TraceDroppedEvents(), 36u);

  JsonValue doc;
  const auto events = ParseTraceEvents(obs::TraceToChromeJson(), &doc);
  size_t instants = 0;
  for (const JsonValue& e : events) {
    if (e.at("ph").str == "i") ++instants;
  }
  EXPECT_EQ(instants, 64u);
  EXPECT_EQ(doc.at("otherData").at("dropped_events").num, 36.0);
  EXPECT_EQ(doc.at("otherData").at("buffer_capacity").num, 64.0);

  // The next session starts clean.
  obs::StartTracing(/*buffer_capacity=*/64);
  obs::StopTracing();
  EXPECT_EQ(obs::TraceDroppedEvents(), 0u);
  EXPECT_EQ(obs::TraceBufferedEvents(), 0u);
}

TEST(TraceTest, ParallelForChunksNestUnderSubmittingSpan) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  ObsEnabledGuard guard;
  // Force real workers even on a 1-core host so adoption of the submitting
  // thread's context is exercised cross-thread.
  const size_t prev_threads = par::NumThreads();
  par::SetNumThreads(4);
  TraceSessionGuard session;
  obs::StartTracing();
  double root_span_id = 0.0;
  double root_trace_id = 0.0;
  {
    obs::TraceRequestScope request;
    RETINA_OBS_SPAN("trace_test.loop");
    par::ParallelForChunks(400, 10, [](const par::ChunkRange& chunk) {
      volatile size_t sink = 0;
      for (size_t i = chunk.begin; i < chunk.end; ++i) sink = sink + i;
    });
  }
  obs::StopTracing();
  par::SetNumThreads(prev_threads);

  JsonValue doc;
  const auto events = ParseTraceEvents(obs::TraceToChromeJson(), &doc);
  const auto roots = CompleteEvents(events, "trace_test.loop");
  ASSERT_EQ(roots.size(), 1u);
  root_span_id = roots[0].at("args").at("span_id").num;
  root_trace_id = roots[0].at("args").at("trace_id").num;
  ASSERT_NE(root_trace_id, 0.0);

  const auto chunks = CompleteEvents(events, "par.chunk");
  ASSERT_EQ(chunks.size(), par::MakeChunks(400, 10).size());
  for (const JsonValue& chunk : chunks) {
    // Every chunk — including ones run on pool workers — is parented to
    // the submitting span and carries its trace id.
    EXPECT_EQ(chunk.at("args").at("parent_span_id").num, root_span_id);
    EXPECT_EQ(chunk.at("args").at("trace_id").num, root_trace_id);
  }
}

TEST(TraceTest, RequestScopeMintsOncePerRootAndInheritsWhenNested) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  ObsEnabledGuard guard;
  TraceSessionGuard session;
  obs::StartTracing();
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
  uint64_t first = 0;
  {
    obs::TraceRequestScope root;
    first = obs::CurrentTraceId();
    EXPECT_NE(first, 0u);
    {
      obs::TraceRequestScope nested;  // per-tweet request inside a batch
      EXPECT_EQ(obs::CurrentTraceId(), first);
    }
    EXPECT_EQ(obs::CurrentTraceId(), first);
  }
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
  {
    obs::TraceRequestScope second;
    EXPECT_NE(obs::CurrentTraceId(), 0u);
    EXPECT_NE(obs::CurrentTraceId(), first);
  }
  obs::StopTracing();
  // Off-session: nothing is minted and nothing leaks into the context.
  {
    obs::TraceRequestScope off;
    EXPECT_EQ(obs::CurrentTraceId(), 0u);
  }
}

TEST(TraceTest, ScoringEngineStampsRequestTraceIdsOnCacheEvents) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  ObsEnabledGuard guard;

  datagen::WorldConfig config;
  config.scale = 0.01;
  config.num_users = 120;
  config.history_length = 6;
  config.news_per_day = 10.0;
  auto world = datagen::SyntheticWorld::Generate(config, 47);
  hatedetect::AnnotationOptions aopts;
  ASSERT_TRUE(hatedetect::AnnotateWorld(&world, aopts).ok());

  core::FeatureConfig fconfig;
  fconfig.history_size = 4;
  fconfig.history_tfidf_dim = 30;
  fconfig.news_tfidf_dim = 30;
  fconfig.tweet_tfidf_dim = 30;
  fconfig.news_window = 8;
  fconfig.doc2vec_dim = 8;
  fconfig.doc2vec_epochs = 1;
  auto fx = core::FeatureExtractor::Build(world, fconfig);
  ASSERT_TRUE(fx.ok());
  const core::FeatureExtractor extractor = std::move(fx).ValueOrDie();

  core::RetweetTaskOptions topts;
  topts.min_news = 1;
  topts.max_candidates = 8;
  auto task_or = core::BuildRetweetTask(extractor, topts);
  ASSERT_TRUE(task_or.ok());
  const core::RetweetTask task = std::move(task_or).ValueOrDie();
  ASSERT_FALSE(task.test.empty());

  // Untrained model: trace plumbing is independent of weights.
  core::RetinaOptions mopts;
  mopts.hidden = 8;
  core::Retina model(task.user_dim, task.content_dim, task.embed_dim,
                     task.NumIntervals(), mopts);
  core::ScoringEngine engine(&model, &extractor);

  TraceSessionGuard session;
  obs::StartTracing();
  Vec scores;
  engine.ScoreCandidatesInto(task, task.test, &scores);
  obs::StopTracing();

  JsonValue doc;
  const auto events = ParseTraceEvents(obs::TraceToChromeJson(), &doc);
  const auto requests = CompleteEvents(events, "serving.score_tweet");
  ASSERT_FALSE(requests.empty());
  // One batch: every per-tweet request inherits the batch's trace id.
  const double batch_trace_id = requests[0].at("args").at("trace_id").num;
  EXPECT_NE(batch_trace_id, 0.0);
  for (const JsonValue& req : requests) {
    EXPECT_EQ(req.at("args").at("trace_id").num, batch_trace_id);
    EXPECT_GT(req.at("dur").num, 0.0);
  }
  // Cache hit/miss instants ride the same trace.
  size_t cache_events = 0;
  for (const JsonValue& e : events) {
    if (e.at("ph").str != "i") continue;
    const std::string& name = e.at("name").str;
    if (name.rfind("serving.", 0) != 0) continue;
    ++cache_events;
    EXPECT_EQ(e.at("args").at("trace_id").num, batch_trace_id) << name;
  }
  EXPECT_GT(cache_events, 0u);
}

// Tracing is an observer: a traced run and an untraced run of the same
// training workload produce bit-identical loss trajectories and scores.
// This pin runs in every build, including -DRETINA_OBS_DISABLED where
// StartTracing is a no-op and both runs are trivially untraced.
TEST(TraceDeterminismTest, TrainBitIdenticalWithTracingOnAndOff) {
  ObsEnabledGuard guard;
  TraceSessionGuard session;
  const core::RetweetTask task = MakeTask(4, 9, 123);

  auto run = [&](bool traced) {
    if (traced) {
      obs::StartTracing();
    } else {
      obs::StopTracing();
    }
    core::RetinaOptions opts;
    opts.hidden = 8;
    opts.epochs = 2;
    opts.seed = 11;
    auto model = std::make_unique<core::Retina>(
        task.user_dim, task.content_dim, task.embed_dim, task.NumIntervals(),
        opts);
    EXPECT_TRUE(model->Train(task).ok());
    return model;
  };

  const auto model_traced = run(true);
  const auto model_plain = run(false);

  ASSERT_EQ(model_traced->epoch_losses().size(),
            model_plain->epoch_losses().size());
  for (size_t e = 0; e < model_traced->epoch_losses().size(); ++e) {
    EXPECT_EQ(model_traced->epoch_losses()[e], model_plain->epoch_losses()[e])
        << "epoch " << e << " loss diverged between tracing on/off";
  }
  const Vec scores_traced = model_traced->ScoreCandidates(task, task.test);
  const Vec scores_plain = model_plain->ScoreCandidates(task, task.test);
  ASSERT_EQ(scores_traced.size(), scores_plain.size());
  for (size_t i = 0; i < scores_traced.size(); ++i) {
    EXPECT_EQ(scores_traced[i], scores_plain[i]) << "score " << i;
  }
}

TEST(TraceDeterminismTest, WorldGenerationBitIdenticalWithTracingOnAndOff) {
  ObsEnabledGuard guard;
  TraceSessionGuard session;
  datagen::WorldConfig config;
  config.scale = 0.01;
  config.num_users = 120;
  config.history_length = 6;
  config.news_per_day = 10.0;

  obs::StartTracing();
  const auto world_traced = datagen::SyntheticWorld::Generate(config, 31);
  obs::StopTracing();
  const auto world_plain = datagen::SyntheticWorld::Generate(config, 31);

  ASSERT_EQ(world_traced.tweets().size(), world_plain.tweets().size());
  for (size_t i = 0; i < world_traced.tweets().size(); ++i) {
    EXPECT_EQ(world_traced.tweets()[i].time, world_plain.tweets()[i].time);
    EXPECT_EQ(world_traced.tweets()[i].author, world_plain.tweets()[i].author);
    ASSERT_EQ(world_traced.cascades()[i].retweets.size(),
              world_plain.cascades()[i].retweets.size());
    for (size_t r = 0; r < world_traced.cascades()[i].retweets.size(); ++r) {
      EXPECT_EQ(world_traced.cascades()[i].retweets[r].time,
                world_plain.cascades()[i].retweets[r].time);
    }
  }
}

}  // namespace
}  // namespace retina
