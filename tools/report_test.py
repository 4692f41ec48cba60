#!/usr/bin/env python3
"""Checks for tools/report.py, focused on the "User store tiers" section.

Feeds synthetic --metrics-out payloads through build_report and asserts
the store section renders its tier counters and per-tier latency
percentiles when store metrics are present, and disappears entirely when
they are not (runs that never touched the store must not grow an empty
section).

pytest-style test_* functions, but runnable standalone:
  python3 tools/report_test.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import report  # noqa: E402


def hist(count, mean, p50, p95, p99):
    return {"count": count, "mean": mean, "p50": p50, "p95": p95, "p99": p99}


def store_metrics():
    return {
        "counters": {
            "serving.requests": 12,
            "serving.user_cache.hits": 340,
            "store.tier.hits": 55,
            "store.tier.misses": 7,
            "store.tier.promotes": 55,
            "store.tier.bloom_skips": 6,
            "store.tier.errors": 0,
        },
        "gauges": {},
        "histograms": {
            "store.lookup_warm_ns": hist(340, 60.0, 55.0, 90.0, 120.0),
            "store.lookup_store_ns": hist(55, 900.0, 700.0, 2000.0, 4000.0),
            "store.lookup_compute_ns": hist(
                7, 15000.0, 14000.0, 22000.0, 30000.0),
        },
    }


def serve_bench():
    def point(qps, ok, shed, p99):
        return {
            "target_qps": qps, "achieved_qps": qps * 0.98,
            "elapsed_s": 2.0, "sent": ok + shed, "ok": ok, "shed": shed,
            "errors": 0, "dropped": 0,
            "latency_ns": {"mean": p99 / 3.0, "p50": p99 / 4.0,
                           "p95": p99 / 1.3, "p99": p99},
            "server_shed_delta": shed, "server_requests_delta": ok,
            "server_responses_delta": ok, "server_queue_depth_peak": 3,
        }
    return {
        "bench": "serve_open_loop", "smoke": False, "obs_compiled_in": True,
        "connections": 4, "requests_per_point": 240, "users_per_request": 8,
        "seed": 7, "workers": 4, "queue_capacity": 128,
        "points": [point(20, 240, 0, 400_000),
                   point(40, 240, 0, 650_000),
                   point(80, 231, 9, 2_400_000)],
    }


def serve_daemon_metrics():
    return {
        "counters": {"serve.requests": 711, "serve.responses": 711,
                     "serve.shed": 9, "serve.errors": 0,
                     "serve.protocol_errors": 0},
        "gauges": {"serve.queue.depth_peak": 3, "serve.queue.capacity": 128,
                   "serve.workers": 4},
        "histograms": {
            "serve.queue_wait_ns": hist(711, 8000.0, 5000.0, 30000.0,
                                        64000.0),
            "serve.handle_ns": hist(711, 300000.0, 250000.0, 700000.0,
                                    1200000.0),
        },
    }


def window(ticks, slots, count, p50, p95, p99):
    return {"ticks": ticks, "slots": slots, "count": count, "sum": 0,
            "p50": p50, "p95": p95, "p99": p99}


def span(name, trace_id, span_id, parent, ts, dur):
    return {"ph": "X", "name": name, "cat": "retina", "ts": ts, "dur": dur,
            "pid": 1, "tid": 1,
            "args": {"trace_id": trace_id, "span_id": span_id,
                     "parent_span_id": parent}}


def trace_file(events):
    return {"traceEvents": events, "displayTimeUnit": "ns", "otherData": {}}


def render(metrics):
    return report.build_report(metrics, None, top_k=5).to_markdown()


def render_serve(bench, serve_metrics=None):
    return report.build_report(None, None, top_k=5, serve_bench=bench,
                               serve_metrics=serve_metrics).to_markdown()


def test_serve_section_renders_sweep_table():
    md = render_serve(serve_bench())
    assert "## Serving" in md
    # One row per sweep point, target and achieved QPS side by side.
    assert "| 20 | 19.6 |" in md
    assert "| 40 | 39.2 |" in md
    assert "| 80 | 78.4 |" in md
    # The overloaded point's shed count and p99 are visible.
    assert "| 9 |" in md
    assert "2.400 ms" in md
    assert "shed at admission" in md


def test_serve_section_warns_on_dropped_requests():
    bench = serve_bench()
    bench["points"][2]["dropped"] = 4
    md = render_serve(bench)
    assert "WARNING: 4 requests were never answered" in md


def test_serve_section_includes_daemon_metrics():
    md = render_serve(serve_bench(), serve_daemon_metrics())
    assert "serve.requests" in md
    assert "serve.queue.depth_peak" in md
    assert "queue wait" in md and "handle" in md
    # Zero-valued counters stay out of the table; gauges always render.
    assert "serve.errors" not in md


def test_serve_section_daemon_metrics_only():
    md = render_serve(None, serve_daemon_metrics())
    assert "## Serving" in md
    assert "serve.responses" in md
    assert "target qps" not in md


def test_serve_section_absent_without_inputs():
    md = render(store_metrics())
    assert "## Serving\n" not in md  # warm/cold section has its own title


def test_serve_section_renders_windowed_quantiles():
    metrics = serve_daemon_metrics()
    metrics["windows"] = {
        "serve.handle_ns": window(5, 5, 320, 262143, 524287, 1048575),
        "serve.queue_wait_ns": window(5, 5, 320, 8191, 32767, 65535),
    }
    md = render_serve(None, metrics)
    assert "Windowed quantiles cover only the last few" in md
    assert "| handle | 5 | 5 | 320 |" in md
    assert "1.049 ms" in md  # windowed handle p99
    assert "not recorded" not in md


def test_serve_section_degrades_without_windows():
    # A metrics file written before windowed histograms existed (or with
    # obs compiled out) must say so instead of silently dropping the row.
    md = render_serve(None, serve_daemon_metrics())
    assert "Windowed latency quantiles: not recorded" in md
    metrics = serve_daemon_metrics()
    metrics["histograms"] = {}
    md = render_serve(None, metrics)
    assert "Stage latency histograms: not recorded" in md


def test_cross_process_section_pairs_by_trace_id():
    client = trace_file([
        span("driver.send", 101, 1, 0, 10.0, 40.0),
        span("driver.send", 102, 2, 0, 60.0, 35.0),
    ])
    server = trace_file([
        span("serve.handle", 101, 7, 1, 5000.0, 900.0),
        span("serve.handle", 999, 8, 0, 6000.0, 100.0),
    ])
    md = report.build_report(None, server, top_k=5,
                             client_trace=client).to_markdown()
    assert "## Cross-process traces" in md
    assert "1 trace ids appear in both files" in md
    assert "1 are client-only" in md and "1 are server-only" in md
    # The paired row: driver's 40us send against the daemon's 900us
    # handle, parented under the send span the wire carried.
    assert "| 101 | 40.000 us | 900.000 us | 2 | yes |" in md


def test_cross_process_section_degrades_without_server_trace():
    client = trace_file([span("driver.send", 101, 1, 0, 10.0, 40.0)])
    md = report.build_report(None, None, top_k=5,
                             client_trace=client).to_markdown()
    assert "## Cross-process traces" in md
    assert "Daemon trace: not recorded" in md
    assert "1 driver.send spans" in md


def test_store_section_renders_counters_and_percentiles():
    md = render(store_metrics())
    assert "## User store tiers" in md
    for counter in ("store.tier.hits", "store.tier.misses",
                    "store.tier.promotes", "store.tier.bloom_skips"):
        assert counter in md, counter
    # One latency row per tier, with the histogram percentiles formatted.
    assert "warm (LRU hit)" in md
    assert "store (block read)" in md
    assert "compute (full rebuild)" in md
    assert "900 ns" in md       # store-tier mean
    assert "15.000 us" in md    # compute-tier mean


def test_store_section_absent_without_store_metrics():
    metrics = store_metrics()
    for name in list(metrics["counters"]):
        if name.startswith("store."):
            del metrics["counters"][name]
    metrics["histograms"] = {}
    md = render(metrics)
    assert "User store tiers" not in md


def test_store_section_counters_only():
    # A run with obs histograms compiled out still has the counters; the
    # section must render without the latency table.
    metrics = store_metrics()
    metrics["histograms"] = {}
    md = render(metrics)
    assert "## User store tiers" in md
    assert "store.tier.hits" in md
    assert "warm (LRU hit)" not in md


def test_store_section_zero_count_tier_renders_dash():
    metrics = store_metrics()
    metrics["histograms"]["store.lookup_compute_ns"] = hist(0, 0, 0, 0, 0)
    md = render(metrics)
    assert "| compute (full rebuild) | 0 | - | - | - | - |" in md


def test_html_rendering_includes_store_section():
    html_out = report.build_report(store_metrics(), None, top_k=5).to_html()
    assert "User store tiers" in html_out
    assert "store.tier.hits" in html_out


def check_e2e_metrics(path):
    """Renders a real --metrics-out export and checks section presence.

    With nonzero store.tier counters the "User store tiers" section must
    render; with all-zero counters (no store traffic) it must not.
    """
    import json
    with open(path, encoding="utf-8") as f:
        metrics = json.load(f)
    md = render(metrics)
    served = any(v for k, v in metrics.get("counters", {}).items()
                 if k.startswith("store.tier."))
    if served:
        assert "## User store tiers" in md, \
            f"{path} has store.tier counters but no store section"
        print(f"PASS e2e metrics {path}: store section rendered")
    else:
        assert "User store tiers" not in md, \
            f"{path} has no store activity but grew a store section"
        print(f"PASS e2e metrics {path}: store section correctly absent")


def check_e2e_serve(bench_path, metrics_path):
    """Renders the real serve e2e artifacts and checks the Serving section.

    The sweep table must carry one row per BENCH_serve.json point; the
    daemon metrics table appears only when the export holds nonzero
    serve.* counters.
    """
    import json
    with open(bench_path, encoding="utf-8") as f:
        bench = json.load(f)
    with open(metrics_path, encoding="utf-8") as f:
        serve_metrics = json.load(f)
    md = render_serve(bench, serve_metrics)
    assert "## Serving" in md, "no Serving section from real artifacts"
    for p in bench["points"]:
        assert f"| {p['target_qps']:g} |" in md, \
            f"sweep row for {p['target_qps']} qps missing"
    counted = any(v for k, v in serve_metrics.get("counters", {}).items()
                  if k.startswith("serve."))
    if counted:
        assert "serve.requests" in md, \
            f"{metrics_path} has serve counters but no daemon table"
    print(f"PASS e2e serve {bench_path}: {len(bench['points'])}-point "
          "sweep rendered")


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--e2e-metrics":
        check_e2e_metrics(sys.argv[2])
        return 0
    if len(sys.argv) == 4 and sys.argv[1] == "--e2e-serve":
        check_e2e_serve(sys.argv[2], sys.argv[3])
        return 0
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as e:
            failed += 1
            print(f"FAIL {name}: {e}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
