"""Pure helpers for perfbench/run.py: exact quantiles, the capacity ladder,
phase validity, stage closure and result comparison. No I/O beyond reading
the harness's raw f64 files, so every rule here is unit-tested
(perfbench/test_benchlib.py)."""

import array
import math
import statistics


def read_f64(path):
    """Reads a little-endian float64 array written by perfbench_harness."""
    values = array.array("d")
    with open(path, "rb") as f:
        values.frombytes(f.read())
    return list(values)


def quantile(values, q):
    """Exact order statistic: the smallest sample with at least a q share
    of the samples at or below it (nearest rank, ceil(q * n)). Failed
    requests enter as +inf, so they count as missing every limit."""
    if not values:
        raise ValueError("quantile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def windowed_quantile(values, q, per_window=500, max_windows=24):
    """Median over consecutive windows of the q-quantile of each window.
    Windows hold at least `per_window` samples (one window when there are
    fewer), so a single stall moves one window's tail, not the result."""
    k = max(1, min(max_windows, len(values) // per_window))
    size = len(values) // k
    tails = [quantile(values[i * size:(i + 1) * size if i < k - 1 else None], q)
             for i in range(k)]
    return statistics.median(tails)


TAIL_Q = 0.90
"""The tail quantile the benchmark gates and the ladder's limit applies to.
p99 is reported beside it, but on shared machines its run-to-run spread
is several times the bound a regression check can use."""


def phase_verdict(phase, lat_ms, lag_ms, tail_limit_ms, max_lag_ms):
    """Pass/fail of one open-loop phase against a latency limit.

    A phase is *valid* when the generator kept its schedule (send-lag p99
    at most max_lag_ms). Its backlog is *growing* when the requests in
    flight over the last three tenths of the schedule (median) exceed both
    64 and four times those over the first three tenths, so a single
    stall does not read as growth. It *passes* when it is valid, not
    growing, at most 1% of its requests failed, and the windowed tail
    latency (failed requests count as +inf) is within the limit."""
    inflight = phase["inflight"]
    early = statistics.median(inflight[:3])
    late = statistics.median(inflight[-3:])
    growing = late > max(64, 4 * early)
    lag_p99 = quantile(lag_ms, 0.99)
    valid = lag_p99 <= max_lag_ms and not phase["transport_error"]
    failures = phase["attempted"] - phase["ok"]
    tail = windowed_quantile(lat_ms, TAIL_Q)
    return {
        "valid": valid,
        "growing": growing,
        "failures": failures,
        "tail_ms": tail,
        "lag_p99_ms": lag_p99,
        "passes": (valid and not growing and
                   failures <= 0.01 * phase["attempted"] and
                   tail <= tail_limit_ms),
    }


def ladder_search(rungs, probe):
    """Binary search for the highest passing rung. `probe(rate)` runs a
    phase and returns True when it passes; passing is taken as monotone in
    rate, so the search makes ceil(log2(len(rungs) + 1)) probes whatever
    the outcome. Returns (capacity, visited): the highest rung found
    passing (rungs[0] / 2 when none does, a nonzero floor that reads as a
    failure) and the (rate, passed) pairs in probe order."""
    if not rungs or sorted(rungs) != list(rungs):
        raise ValueError("rungs must be ascending")
    visited = []
    lo, hi = -1, len(rungs)  # rungs[lo] passed, rungs[hi] failed
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ok = probe(rungs[mid])
        visited.append((rungs[mid], ok))
        if ok:
            lo = mid
        else:
            hi = mid
    return (rungs[lo] if lo >= 0 else rungs[0] / 2.0), visited


def stage_closure(stage_ns, engine_ns):
    """Sum of the stage times over the ScoreTweetInto time of the same
    requests; 1.0 means the stages account for the whole call."""
    if engine_ns <= 0:
        raise ValueError("engine time must be positive")
    return stage_ns / engine_ns


COMPARE_KEYS = ("nproc", "simd")


def comparable(meta_a, meta_b):
    """Two results may be compared only on the same core count and SIMD
    dispatch; returns the list of keys that differ."""
    return [k for k in COMPARE_KEYS if meta_a.get(k) != meta_b.get(k)]
