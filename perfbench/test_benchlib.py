"""Tests of the benchmark's own rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The schedule test needs the harness built (any perfbench/run.py run does
that) and is skipped otherwise.
"""

import json
import math
import os
import subprocess
import unittest

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
HARNESS = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench",
                       "cmake", "perfbench_harness")


class QuantileTest(unittest.TestCase):
    def test_nearest_rank_by_hand(self):
        ten = [7, 3, 10, 1, 9, 2, 8, 4, 6, 5]
        self.assertEqual(benchlib.quantile(ten, 0.5), 5)
        self.assertEqual(benchlib.quantile(ten, 0.1), 1)
        self.assertEqual(benchlib.quantile(ten, 0.11), 2)
        self.assertEqual(benchlib.quantile(ten, 0.99), 10)
        self.assertEqual(benchlib.quantile(ten, 1.0), 10)
        self.assertEqual(benchlib.quantile([3, 1, 2], 0.5), 2)
        self.assertEqual(benchlib.quantile([42.5], 0.99), 42.5)

    def test_hundred_samples(self):
        values = list(range(100, 0, -1))
        self.assertEqual(benchlib.quantile(values, 0.5), 50)
        self.assertEqual(benchlib.quantile(values, 0.99), 99)
        self.assertEqual(benchlib.quantile(values, 0.999), 100)

    def test_failures_count_as_misses(self):
        values = [1.0] * 98 + [math.inf] * 2
        self.assertEqual(benchlib.quantile(values, 0.98), 1.0)
        self.assertEqual(benchlib.quantile(values, 0.99), math.inf)

    def test_rejects_empty_and_bad_q(self):
        with self.assertRaises(ValueError):
            benchlib.quantile([], 0.5)
        with self.assertRaises(ValueError):
            benchlib.quantile([1], 0.0)

    def test_windowed_takes_median_of_window_tails(self):
        # Five windows of 1000; one window has a stall in its tail.
        values = []
        for w in range(5):
            window = [1.0] * 1000
            if w == 2:
                window[-20:] = [50.0] * 20
            values += window
        self.assertEqual(benchlib.windowed_quantile(values, 0.99), 1.0)
        self.assertEqual(benchlib.quantile(values, 0.999), 50.0)
        # Fewer samples than one window: a plain quantile.
        self.assertEqual(benchlib.windowed_quantile([5, 1, 3], 0.5), 3)


class LadderTest(unittest.TestCase):
    RUNGS = [100.0, 105.0, 110.3, 115.8, 121.6, 127.6, 134.0, 140.7]

    def search(self, limit):
        probes = []

        def probe(rate):
            probes.append(rate)
            return rate <= limit

        return benchlib.ladder_search(self.RUNGS, probe), probes

    def test_highest_passing_rung(self):
        (cap, visited), probes = self.search(121.6)
        self.assertEqual(cap, 121.6)
        self.assertEqual([r for r, _ in visited], probes)
        self.assertLessEqual(len(probes), 4)  # ceil(log2(9))

    def test_every_rung_passes(self):
        (cap, _), _ = self.search(1e9)
        self.assertEqual(cap, 140.7)

    def test_no_rung_passes_gives_nonzero_floor(self):
        (cap, visited), _ = self.search(1.0)
        self.assertEqual(cap, 50.0)
        self.assertFalse(any(ok for _, ok in visited))

    def test_rungs_must_ascend(self):
        with self.assertRaises(ValueError):
            benchlib.ladder_search([2.0, 1.0], lambda r: True)

    def test_frozen_ladders_ascend_within_ten_percent(self):
        with open(os.path.join(HERE, "workloads.json")) as f:
            workloads = json.load(f)
        ladders = 0
        for cfg in workloads.values():
            rungs = cfg.get("ladder_qps")
            if rungs is None:
                continue
            ladders += 1
            for a, b in zip(rungs, rungs[1:]):
                self.assertLess(a, b)
                self.assertLessEqual(b / a, 1.1)
            self.assertLess(cfg["high_qps"], rungs[-1])
        self.assertEqual(ladders, 1)


class VerdictTest(unittest.TestCase):
    def phase(self, inflight=(5,) * 10, ok=100, attempted=100):
        return {"inflight": list(inflight), "ok": ok, "attempted": attempted,
                "transport_error": ""}

    def verdict(self, phase, lat=None, lag=None):
        return benchlib.phase_verdict(phase, lat or [1.0] * 100,
                                      lag or [0.1] * 100, tail_limit_ms=2.0,
                                      max_lag_ms=1.0)

    def test_passes_within_limit(self):
        v = self.verdict(self.phase())
        self.assertTrue(v["valid"] and v["passes"] and not v["growing"])
        self.assertEqual(v["tail_ms"], 1.0)

    def test_growing_backlog_fails(self):
        v = self.verdict(self.phase([5, 6, 5, 20, 40, 60, 80, 100, 120, 140]))
        self.assertTrue(v["growing"])
        self.assertFalse(v["passes"])

    def test_one_stall_is_not_growth(self):
        v = self.verdict(self.phase([5, 6, 5, 6, 5, 6, 5, 6, 5, 150]))
        self.assertFalse(v["growing"])

    def test_late_generator_invalidates(self):
        v = self.verdict(self.phase(), lag=[0.1] * 90 + [3.0] * 10)
        self.assertFalse(v["valid"])
        self.assertFalse(v["passes"])

    def test_failures_beyond_one_percent_fail(self):
        v = self.verdict(self.phase(ok=99), lat=[1.0] * 99 + [math.inf])
        self.assertEqual(v["failures"], 1)
        self.assertTrue(v["passes"])
        v = self.verdict(self.phase(ok=98), lat=[1.0] * 98 + [math.inf] * 2)
        self.assertFalse(v["passes"])

    def test_slow_tail_fails(self):
        v = self.verdict(self.phase(), lat=[1.0] * 85 + [3.0] * 15)
        self.assertEqual(v["tail_ms"], 3.0)
        self.assertFalse(v["passes"])


class ClosureAndCompareTest(unittest.TestCase):
    def test_stage_closure(self):
        stages = [300.0, 150.0, 400.0, 50.0, 100.0]  # ns per stage
        self.assertAlmostEqual(benchlib.stage_closure(sum(stages), 1000.0),
                               1.0)
        self.assertAlmostEqual(benchlib.stage_closure(900.0, 1000.0), 0.9)
        with self.assertRaises(ValueError):
            benchlib.stage_closure(1.0, 0.0)

    def test_refuses_other_machines(self):
        a = {"nproc": 4, "simd": "avx2"}
        self.assertEqual(benchlib.comparable(a, dict(a)), [])
        self.assertEqual(benchlib.comparable(a, {"nproc": 4, "simd": "scalar"}),
                         ["simd"])
        self.assertEqual(benchlib.comparable(a, {"nproc": 8, "simd": "avx2"}),
                         ["nproc"])


@unittest.skipUnless(os.path.exists(HARNESS), "harness not built")
class ScheduleTest(unittest.TestCase):
    def schedule(self, seed, hot="4"):
        out = subprocess.run(
            [HARNESS, "schedule", "--seed", str(seed), "--qps", "2000",
             "--seconds", "1", "--hot-tweets", hot, "--user-pool", "2048",
             "--users-per-request", "4"],
            capture_output=True, text=True, check=True)
        return json.loads(out.stdout)

    def test_same_seed_same_bytes_and_due_times(self):
        a, b = self.schedule(7), self.schedule(7)
        self.assertEqual(a, b)
        self.assertGreater(a["requests"], 1500)

    def test_other_seed_other_schedule(self):
        a, b = self.schedule(7), self.schedule(8)
        self.assertNotEqual(a["digest"], b["digest"])
        self.assertNotEqual(a["first_due_s"], b["first_due_s"])


if __name__ == "__main__":
    unittest.main()
