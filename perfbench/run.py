#!/usr/bin/env python3
"""perfbench — retina's benchmark: serving latency and capacity, training
throughput, and a traced per-layer budget.

    python3 perfbench/run.py --workload hot_storm --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run builds the retina libraries,
the retina_serve daemon and the harness from source into .bench_build/
(cmake, Release), then generates the fixed world and trains the scoring
bundle once (cached under .bench_build/ and keyed by the built binaries).
Every run then measures its workload and prints, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md). A failed correctness check prints
"correct": false with no metrics and exits 1. Progress, metadata and the
per-metric sample counts go to stderr and to
.bench_build/perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import signal
from statistics import median
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(BUILD, "work")
RESULTS = os.path.join(BUILD, "results")
HARNESS = os.path.join(BUILD, "cmake", "perfbench_harness")
DAEMON = os.path.join(BUILD, "cmake", "retina", "serve", "retina_serve")
RUN_DEADLINE_S = 170
# The low and high phases alternate in this many segments each.
SEGMENTS = 5


class CheckFailed(Exception):
    """A correctness check failed: the run reports no metrics."""


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def check(cond, what):
    if not cond:
        raise CheckFailed(what)


# ---- build ------------------------------------------------------------------


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no retina source tree next to perfbench/")
    cmake_dir = os.path.join(BUILD, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j4", "--target",
                  "perfbench_harness", "retina_serve_bin"])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit("perfbench: build failed (see %s)" % log_path)


def file_digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def source_commit():
    """git HEAD when the checkout is a repository, else a digest of src/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


# ---- the harness session --------------------------------------------------


class Harness:
    """perfbench_harness session: one command line in, one JSON line out."""

    def __init__(self, cfg):
        s = cfg["stream"]
        cmd = [HARNESS, "session", "--work", WORK, "--serve-bin", DAEMON,
               "--hot-tweets", str(s["hot_tweets"]), "--skew", str(s["skew"]),
               "--user-pool", str(s["user_pool"]),
               "--users-per-request", str(s["users_per_request"]),
               "--connections", str(s["connections"])]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def __call__(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise CheckFailed("harness died on '%s'" % line)
        return json.loads(reply)

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


def ensure_bundle(cfg):
    """The fixed world and bundle, built once per set of binaries (in a
    process of its own, so the run's peak RSS never includes it)."""
    stamp_path = os.path.join(WORK, "bundle.json")
    digest = file_digest([HARNESS, DAEMON])
    if os.path.exists(stamp_path):
        with open(stamp_path) as f:
            stamp = json.load(f)
        if stamp.get("digest") == digest:
            return stamp["prepare"]
    log("building the fixed world and scoring bundle (first run)")
    h = Harness(cfg)
    try:
        prep = h("prepare 1 1")
    finally:
        h.close()
    with open(stamp_path, "w") as f:
        json.dump({"digest": digest, "prepare": prep}, f)
    return prep


# ---- serving workloads ----------------------------------------------------


class Serving:
    """Open-loop phases against one server, with the harness's raw files."""

    def __init__(self, h, cfg, seed, scale):
        self.h, self.cfg, self.seed, self.scale = h, cfg, seed, scale
        self.phases = []
        self.n = 0

    def seconds(self, phase):
        return self.cfg["phase_seconds"][phase] * self.scale

    def run(self, name, qps, seconds):
        self.n += 1
        seed = self.seed * 1000 + self.n
        ph = self.h("phase %s %r %r %d" % (name, qps, seconds, seed))
        ph["seed"] = seed
        ph["lat"] = benchlib.read_f64(os.path.join(WORK, name + ".lat_ms.f64"))
        ph["lag"] = benchlib.read_f64(os.path.join(WORK, name + ".lag_ms.f64"))
        ph["qps"] = qps
        ph["verdict"] = benchlib.phase_verdict(
            ph, ph["lat"], ph["lag"], self.cfg.get("tail_limit_ms", 1e9),
            self.cfg["max_send_lag_ms"])
        self.phases.append(ph)
        log("phase %-9s %8.1f qps: n=%d ok=%d p50=%.3f p90=%.3f lag99=%.3f "
            "inflight %s" % (name, qps, ph["attempted"], ph["ok"],
                             benchlib.quantile(ph["lat"], 0.5),
                             ph["verdict"]["tail_ms"],
                             ph["verdict"]["lag_p99_ms"], ph["inflight"]))
        return ph

    def measured(self, name, qps, seconds):
        """A fixed-rate latency phase. It is re-run, at most twice, when the
        generator fell behind or the backlog grew, and the last attempt's
        latencies stand. Every attempt stays in ph["attempts"], so the
        failures of a re-run attempt still count."""
        attempts = []
        for attempt in range(3):
            ph = self.run("%s%d" % (name, attempt), qps, seconds)
            attempts.append(ph)
            if ph["verdict"]["valid"] and not ph["verdict"]["growing"]:
                break
        ph["attempts"] = attempts
        ph["tails"] = {"p%d" % round(q * 100): benchlib.windowed_quantile(
            ph["lat"], q) for q in (0.9, 0.95, 0.99)}
        return ph


def serving_e2e(h, cfg, seed, scale, ref):
    loaded = h("load-bundle")
    check(loaded["map_at_20"] == ref["map_at_20"],
          "loaded bundle MAP@20 differs from the trained one")
    tr = h("train-epochs 1 4")
    check(tr["epoch_losses"][0] == ref["epoch_losses"][0],
          "epoch-1 loss differs from the bundle's training")
    daemon = h("start-daemon")
    ver = h("verify 64")
    check(ver["mismatches"] == 0,
          "%d daemon responses differ from the in-process handler" %
          ver["mismatches"])
    before = h("metrics")
    s = Serving(h, cfg, seed, scale)
    # Warm at the high rate, so the engines' LRUs reach their steady state.
    s.run("warm", cfg["high_qps"], s.seconds("warm"))
    # Low and high alternate in segments, and each metric is the median
    # over its segments: a slow spell of the machine hits one segment, not
    # a phase.
    lows, highs = [], []
    for r in range(SEGMENTS):
        lows.append(s.measured("low%d." % r, cfg["low_qps"],
                               s.seconds("low") / SEGMENTS))
        highs.append(s.measured("high%d." % r, cfg["high_qps"],
                                s.seconds("high") / SEGMENTS))

    def probe(rate):
        # The search never revisits a rung, and one stall (or one lucky
        # spell) can flip it: a rung's verdict is the majority of up to
        # three attempts.
        votes = []
        while len(votes) < 2 or (len(votes) == 2 and votes[0] != votes[1]):
            votes.append(s.run("rung", rate,
                               s.seconds("rung"))["verdict"]["passes"])
        return votes.count(True) >= 2

    capacity, visited = benchlib.ladder_search(cfg["ladder_qps"], probe)
    over = s.run("overload", cfg["overload_qps"], s.seconds("overload"))
    after = h("metrics")
    shed_seen = sum(p["shed"] for p in s.phases)
    check(after["serve.shed"] - before["serve.shed"] == shed_seen,
          "daemon shed count disagrees with the client's")
    replays = [h("replay") for _ in range(7)]
    for rp in replays:
        check(rp["failed"] == 0 and rp["score_mismatches"] == 0,
              "test-split replay through the daemon diverged")
        check(rp["map_at_20"] == ref["map_at_20"], "daemon MAP@20 differs")
    stop = h("stop-server")

    # Failures at the fixed rates, over every attempt (the overload probe
    # sheds by design and is left out).
    tried = [a for p in lows + highs for a in p["attempts"]]
    sent = sum(a["attempted"] for a in tried)
    failed = sum(a["attempted"] - a["ok"] for a in tried)
    for a in tried:
        if a["attempted"] != a["ok"]:
            log("failures in %s: shed %d, errors %d, unanswered %d" %
                (a["name"], a["shed"], a["errors"], a["unanswered"]))

    def over_segments(phases, q):
        values = [benchlib.windowed_quantile(p["lat"], q) for p in phases]
        return median(values), "ms", sum(len(p["lat"]) for p in phases)

    metrics = {
        "setup_s": (daemon["setup_s"], "s", 1),
        "latency_p50_ms.low": over_segments(lows, 0.5),
        "latency_p90_ms.low": over_segments(lows, benchlib.TAIL_Q),
        "latency_p50_ms.high": over_segments(highs, 0.5),
        "latency_p90_ms.high": over_segments(highs, benchlib.TAIL_Q),
        "capacity_qps": (capacity, "1/s", len(visited)),
        "ok_share": ((sent - failed) / sent, "share", sent),
        "peak_rss_mb": (stop["peak_rss_mb"], "MB", 1),
        "train_samples_per_s": (tr["train_candidates"] * tr["epochs"] /
                                tr["train_s"], "1/s", tr["train_candidates"]),
        "replay_candidates_per_s": (
            rp["candidates"] / median([r["seconds"] for r in replays]), "1/s",
            rp["candidates"] * len(replays)),
        "map_at_20": (rp["map_at_20"], "score", rp["requests"]),
    }
    attempted = (sum(p["attempted"] for p in s.phases) + ver["requests"] +
                 rp["requests"] * len(replays))
    log("ladder", visited, "-> capacity", capacity)
    for p in lows + highs:
        log("tails", p["name"], p["tails"])
    return metrics, attempted, failed


def train_e2e(h, cfg, seed, ref):
    prep = h("prepare 0 1")
    check(prep["epoch_losses"] == ref["epoch_losses"],
          "epoch losses differ from the bundle's training")
    check(prep["map_at_20"] == ref["map_at_20"],
          "MAP@20 differs from the bundle's training")
    rp = h("train-replay %d 0" % seed)
    check(rp["score_mismatches"] == 0, "store-tier scores diverged")
    check(rp["map_at_20"] == ref["map_at_20"], "store-tier MAP@20 differs")
    check(rp["tier_store"] > 0, "the replay never reached the store tier")
    low = benchlib.read_f64(os.path.join(WORK, "replay_low.lat_ms.f64"))
    high = benchlib.read_f64(os.path.join(WORK, "replay_high.lat_ms.f64"))
    setup = (prep["world_generate_s"] + prep["features_build_s"] +
             prep["task_build_s"])
    log("tails low", {q: benchlib.windowed_quantile(low, q / 100)
                      for q in (90, 95, 99)},
        "high", {q: benchlib.windowed_quantile(high, q / 100)
                 for q in (90, 95, 99)})
    passes = len(rp["pass_s"])
    attempted = rp["requests"] * passes + rp["high_requests"]
    failed = rp["failed_requests"]
    metrics = {
        "setup_s": (setup, "s", 1),
        "latency_p50_ms.low": (benchlib.quantile(low, 0.5), "ms", len(low)),
        "latency_p90_ms.low": (benchlib.windowed_quantile(low, benchlib.TAIL_Q), "ms",
                               len(low)),
        "latency_p50_ms.high": (benchlib.quantile(high, 0.5), "ms", len(high)),
        "latency_p90_ms.high": (benchlib.windowed_quantile(high, benchlib.TAIL_Q), "ms",
                                len(high)),
        "capacity_qps": (rp["high_requests"] / len(rp["high_round_s"]) /
                         median(rp["high_round_s"]), "1/s",
                         rp["high_requests"]),
        "ok_share": ((attempted - failed) / attempted, "share", attempted),
        "peak_rss_mb": (rp["peak_rss_mb"], "MB", 1),
        "train_samples_per_s": (prep["train_candidates"] * prep["epochs"] /
                                prep["train_s"], "1/s",
                                prep["train_candidates"]),
        "replay_candidates_per_s": (
            rp["candidates"] / (median(rp["store_build_s"]) +
                                median(rp["pass_s"])),
            "1/s", rp["candidates"] * passes),
        "map_at_20": (rp["map_at_20"], "score", rp["requests"]),
    }
    return metrics, attempted, failed


# ---- traced runs -------------------------------------------------------------


def traced_serving_phases(h, cfg, seed, scale):
    """Low phase with the decorator off and on (the tracing overhead), then
    the high phase traced; in-process server, same schedule and socket."""
    s = Serving(h, cfg, seed, scale)
    h("start-inproc 0")
    s.run("warm", cfg["high_qps"], s.seconds("warm"))
    plain = s.measured("low", cfg["low_qps"], s.seconds("low"))
    h("stop-server")
    h("start-inproc 1")
    s.n = 0  # the traced low phase replays the untraced one's schedule
    s.run("warm", cfg["high_qps"], s.seconds("warm"))
    low = s.measured("low", cfg["low_qps"], s.seconds("low"))
    high = s.measured("high", cfg["high_qps"], s.seconds("high"))
    # Coalescing shows at saturation: batch shape from the overload probe
    # (twice the high rate where a workload has no probe of its own).
    sat = s.run("overload", cfg.get("overload_qps", 2 * cfg["high_qps"]),
                s.seconds("overload") if "overload" in cfg["phase_seconds"]
                else 0.5 * scale)
    h("stop-server")

    def f64(ph, kind):
        return benchlib.read_f64(os.path.join(WORK, ph + "." + kind + ".f64"))

    admit = f64(high["name"], "admit_ms")
    handle = f64(high["name"], "handle_ms")
    back = f64(low["name"], "back_ms")
    p50_plain = benchlib.quantile(plain["lat"], 0.5)
    p50_traced = benchlib.quantile(low["lat"], 0.5)
    return low, {
        "client.encode_us": (low["client_encode_us"], "us", low["sent"]),
        "client.decode_us": (low["client_decode_us"], "us", low["ok"]),
        "client.request_bytes": (low["client_request_bytes"], "bytes",
                                 low["sent"]),
        "client.response_bytes": (low["client_response_bytes"], "bytes",
                                  low["ok"]),
        "client.send_lag_ms_p99": (max(low["verdict"]["lag_p99_ms"],
                                       high["verdict"]["lag_p99_ms"]), "ms",
                                   low["sent"] + high["sent"]),
        "serve.admit_to_handle_ms_p50": (benchlib.quantile(admit, 0.5), "ms",
                                         len(admit)),
        "serve.admit_to_handle_ms_p99": (benchlib.quantile(admit, 0.99), "ms",
                                         len(admit)),
        "serve.handle_ms_p50": (benchlib.quantile(handle, 0.5), "ms",
                                len(handle)),
        "serve.handle_ms_p99": (benchlib.quantile(handle, 0.99), "ms",
                                len(handle)),
        "serve.worker_busy_share": (high["worker_busy_share"], "share",
                                    high["handler_calls"]),
        "serve.batch_size_mean": (sat["batch_size_mean"], "count",
                                  sat["handler_calls"]),
        "serve.handler_calls": (sat["handler_calls"], "count", 1),
        "serve.handle_to_recv_ms_p50": (benchlib.quantile(back, 0.5), "ms",
                                        len(back)),
        "trace.overhead_pct": (100.0 * (p50_traced - p50_plain) / p50_plain,
                               "%", len(low["lat"])),
    }


def stage_metrics(st):
    check(st["mismatches"] == 0, "stage replay scores differ from "
          "ScoreTweetInto")
    closure = benchlib.stage_closure(st["stage_ns"], st["engine_ns"])
    n, c = st["requests"], st["candidates"]
    return {
        "engine.score_tweet_us_p50": (benchlib.quantile(st["engine_us"], 0.5),
                                      "us", n),
        "engine.tweet_cache_hit_ratio": (st["tweet_cache_hit_ratio"], "share",
                                         n),
        "engine.user_cache_hit_ratio": (st["user_cache_hit_ratio"], "share", c),
        "engine.stage_closure": (closure, "ratio", n),
        "features.tweet_context_us": (st["tweet_context_us"], "us", n),
        "graph.bfs_us": (st["bfs_us"], "us", n),
        "features.history_block_us": (st["history_block_us"], "us", n),
        "features.assemble_row_us": (st["assemble_row_us"], "us", c),
        "retina.forward_us_per_candidate": (st["forward_us_per_candidate"],
                                            "us", c),
    }


def store_metrics(rp):
    found = benchlib.read_f64(os.path.join(WORK, "store_found_us.f64"))
    absent = benchlib.read_f64(os.path.join(WORK, "store_absent_us.f64"))
    tiers = rp["tier_warm"] + rp["tier_store"] + rp["tier_compute"]
    return {
        "store.build_s": (median(rp["store_build_s"]), "s",
                          len(rp["store_build_s"])),
        "store.lookup_us.found": (benchlib.quantile(found, 0.5), "us",
                                  len(found)),
        "store.lookup_us.absent": (benchlib.quantile(absent, 0.5), "us",
                                   len(absent)),
        "store.tier_share.warm": (rp["tier_warm"] / tiers, "share", tiers),
        "store.tier_share.store": (rp["tier_store"] / tiers, "share", tiers),
        "store.tier_share.compute": (rp["tier_compute"] / tiers, "share",
                                     tiers),
    }


def traced(h, cfg, seed, scale, ref):
    m = {}
    prep = h("prepare 0 %d" % (1 if cfg["kind"] == "train" else 0))
    m["setup.world_generate_s"] = (prep["world_generate_s"], "s", 1)
    m["setup.features_build_s"] = (prep["features_build_s"], "s", 1)
    m["setup.task_build_s"] = (prep["task_build_s"], "s", 1)
    if cfg["kind"] == "train":
        check(prep["epoch_losses"] == ref["epoch_losses"],
              "epoch losses differ from the bundle's training")
        rp = h("train-replay %d 1" % seed)
        check(rp["score_mismatches"] == 0, "store-tier scores diverged")
        m.update(store_metrics(rp))
        m.update(stage_metrics(h("stage-replay-groups 150")))
    loaded = h("load-bundle")
    for k in ("import_world_s", "checkpoint_read_s", "retina_load_s",
              "extractor_restore_s"):
        m["setup." + k] = (loaded[k], "s", 1)
    one = h("train-epochs 1 1")
    four = h("train-epochs 1 4")
    check(one["epoch_losses"] == four["epoch_losses"] and
          one["epoch_losses"][0] == ref["epoch_losses"][0],
          "training losses differ across thread counts")
    m["train.retina_train_s"] = (four["train_s"], "s", four["train_candidates"])
    m["par.train_speedup_4v1"] = (one["train_s"] / four["train_s"], "ratio", 1)
    low, phase_metrics = traced_serving_phases(h, cfg, seed, scale)
    m.update(phase_metrics)
    if cfg["kind"] == "serving":
        # The traced low phase's own request stream.
        m.update(stage_metrics(h("stage-replay %r %r %d 400" % (
            low["qps"], cfg["phase_seconds"]["low"] * scale, low["seed"]))))
        rp = h("train-replay %d 1" % seed)
        check(rp["score_mismatches"] == 0, "store-tier scores diverged")
        m.update(store_metrics(rp))
    closure = m["engine.stage_closure"][0]
    log("stage closure %.3f" % closure)
    check(abs(closure - 1.0) <= 0.1, "stage closure %.3f is more than 10%% "
          "off 1.0: the stage list misses work" % closure)
    return m


# ---- main -------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        raise SystemExit("perfbench: unknown workload %r (have %s)" %
                         (args.workload, ", ".join(sorted(workloads))))
    cfg = workloads[args.workload]
    if args.seed < 0:
        raise SystemExit("perfbench: --seed must be >= 0")
    scale = args.seconds / 10.0

    build()
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)

    def on_deadline(signum, frame):
        raise CheckFailed("run exceeded %d s" % RUN_DEADLINE_S)

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(RUN_DEADLINE_S)
    result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    meta = {}
    h = None
    try:
        ref = ensure_bundle(cfg)
        h = Harness(cfg)
        meta = {
            "nproc": os.cpu_count(),
            "simd": ref["simd"],
            "obs_compiled_in": ref["obs_compiled_in"],
            "obs_enabled": ref["obs_enabled"],
            "compiler": "g++ " + ref["compiler"],
            "build_type": ref["build_type"],
            "commit": source_commit(),
            "world": {k: ref[k] for k in ("num_tweets", "num_users",
                                          "num_headlines")},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
        }
        if args.trace:
            metrics = traced(h, cfg, args.seed, scale, ref)
            attempted, failed = 1, 0
        elif cfg["kind"] == "serving":
            metrics, attempted, failed = serving_e2e(h, cfg, args.seed, scale,
                                                     ref)
        else:
            metrics, attempted, failed = train_e2e(h, cfg, args.seed, ref)
        result = {
            "correct": True,
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u, _) in sorted(metrics.items())},
        }
        for k, (v, u, n) in sorted(metrics.items()):
            log("%-34s %14.6g %-6s (n=%d)" % (k, v, u, n))
        meta["samples"] = {k: n for k, (_, _, n) in metrics.items()}
    except CheckFailed as e:
        log("CHECK FAILED:", e)
    finally:
        signal.alarm(0)
        if h is not None:
            h.close()
    out = dict(result, meta=meta)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RESULTS, name), "w") as f:
        json.dump(out, f, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
