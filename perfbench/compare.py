#!/usr/bin/env python3
"""Compares two perfbench results, metric by metric.

    python3 perfbench/compare.py BEFORE.json AFTER.json

The files are the ones run.py writes under .bench_build/perfbench/results/.
Results from machines with another core count or SIMD dispatch are refused
(exit 2): their numbers do not measure the same thing.
"""

import json
import sys

import benchlib


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        before = json.load(f)
    with open(argv[2]) as f:
        after = json.load(f)
    differ = benchlib.comparable(before.get("meta", {}), after.get("meta", {}))
    if differ:
        print("refusing to compare: %s differ" % ", ".join(differ),
              file=sys.stderr)
        return 2
    for name in sorted(set(before["metrics"]) | set(after["metrics"])):
        a = before["metrics"].get(name, {}).get("value")
        b = after["metrics"].get(name, {}).get("value")
        ratio = "" if not a or b is None else "%.4f" % (b / a)
        print("%-34s %14s %14s %8s" % (name, a, b, ratio))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
