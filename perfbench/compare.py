#!/usr/bin/env python3
"""Compare two saved outputs of perfbench/run.py, metric by metric.

    python3 perfbench/compare.py before.txt after.txt

Refuses (exit 1) unless both runs saw the same inputs: the same workload and
seed, the same realised graph (|V|, |E|, SLen rows) and, for every scenario
both runs timed, the same pattern and update uids. The graph depends on the
Spark session (partitioning follows its core count), so a run on another
session setting is refused here instead of being compared silently.
"""
import json
import sys


def load(path):
    fingerprint, result = None, None
    with open(path) as f:
        for line in f:
            if line.startswith("fingerprint "):
                fingerprint = json.loads(line[len("fingerprint "):])
            elif line.startswith("{"):
                result = json.loads(line)
    if fingerprint is None or result is None:
        sys.exit(f"{path}: no fingerprint or result line")
    return fingerprint, result


def same_inputs(a, b):
    if (a["workload"], a["seed"], a["graph"]) != (b["workload"], b["seed"], b["graph"]):
        return False
    sa = {s["index"]: s for s in a["scenarios"]}
    sb = {s["index"]: s for s in b["scenarios"]}
    return all(sa[i] == sb[i] for i in sa.keys() & sb.keys())


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    (fa, ra), (fb, rb) = load(sys.argv[1]), load(sys.argv[2])
    if not same_inputs(fa, fb):
        print("refused: the runs' input fingerprints differ", file=sys.stderr)
        sys.exit(1)
    for name in sorted(ra["metrics"].keys() & rb["metrics"].keys()):
        x, y = ra["metrics"][name], rb["metrics"][name]
        change = f"{100 * (y['value'] - x['value']) / x['value']:+.1f}%" if x["value"] else "n/a"
        print(f"{name:32s} {x['value']:14.4f} -> {y['value']:14.4f} {x['unit']:6s} {change}")


if __name__ == "__main__":
    main()
