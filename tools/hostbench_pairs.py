#!/usr/bin/env python3
"""Alternating parent/change pairs of the host benchmark, with a verdict.

    tools/hostbench_pairs.py PARENT_REV WORKLOAD --pairs N --first-seed S

Extracts PARENT_REV (any git revision) into a temporary directory, removed
on exit, and runs `python3 hostbench/run.py --workload WORKLOAD --seed SEED
--seconds T` there and in the working tree, N times each. Pair i runs seed
S + i - 1 on both sides, the parent first on odd pairs; T is
BENCHMARK.json's `run_seconds`. Each run's JSON line is printed as it
ends.

Then, for each end-to-end metric in BENCHMARK.json, it prints both
medians, the parent's quartiles, the pairs the change won (ties count for
neither), and a verdict:
  gain            the change won at least 9 of 10 pairs and the medians
                  differ, in its favour, by more than the parent's
                  interquartile distance;
  unresolved      the parent's interquartile distance exceeds the metric's
                  bound (relative to its median), unless every change run
                  beats every parent run;
  worse           the change's median is worse than the parent's by more
                  than the bound;
  within bound    otherwise.
A run that is not `correct: true` with 0 failed operations is flagged.
The exit code is 0 unless a run is flagged, failed, or a metric is worse.

It reads only BENCHMARK.json (the working tree's) and hostbench/; the
parent is extracted with `git archive`, so the repository's .git gains no
state even if a run is killed.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev, dest):
    """Writes the tree of git revision `rev` into `dest`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")


def run(checkout, workload, seed, seconds):
    """One hostbench run in `checkout`; its final JSON object, or None."""
    # run.py builds under $CARGO_TARGET_DIR when it is set, which would put
    # both sides in one build tree; without it each side builds in its own
    # checkout's .bench_build/.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    p = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(p.stderr[-4000:])
        return None


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """The choosing-metrics rule for one metric over paired runs."""
    sign = 1 if better == "higher" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if wins >= 0.9 * len(parent) and sign * (cm - pm) > q3 - q1:
        return wins, "gain"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if pm and (q3 - q1) / abs(pm) > bound and not all_better:
        return wins, "unresolved"
    if pm and sign * (pm - cm) / abs(pm) > bound:
        return wins, "worse"
    return wins, "within bound"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_rev")
    ap.add_argument("workload")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    results = {"parent": [], "change": []}
    ok = True
    with tempfile.TemporaryDirectory(prefix="hostbench-parent-") as tmp:
        extract(args.parent_rev, tmp)
        sides = {"parent": Path(tmp), "change": ROOT}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                res = run(sides[side], args.workload, seed, seconds)
                if res is None:
                    print(f"{side} seed={seed}: no result", flush=True)
                    return 1
                print(f"{side} seed={seed}: {json.dumps(res)}", flush=True)
                if not res["correct"] or res["failed"]:
                    print(f"FLAG {side} seed={seed}: correct="
                          f"{res['correct']}, failed {res['failed']} of "
                          f"{res['attempted']}", flush=True)
                    ok = False
                results[side].append(res["metrics"])

    n = args.pairs
    print(f"\n{args.workload}: {n} pairs, {seconds} s runs, seeds "
          f"{args.first_seed}-{args.first_seed + n - 1}, parent "
          f"{args.parent_rev}")
    print(f"{'metric':<18} {'better':<6} {'bound':>5}  {'parent median':>13} "
          f"{'parent q1-q3':>23}  {'change median':>13}  {'wins':>5}  verdict")
    for m in bench["end_to_end"]:
        name = m["name"]
        parent = [r[name]["value"] for r in results["parent"]]
        change = [r[name]["value"] for r in results["change"]]
        wins, v = verdict(parent, change, m["better"], m["bound"])
        q1, q3 = quartiles(parent)
        print(f"{name:<18} {m['better']:<6} {m['bound']:>5.0%}  "
              f"{statistics.median(parent):>13.5g} "
              f"{f'{q1:.5g}-{q3:.5g}':>23}  "
              f"{statistics.median(change):>13.5g}  {wins:>2}/{n:<2}  {v}")
        ok = ok and v != "worse"
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
