#!/usr/bin/env python3
"""Steadiness runs: each workload at several seeds, with spreads.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10]
                                [--seconds 20] [--seed-base 1000]
                                [--trace 0|1] [--out FILE]
    python3 perfbench/steady.py --compare FIRST.jsonl SECOND.jsonl

Runs perfbench/run.py once per (workload, seed), one at a time, and
prints per workload and metric the median, the quartiles (Python's
statistics.quantiles(n=4)) and the interquartile range as a share of
the median. The raw results go to --out as JSON lines (default
.bench_build/steady.jsonl). The benchmark's bounds are read from
BENCHMARK.json, and a spread at or above a third of a bound is flagged.

--compare reads two such files, made by two sets of runs of the same
code, and also prints how far the second set's median of each metric
lies from the first's, flagging a metric worse by more than its bound,
and whether the share of failed operations is the same in both.
"""

import argparse
import json
from fractions import Fraction
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(root, workload, seed, seconds, trace):
    """One benchmark run in checkout @p root; returns its result dict."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s seed %d: no result (rc %d)\n%s"
                           % (workload, seed, proc.returncode, proc.stderr))
    result = json.loads(lines[-1])
    result["passes"] = [float(line.split()[2]) for line in lines
                        if line.startswith("timed pass:")]
    result["workload"] = workload
    result["seed"] = seed
    result["rc"] = proc.returncode
    return result


def summary(values):
    """Median, quartiles and IQR / median of @p values."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m.get("bound") for m in bench["end_to_end"]}


def by_workload(results):
    grouped = {}
    for r in results:
        grouped.setdefault(r["workload"], []).append(r)
    return grouped


def failed_share(runs):
    """Distinct failed / attempted shares of @p runs, as fractions."""
    return sorted({Fraction(r["failed"], r["attempted"]) for r in runs})


def report(results, bound_of):
    """Spread of every metric; a spread at or above bound / 3 is flagged."""
    for workload, runs in by_workload(results).items():
        correct = all(r["correct"] for r in runs)
        print("%s: %d runs, correct=%s, failed share %s"
              % (workload, len(runs), correct,
                 [str(f) for f in failed_share(runs)]))
        for name in runs[0]["metrics"]:
            s = summary([r["metrics"][name]["value"] for r in runs])
            bound = bound_of.get(name)
            flag = ""
            if bound and s["spread"] >= bound / 3:
                flag = "  <-- spread >= bound/3"
            print("  %-14s median %.6g  q1 %.6g  q3 %.6g  IQR/median %.4f%s"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"],
                     flag))


def compare(first, second, bound_of):
    """Second set's median against the first's, as a share of it."""
    a, b = by_workload(first), by_workload(second)
    for workload in a:
        if workload not in b:
            continue
        same = failed_share(a[workload]) == failed_share(b[workload])
        print("%s: failed share %s" % (
            workload, "equal" if same else "DIFFERS"))
        for name in a[workload][0]["metrics"]:
            ma = statistics.median(
                r["metrics"][name]["value"] for r in a[workload])
            mb = statistics.median(
                r["metrics"][name]["value"] for r in b[workload])
            shift = (mb - ma) / ma
            bound = bound_of.get(name)
            flag = ""
            if bound and shift > bound:
                flag = "  <-- worse by more than the bound"
            print("  %-14s median %.6g -> %.6g  shift %+.4f%s"
                  % (name, ma, mb, shift, flag))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out",
                        default=os.path.join(ROOT, ".bench_build",
                                             "steady.jsonl"))
    parser.add_argument("--compare", nargs=2, metavar="FILE")
    args = parser.parse_args()

    if args.compare:
        first, second = (load(path) for path in args.compare)
        report(first, bounds())
        report(second, bounds())
        compare(first, second, bounds())
        return

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    results = []
    with open(args.out, "w") as out:
        for workload in workloads:
            for i in range(args.runs):
                r = run_once(ROOT, workload, args.seed_base + i, seconds,
                             args.trace)
                results.append(r)
                out.write(json.dumps(r) + "\n")
                out.flush()
                print("%s seed %d: %s" % (workload, r["seed"], {
                    k: round(v["value"], 6)
                    for k, v in r["metrics"].items()}), flush=True)
    report(results, bounds())


if __name__ == "__main__":
    main()
