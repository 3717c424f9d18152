#!/usr/bin/env python3
"""Same-machine A/B comparison of this tree against another revision.

    python3 perfbench/ab.py --rev REV [--workloads a,b] [--pairs 10]
                            [--seconds S] [--seed-base 5000] [--trace 0|1]

Side A is the working tree. Side B is git revision REV, exported out of
tree into .bench_build/ab/<sha> with this tree's perfbench/ copied over
it, so both sides run identical benchmark code and differ only in the
library sources. Each pair runs both sides on the same seed, one after
the other, alternating which side goes first. For every workload and
metric it prints each side's median and quartiles, B's median as a share
of A's, and how many pairs B won (ties count for neither). Raw results
go to .bench_build/ab/results.jsonl.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

from steady import ROOT, run_once, summary


def export_revision(rev):
    """Export @p rev's tree with this tree's benchmark; return its root."""
    sha = subprocess.check_output(["git", "-C", ROOT, "rev-parse", rev],
                                  text=True).strip()
    dest = os.path.join(ROOT, ".bench_build", "ab", sha[:12])
    if not os.path.isdir(os.path.join(dest, "src")):
        os.makedirs(dest, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.check_call(["tar", "-x", "-C", dest],
                              stdin=archive.stdout)
        if archive.wait() != 0:
            sys.exit("ab: git archive %s failed" % rev)
    bench = os.path.join(dest, "perfbench")
    shutil.rmtree(bench, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def better(name, a, b, directions):
    """@return +1 when B beats A on metric @p name, -1 when A wins."""
    if a == b:
        return 0
    lower = directions.get(name, "lower") == "lower"
    return 1 if (b < a) == lower else -1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--seed-base", type=int, default=5000)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    directions = {m["name"]: m["better"]
                  for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    sides = {"A": ROOT, "B": export_revision(args.rev)}

    out_path = os.path.join(ROOT, ".bench_build", "ab", "results.jsonl")
    with open(out_path, "w") as out:
        for workload in workloads:
            runs = {"A": [], "B": []}
            for i in range(args.pairs):
                seed = args.seed_base + i
                for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
                    r = run_once(sides[side], workload, seed, seconds,
                                 args.trace)
                    r["side"] = side
                    runs[side].append(r)
                    out.write(json.dumps(r) + "\n")
                    out.flush()
            print("%s (%d pairs; A = working tree, B = %s)"
                  % (workload, args.pairs, args.rev))
            for side in ("A", "B"):
                failed = sorted({(r["failed"], r["attempted"])
                                 for r in runs[side]})
                print("  %s correct=%s failed/attempted %s" % (
                    side, all(r["correct"] for r in runs[side]), failed))
            for name in runs["A"][0]["metrics"]:
                a = [r["metrics"][name]["value"] for r in runs["A"]]
                b = [r["metrics"][name]["value"] for r in runs["B"]]
                sa, sb = summary(a), summary(b)
                wins = sum(better(name, x, y, directions) > 0
                           for x, y in zip(a, b))
                ratio = sb["median"] / sa["median"] if sa["median"] else 0
                print("  %-26s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g]"
                      "  B/A %.4f  B wins %d/%d"
                      % (name, sa["median"], sa["q1"], sa["q3"],
                         sb["median"], sb["q1"], sb["q3"], ratio, wins,
                         len(a)))
    print("raw results: " + os.path.relpath(out_path, ROOT))


if __name__ == "__main__":
    main()
