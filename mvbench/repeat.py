#!/usr/bin/env python3
"""Repeatability check: two interleaved sets of runs of every workload.

Run from the root of the repository:

    python3 mvbench/repeat.py [--runs 10] [--workloads a,b,...]

For each run index i it runs, for every workload, set A with seed i and then
set B with seed 100 + i, all through mvbench/run.py with the run length of
BENCHMARK.json. It then prints, per workload and end-to-end metric, each
set's median and quartiles (Python's statistics.quantiles, n=4), the spread
(quartile distance over the median) and the gap between the two medians,
next to the metric's bound. A metric is flagged when its spread exceeds a
third of its bound, when either set's spread exceeds the bound, or when the
sets' medians differ by more than the bound in the worse direction. The failed-operation shares of the two sets must be equal. The
raw results are kept in .bench_out/repeat.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(bench, workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("run failed: %s\n%s" % (" ".join(cmd), out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(1, args.runs + 1):
        for w in workloads:
            for name, seed in (("A", i), ("B", 100 + i)):
                r = run_once(bench, w, seed)
                results[w][name].append(r)
                print("%s set %s seed %d: attempted %d failed %d" %
                      (w, name, seed, r["attempted"], r["failed"]), flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "repeat.json"), "w") as f:
        json.dump(results, f)

    ok = True
    for w in workloads:
        print("\n%s" % w)
        print("  %-16s %-7s %12s %12s %12s %7s %12s %12s %7s %7s %6s" %
              ("metric", "unit", "A median", "A q1", "A q3", "A spr",
               "B median", "B q1/q3", "B spr", "gap", "bound"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = {s: summary([r["metrics"][name]["value"]
                                for r in results[w][s]]) for s in ("A", "B")}
            a, b = sets["A"], sets["B"]
            gap = (b["median"] - a["median"]) / a["median"]
            worse = gap if m["better"] == "lower" else -gap
            flags = []
            for s in ("A", "B"):
                if sets[s]["spread"] > bound:
                    flags.append("spread %s > bound" % s)
                    ok = False
                elif sets[s]["spread"] > bound / 3:
                    flags.append("spread %s > bound/3" % s)
            if worse > bound:
                flags.append("gap > bound")
                ok = False
            print("  %-16s %-7s %12.5g %12.5g %12.5g %7.3f %12.5g %5.4g/%-6.4g "
                  "%7.3f %+7.3f %6.2f %s" %
                  (name, m["unit"], a["median"], a["q1"], a["q3"], a["spread"],
                   b["median"], b["q1"], b["q3"], b["spread"], gap, bound,
                   " ".join(flags)))
        shares = {s: (sum(r["failed"] for r in results[w][s]),
                      sum(r["attempted"] for r in results[w][s]))
                  for s in ("A", "B")}
        print("  failed/attempted: A %d/%d, B %d/%d" %
              (shares["A"] + shares["B"]))
        if shares["A"][0] * shares["B"][1] != shares["B"][0] * shares["A"][1]:
            ok = False
            print("  failed shares differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
