"""Summarize benchmark results across runs, optionally as a baseline record.

    python3 benchmarks/summarize.py .bench_out/*/result.json
    python3 benchmarks/summarize.py --baseline benchmarks/baseline.json .bench_out/*/result.json

For each workload and metric it prints the median, the quartiles and the
spread (interquartile distance over the median) of the runs given, and
whether every run of one seed gave the same output digest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

from common import incomparable


def spread(values) -> tuple:
    """(median, first quartile, third quartile, interquartile distance over
    the median, or None for a zero median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else None


def summarize(records) -> dict:
    envs = [r["environment"] for r in records]
    problems = sorted({f"not comparable: {d}" for e in envs[1:] for d in incomparable(envs[0], e)})
    out = {"environment": envs[0], "problems": problems, "workloads": {}}
    digests = defaultdict(set)
    for r in records:
        digests[(r["workload"], str(r["seed"]))].add(r["digest"])
    for (workload, seed), found in sorted(digests.items()):
        if len(found) > 1:
            problems.append(f"{workload} seed {seed}: {len(found)} different digests")
        entry = out["workloads"].setdefault(workload, {"digests": {}, "metrics": {}})
        entry["digests"][seed] = sorted(found)[0]
    groups = defaultdict(list)
    for r in records:
        groups[(r["workload"], r["trace"])].append(r)
    for (workload, trace), runs in sorted(groups.items()):
        entry = out["workloads"][workload]
        kind = "traced_runs" if trace else "runs"
        entry[kind] = len(runs)
        entry[f"{kind}_seconds"] = sorted({r["seconds"] for r in runs})
        entry[f"{kind}_failed"] = sum(r["failed"] > 0 for r in runs)
        for name in sorted({n for r in runs for n in r["metrics"]}):
            values = [r["metrics"][name] for r in runs if name in r["metrics"]]
            med, q1, q3, sp = spread(values)
            entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                                      "n": len(values), "traced": bool(trace)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("results", nargs="+", help="result.json files written by run.py")
    p.add_argument("--baseline", help="write the summary to this file")
    args = p.parse_args(argv)
    records = [json.load(open(path)) for path in args.results]
    summary = summarize(records)
    for workload, entry in summary["workloads"].items():
        print(f"{workload}: {entry.get('runs', 0)} runs, {entry.get('traced_runs', 0)} traced")
        for name, m in entry["metrics"].items():
            sp = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:28s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} spread {sp}")
    for problem in summary["problems"]:
        print(f"PROBLEM: {problem}")
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if summary["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
