"""Run alternating pairs of one benchmark workload in two checkouts and
summarise them.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload full --seed 53 --pairs 10 --out full_pairs.json

Pair ``i`` runs ``benchmarks/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout: odd pairs run the parent first, even
pairs the change first, so drift in the host's load falls on both sides
alike.  Each run's metrics, digest, failed count and environment block
come from the ``result.json`` the runner leaves under the checkout's
``.bench_out/``.  The output holds the workload's ``summary``, ``pairs``
and ``runs`` in the layout of the ``BENCH_*.json`` records and is
rewritten after every pair.  The bounds come from the parent checkout's
``BENCHMARK.json``.  Neither checkout's ``benchmarks/`` nor its
``BENCHMARK.json`` is changed.  Standard library only; the
``OPENBLAS_NUM_THREADS`` of the caller passes through to every run.

The reading rule, per metric: each pair gives the log-ratio
ln(change / parent).  The summary holds their median, a percentile
bootstrap 95% interval for that median (resampling the pairs with a
fixed seed) and an exact two-sided sign-test p-value over the pairs
that differ.  A metric "moved" when its interval excludes 0, and moved
"beyond bound" when the whole interval lies past the bound on the worse
side: above ln(1 + bound) where lower is better, below ln(1 - bound)
where higher is better.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
RESAMPLES, BOOTSTRAP_SEED = 10_000, 0


def end_to_end(spec: dict) -> dict:
    """Metric name -> (better, bound) for BENCHMARK.json's end-to-end metrics."""
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def quartiles(values) -> dict:
    """Median and quartiles, interpolated over the closed range of values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def bootstrap_interval(values) -> tuple:
    """Percentile bootstrap 95% interval of the median of ``values``."""
    rng = random.Random(BOOTSTRAP_SEED)
    medians = [statistics.median(rng.choices(values, k=len(values))) for _ in range(RESAMPLES)]
    cuts = statistics.quantiles(medians, n=40, method="inclusive")
    return cuts[0], cuts[-1]


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def paired(parent, change, better: str, bound: float) -> dict:
    """The reading rule (module docstring) for one metric's pairs."""
    logs = [math.log(c / p) for p, c in zip(parent, change)]
    median = statistics.median(logs)
    lo, hi = bootstrap_interval(logs)
    worse = lo > math.log1p(bound) if better == "lower" else hi < math.log1p(-bound)
    pct = [f"{100 * math.expm1(x):+.1f}%" for x in (median, lo, hi)]
    return {"log_ratio_median": round(median, 4), "log_ratio_ci95": [round(lo, 4), round(hi, 4)],
            "paired_change": f"{pct[0]} [{pct[1]}, {pct[2]}]",
            "sign_test_p": round(sign_test(sum(x > 0 for x in logs), sum(x < 0 for x in logs)), 4),
            "moved": lo > 0 or hi < 0, "beyond_bound": worse}


def summarize(pairs, metrics: dict) -> dict:
    """Per metric: each side's median and quartiles, the pairs in which the
    change is strictly better (ties count for neither side), the relative
    change of the medians, the parent's interquartile range, whether
    the change's median is worse than the parent's by more than the
    bound, a fraction of the parent's median, and the paired reading
    rule's fields (``paired``)."""
    summary = {}
    for name, (better, bound) in metrics.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        rel = (c_med - p_med) / p_med
        p_q = quartiles(parent)
        summary[name] = {
            "parent": p_q,
            "change": quartiles(change),
            "change_better_in": f"{wins}/{len(pairs)}",
            "median_change": f"{100 * rel:+.1f}%",
            "parent_iqr": round(p_q["q3"] - p_q["q1"], 4),
            "bound": bound,
            "worse_than_bound": sign * rel > bound,
            **paired(parent, change, better, bound),
        }
    return summary


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of the checkout's benchmark; returns its result.json."""
    result = checkout / ".bench_out" / f"{workload}-seed{seed}-trace0" / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if not result.is_file():
        raise SystemExit(f"{checkout}: no result.json (exit {done.returncode}):\n{done.stderr}")
    return json.loads(result.read_text())


def record(workload: str, pairs: list, runs: list, metrics: dict) -> dict:
    return {"workload": workload,
            "digests_equal_across_all_runs": len({r["digest"] for r in runs}) == 1,
            "summary": summarize(pairs, metrics) if len(pairs) > 1 else {},
            "pairs": pairs, "runs": runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = end_to_end(json.loads((checkouts["parent"] / "BENCHMARK.json").read_text()))
    pairs, runs = [], []
    for i in range(1, args.pairs + 1):
        order = SIDES if i % 2 else SIDES[::-1]
        pair = {"pair": i, "first": order[0]}
        for side in order:
            res = run_once(checkouts[side], args.workload, args.seed, args.seconds)
            runs.append({"side": side, "pair": i, "seed": args.seed, "seconds": args.seconds,
                         "digest": res["digest"], "attempted": res["attempted"],
                         "failed": res["failed"], "environment": res["environment"]})
            pair[side] = {name: round(res["metrics"][name], 4) for name in metrics}
            pair[f"{side}_failed"] = res["failed"]
            print(f"pair {i} {side}: failed {res['failed']}, "
                  + ", ".join(f"{k} {v:g}" for k, v in pair[side].items()), file=sys.stderr)
        pairs.append({k: pair[k] for k in ("pair", "first", "parent", "parent_failed",
                                           "change", "change_failed")})
        args.out.write_text(json.dumps(record(args.workload, pairs, runs, metrics), indent=1)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
