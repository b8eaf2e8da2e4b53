"""Run one benchmark workload of the urex library and print its metrics.

    python3 benchmarks/run.py --workload desk --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``urex`` from its
``src/``.  The run does as many rounds of the workload's training as
fill ``--seconds`` at the defining commit, checks the outputs, and prints a report
followed by one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the library's public entry points are wrapped in
timing spans and the per-module metrics are reported instead.  Results
and spans are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BASELINE = HERE / "baseline.json"

WORKLOAD_NAMES = ("desk", "full", "qlearn", "bandit")
DEFAULT_SEED = 0  # the seed the baseline digests were recorded with
MIN_SAMPLES = 100  # per-update latencies, so p90 has 10 beyond it
MAX_MEASURE_S = 140.0  # leaves room within the 180 s a run may take
SETUP_PROBES = 5


def benchmark_spec() -> dict:
    """BENCHMARK.json: the workloads, and the metrics each kind of run reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them for this kind of run."""
    return {m["name"]: m["unit"] for m in benchmark_spec()["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not 0 < args.seconds <= MAX_MEASURE_S:
        p.error(f"--seconds must lie in (0, {MAX_MEASURE_S:g}]")
    return args


def import_library():
    """Import urex from this checkout's sources, never from elsewhere."""
    if not (SRC / "urex" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'urex'} not found; run from a urex source checkout")
    sys.path[:0] = [str(HERE), str(SRC)]
    import urex
    if Path(urex.__file__).resolve().parent != SRC / "urex":
        raise SystemExit(f"error: imported urex from {urex.__file__}, not from {SRC}")


def measure_setup(workload: str, seed: int) -> list[float]:
    """Process start to ready-for-the-first-update, timed in fresh processes.

    The probe prints the wall-clock time at which it became ready, so its
    interpreter teardown is not counted.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        launched = time.time()
        probe = subprocess.run(cmd, cwd=ROOT, check=True, timeout=60, capture_output=True,
                               text=True)
        times.append(float(probe.stdout.split()[-1]) - launched)
    return times


class Run:
    """Counts and problems of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def run_rounds(workload, seeds, out_dir, run: Run):
    """Run one round per seed, in order; returns the outputs and wall times."""
    outputs, walls = [], []
    t_start = time.perf_counter()
    for seed in seeds:
        if time.perf_counter() - t_start > MAX_MEASURE_S:
            run.fail(f"stopped after {len(walls)} of {len(seeds)} rounds: "
                     f"over {MAX_MEASURE_S:g} s")
            break
        t0 = time.perf_counter()
        try:
            out = workload.run_round(seed, out_dir)
        except Exception:  # a failed update fails the run, not the benchmark
            run.fail("round raised:\n" + traceback.format_exc())
            break
        walls.append(time.perf_counter() - t0)
        outputs.append(out)
        run.attempted += out.updates
        for problem in out.problems:
            run.fail(problem)
    return outputs, walls


def check_digests(outputs, run: Run, reference=None) -> str | None:
    """Digest of the first round; fails the run unless the last round,
    which repeats the first round's seed, and ``reference`` give the
    same bits."""
    import common
    if not outputs:
        return None
    digests = [common.digest(o.digest_parts()) for o in (outputs[0], outputs[-1])]
    if reference is not None:
        digests.insert(0, reference)
    for problem in common.compare_digests(digests):
        run.fail(problem)
    return digests[0]


def untraced(workload, args, out_dir, run: Run):
    import common
    from workloads import round_seeds
    latencies = []
    owner, attr = workload.update_binding
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def timed(*a, **kw):
        t0 = time.perf_counter()
        try:
            return original(*a, **kw)
        finally:
            latencies.append((time.perf_counter() - t0) * 1e3)

    seeds = round_seeds(args.seed, workload.rounds(args.seconds, MIN_SAMPLES))
    with common.patched([(owner, attr, timed)]):
        outputs, walls = run_rounds(workload, seeds, out_dir, run)
    metrics = {"run_wall_s": sum(walls) if walls else math.nan,
               "peak_rss_mb": common.peak_rss_mb()}
    updates = sum(o.updates for o in outputs)
    metrics["train_steps_per_s"] = updates / (sum(latencies) / 1e3) if latencies else math.nan
    for q in (50, 90):
        try:
            metrics[f"step_ms_p{q}"] = common.percentile(latencies, q)
        except common.InsufficientSamples as err:
            run.fail(str(err))
            metrics[f"step_ms_p{q}"] = math.nan
    info = {"rounds": len(walls), "round_walls_s": walls, "latency_samples": len(latencies),
            "latency_unit": f"{workload.updates_per_call} update(s) per sample",
            "latencies_ms": latencies}
    return outputs, metrics, info, check_digests(outputs, run)


def traced(workload, args, out_dir, run: Run):
    from layers import OutputChecks, layer_metrics
    from tracer import Tracer, entry_point_name
    from workloads import round_seeds

    # half the untraced rounds, so that tracing overhead keeps the run near its budget
    seeds = round_seeds(args.seed, workload.rounds(args.seconds / 2, 0))
    # the first round untraced: the reference for tracing overhead and bits
    reference, ref_walls = run_rounds(workload, seeds[:1], out_dir, run)
    if not reference:
        return [], {}, {}, None
    ref_digest = check_digests(reference, run)
    tracer = Tracer(update_span=entry_point_name(*workload.update_binding))
    checks = OutputChecks(tracer)
    tracer.hooks.update(checks.hooks())
    with tracer.installed():
        outputs, walls = run_rounds(workload, seeds, out_dir, run)
    check_digests(outputs, run, reference=ref_digest)
    for problem in checks.problems:
        run.fail(problem)
    spans = tracer.arrays()
    np.savez_compressed(out_dir / "spans.npz", **spans)
    updates = sum(o.updates for o in outputs)
    metrics = layer_metrics(spans, updates, sum(walls), checks) if updates else {}
    metrics["traced_run_wall_s"] = sum(walls) if walls else math.nan
    # the same round, first untraced and then traced
    metrics["trace_overhead"] = walls[0] / ref_walls[0] if walls else math.nan
    info = {"rounds": len(walls), "round_walls_s": walls, "untraced_round_wall_s": ref_walls[0],
            "spans": len(spans["name"]), "traced_updates": updates,
            "checked_batches": checks.batches}
    return outputs, metrics, info, ref_digest


def baseline_note(workload: str, seed: int, digest: str, env: dict) -> str:
    import common
    if not BASELINE.is_file():
        return "no baseline recorded"
    base = json.loads(BASELINE.read_text())
    differs = common.incomparable(base["environment"], env)
    if differs:
        return "baseline not comparable: " + "; ".join(differs)
    recorded = base["workloads"].get(workload, {}).get("digests", {}).get(str(seed))
    if recorded is None:
        return f"baseline has no digest for seed {seed}"
    return "same bits as baseline" if recorded == digest else "bits differ from baseline"


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import common
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.setup(args.seed)
        print(time.time())
        return 0

    run = Run()
    setup_times = measure_setup(workload.name, args.seed)
    out_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    measure = traced if args.trace else untraced
    outputs, metrics, info, digest = measure(workload, args, out_dir, run)
    metrics["setup_s"] = statistics.median(setup_times)
    info["setup_times_s"] = setup_times

    final_reward = outputs[0].final_reward if outputs else math.nan
    if not math.isfinite(final_reward):
        run.fail(f"final reward {final_reward} is not finite")
    env = common.environment(ROOT)
    wanted = metric_units(bool(args.trace))
    for name in wanted:
        if not math.isfinite(metrics.get(name, math.nan)):
            run.fail(f"metric {name} was not measured")
    run.attempted = max(run.attempted, 1)

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "digest": digest,
              "final_reward": final_reward, "attempted": run.attempted, "failed": run.failed,
              "problems": run.problems, "metrics": metrics, "info": info}
    (out_dir / "result.json").write_text(json.dumps(record, indent=1, default=float) + "\n")

    print(f"environment: {json.dumps(env)}")
    why = {w["name"]: w["why"] for w in benchmark_spec()["workloads"]}
    print(f"workload {workload.name} seed {args.seed}: "
          f"{why.get(workload.name, 'supplementary, see benchmarks/README.md')}")
    for key, value in info.items():
        if not isinstance(value, list):
            print(f"  {key}: {value}")
    for name, value in sorted(metrics.items()):
        print(f"  {name} = {value:.6g}")
    print(f"final_reward = {final_reward:.6g} (mean training reward at the end of round 0)")
    print(f"digest {digest} ({baseline_note(workload.name, args.seed, digest, env)})"
          if digest else "digest: no output")
    for problem in run.problems:
        print(f"FAILED CHECK: {problem}")
    print(f"attempted {run.attempted}, failed {run.failed}, "
          f"failed_ratio {run.failed / run.attempted:.6g}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics.get(name, math.nan), "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
