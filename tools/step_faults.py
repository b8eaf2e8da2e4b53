"""Count the minor page faults of each training update of a benchmark workload.

    python3 tools/step_faults.py --workload full --updates 30 --seed 0

Runs ``--updates`` policy-gradient updates of the ``desk`` or ``full``
workload of ``benchmarks/workloads.py`` and prints, per update, the
minor page faults the process took (``resource.getrusage``), then the
median faults over the steady updates, the median update time and a
SHA-256 digest of the final parameters.  Steady updates are those after
the first ``WARMUP``, in which the process reaches its working set,
except each trainer's first, which sizes its policy's kept work arrays.
A steady update that maps no fresh pages reads 0; a run with no steady
update reads None.  The last line is the report as JSON.

``full`` runs the workload's rounds (a fresh trainer every 3 updates, a
greedy evaluation after its last) with seeds ``--seed``, ``--seed + 1``,
... until at least ``--updates`` updates are done; ``desk`` runs each of
the workload's two trials through ``run_trial`` with ``--updates`` steps
and no early stop.  Greedy evaluations run between updates and are not
counted.

Reads ``benchmarks/workloads.py`` and changes nothing under
``benchmarks/``.  Standard library and urex only; run from the root of
a source checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import tempfile
import time
import weakref
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import urex.harness  # noqa: E402
import urex.harness.trial  # noqa: E402
import workloads  # noqa: E402
from urex.trainers import PolicyGradientTrainer, TrainConfig  # noqa: E402

WARMUP = 6  # updates left out of the steady median


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class UpdateCounter:
    """Wraps ``PolicyGradientTrainer.step`` to record each call's minor
    faults and wall time, and whether it was its trainer's first."""

    def __init__(self):
        self.faults, self.ms, self.first, self._seen = [], [], [], weakref.WeakSet()

    def __enter__(self):
        step = self._step = PolicyGradientTrainer.step

        def counted(trainer):
            start_faults, start = minor_faults(), time.perf_counter()
            metrics = step(trainer)
            self.ms.append(1000.0 * (time.perf_counter() - start))
            self.faults.append(minor_faults() - start_faults)
            self.first.append(trainer not in self._seen)
            self._seen.add(trainer)
            return metrics

        PolicyGradientTrainer.step = counted
        return self

    def __exit__(self, *exc):
        PolicyGradientTrainer.step = self._step


def run_full(seed: int, updates: int) -> list:
    """Rounds of the ``full`` workload with seeds ``seed``, ``seed + 1``, ...
    until ``updates`` updates are done; returns their final parameters."""
    params = []
    with tempfile.TemporaryDirectory() as out_dir:
        for j in range(-(-updates // workloads.FULL_STEPS)):
            params += workloads._full_round(seed + j, out_dir).params
    return params


def run_desk(seed: int, updates: int) -> list:
    """The ``desk`` workload's two trials with ``updates`` steps each;
    returns their final parameters."""
    params = []
    for spec in workloads.desk_specs(seed, steps=updates):
        result = urex.harness.run_trial(spec)
        if result.steps_run != updates:
            raise SystemExit(f"{spec.key()}: ran {result.steps_run} of {updates} steps "
                             f"({result.failure_cause})")
        params.append(result.policy.params.flat)
    return params


RUNS = {"desk": run_desk, "full": run_full}


def measure(workload: str, seed: int, updates: int) -> dict:
    with UpdateCounter() as counter:
        params = RUNS[workload](seed, updates)
    steady = [f for f, first in zip(counter.faults[WARMUP:], counter.first[WARMUP:])
              if not first]
    digest = hashlib.sha256(b"".join(p.tobytes() for p in params)).hexdigest()
    return {"workload": workload, "seed": seed, "updates": len(counter.faults), "warmup": WARMUP,
            "faults_per_update": counter.faults,
            "steady_faults_median": statistics.median(steady) if steady else None,
            "step_ms_p50": round(statistics.median(counter.ms), 3),
            "param_digest": digest}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(RUNS), required=True)
    ap.add_argument("--updates", type=int, default=30, help="updates (desk: per trial)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    report = measure(args.workload, args.seed, args.updates)
    for i, faults in enumerate(report["faults_per_update"], 1):
        print(f"update {i}: {faults} minor faults")
    print(f"steady-state faults per update (median): {report['steady_faults_median']}")
    print(f"step_ms_p50 {report['step_ms_p50']}, param digest {report['param_digest']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
