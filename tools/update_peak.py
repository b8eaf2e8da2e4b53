"""Peak memory of one untrained policy-gradient update, and the bytes its
BPTT cache keeps per row-step.

    python3 tools/update_peak.py --task BinarySearch --profile desk

Builds the policy and trainer that ``run_trial`` builds for a UREX trial
of ``--task`` under ``--profile`` with N = 40 groups of K = 10 samples,
freshly initialised from restart seed 0, and runs its first update at
one BLAS thread.  Run it as its own process: the peak is that process's
resident set since it started, imports included (``ru_maxrss``).  Prints
one JSON object: the peak in MB, the cached bytes per row-step (the
summed ``nbytes`` of every array in the update's rollout cache, divided
by its row-steps), the row-steps, the cache's MB, the update's wall
time and the numpy version.  Standard library, numpy and urex only; it
measures the urex in the ``src/`` of the checkout it sits in, whatever the
working directory, so measure a second checkout with that checkout's copy.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

import numpy as np  # noqa: E402

from urex.curriculum import LENGTH_FLOOR  # noqa: E402
from urex.envs import TaskId  # noqa: E402
from urex.harness import make_spec  # noqa: E402
from urex.harness.blas import blas_threads  # noqa: E402
from urex.harness.trial import _policy_gradient_learner, env_factory_for  # noqa: E402

METHOD, TAU, N, K, SEED = "urex", 0.1, 40, 10, 0


def measure(task: str, profile: str) -> dict:
    """One update of a fresh learner in this process; see the module docstring."""
    spec = make_spec(TaskId(task), METHOD, TAU, restart_seed=SEED, profile=profile, n=N, k=K)
    factory = env_factory_for(spec)
    probe = factory(0, LENGTH_FLOOR)
    probe.reset()
    policy, step = _policy_gradient_learner(spec, factory, probe)
    caches, rollout = [], policy.rollout

    def keeping_the_cache(*args, **kwargs):
        batch, cache = rollout(*args, **kwargs)
        caches.append(cache)
        return batch, cache

    policy.rollout = keeping_the_cache
    with blas_threads(1):
        start = time.perf_counter()
        step()
        update_s = time.perf_counter() - start
    (cache,) = caches
    cached = sum(a.nbytes for st in cache for a in vars(st).values()
                 if isinstance(a, np.ndarray))
    row_steps = sum(st.idx.size for st in cache)
    return {"task": task, "profile": profile, "seed": SEED, "method": METHOD, "n": N, "k": K,
            "hidden_size": spec.hidden_size,
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "cache_bytes_per_row_step": round(cached / row_steps, 1), "row_steps": row_steps,
            "cache_mb": round(cached / 2**20, 1), "update_s": round(update_s, 3),
            "numpy": np.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--task", choices=[task.value for task in TaskId], required=True)
    ap.add_argument("--profile", choices=["desk", "full"], required=True)
    args = ap.parse_args(argv)
    print(json.dumps(measure(args.task, args.profile)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
