"""Check that two checkouts give the same bits, and print a table of digests.

    python3 tools/same_bits.py --parent ../parent --change .

Everything runs at ``OPENBLAS_NUM_THREADS=1``.  These outputs are
compared:

- the digest of ``benchmarks/run.py --workload W --seed S --seconds 1
  --trace 0`` for W in desk, full, qlearn, bandit and S in 0, 1, 2;
- fixed ``run_trial`` runs (``TRIALS``, seeds 0-2), each reduced to
  sha256 digests of its metrics JSONL rows without ``wall_ms``, its
  eval history, its ``record()`` and its final parameters: desk trials,
  and a 3-step full-profile DuplicatedInput/ment trial, whose updates
  run (B, H) = (400, 128) with a first step shared by the K rows of a
  latent, through its curriculum and its greedy evaluation;
- length-generalization sweeps, as digests of their CSV records and of
  every episode decoded in them: the oracle's on every tape task as
  ``urex generalize --checkpoint oracle --max-len 100 --episodes 5``
  runs it, and one sweep per length of ``SWEPT_LENGTHS`` on the trained
  policy of the trial ``SWEPT_TRIAL`` (a sweep stops at its first
  imperfect length, so one sweep of both would probe only the first);
- the scripted searches: the episodes of ``oracle_rollout`` under both
  strategies, each over ``SEARCH_EPISODES`` reset episodes of every
  ``SEARCH_SEEDS`` env;
- ``urex`` command-line runs (``CLI_RUNS``): the file names, metrics
  rows without ``wall_ms`` and checkpoint bytes of a 3-step desk ``urex
  run``, given by flags and again with its optional values in a config
  file (``RUN_CONFIG``), and of a 3-step desk Copy ``--method qlearn``
  run, the CSVs of a small ``urex bandit`` and of ``urex generalize
  --checkpoint oracle``, and the text of ``urex trace``: the oracle's
  on BinarySearch and ReversedAddition, the urex run's checkpoint on
  Copy and on Reverse (seed 3), and the qlearn run's checkpoint on Copy;
- toy ``run_grid`` runs (``GRIDS``), one per method: each grid's
  manifest rows and success table, in one digest.

The trials run in a child process per checkout that imports ``urex``
from that checkout's ``src/``.  Exits 1 if any digest differs or is
missing on one side.  Standard library only in this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
BENCH_RUNS = [(w, s) for w in ("desk", "full", "qlearn", "bandit") for s in (0, 1, 2)]
# (task, method, tau, eta, clip, steps, profile) of the fixed trials
TRIALS = [("Copy", "urex", 0.1, 0.1, 1.0, 120, "desk"),
          ("DuplicatedInput", "ment", 0.01, 0.1, 10.0, 80, "desk"),
          ("Copy", "qlearn", 0.0, 0.01, 10.0, 300, "desk"),
          ("BinarySearch", "urex", 0.1, 0.1, 1.0, 20, "desk"),
          ("BinarySearch", "qlearn", 0.0, 0.01, 10.0, 60, "desk"),
          ("RepeatCopy", "urex", 0.1, 0.1, 1.0, 30, "desk"),
          ("Reverse", "ment", 0.01, 0.1, 10.0, 30, "desk"),
          ("ReversedAddition", "urex", 0.1, 0.1, 10.0, 30, "desk"),
          ("DuplicatedInput", "ment", 0.01, 0.1, 10.0, 3, "full")]
TRIAL_SEEDS = (0, 1, 2)
# The fast stand-in for TRIALS whose digests ``--write`` records per build, beside the
# other digests but the benchmark's: 3 steps of each desk trial but BinarySearch's,
# and the full-profile trial.
GOLDEN_TRIALS = [(*trial[:5], 3, trial[6]) for trial in TRIALS if trial[0] != "BinarySearch"]
SWEPT_TRIAL, SWEPT_LENGTHS = "Copy/urex/120/seed0", (30, 100)
ORACLE_SWEEP_LENGTHS, ORACLE_SWEEP_EPISODES = (30, 100), 5
SEARCH_SEEDS, SEARCH_EPISODES = (0, 1), 200  # BinarySearchEnv seeds, episodes of each
RUN_REQUIRED = ["run", "--task", "Copy", "--method", "urex", "--tau", "0.1"]
RUN_CONFIG = "profile = desk\nsteps = 3\n"  # the file that "<config>" names in an argv
# name -> argv of the command-line runs; each writes to --out <tmp>/<name>.
# Any other "<name>" in an argv is the checkpoint that the earlier run of that name wrote.
CLI_RUNS = {
    "run": [*RUN_REQUIRED, "--profile", "desk", "--steps", "3"],
    "run config": [*RUN_REQUIRED, "--config", "<config>"],
    "run qlearn": ["run", "--task", "Copy", "--method", "qlearn", "--tau", "0", "--profile",
                   "desk", "--steps", "3"],
    "bandit": ["bandit", "--actions", "50", "--dim", "5", "--beta", "2", "--repeats", "2",
               "--restarts", "2", "--steps", "25"],
    "generalize": ["generalize", "--checkpoint", "oracle", "--task", "Reverse",
                   "--max-len", "100", "--episodes", "5"],
    "trace BinarySearch": ["trace", "--task", "BinarySearch", "--seed", "3"],
    "trace ReversedAddition": ["trace", "--task", "ReversedAddition", "--seed", "3"],
    "trace run checkpoint Copy": ["trace", "--task", "Copy", "--checkpoint", "<run>"],
    # seed 3: at seed 0 Reverse holds Copy's tape, and the trace prints no target
    "trace run checkpoint Reverse": ["trace", "--task", "Reverse", "--seed", "3",
                                     "--checkpoint", "<run>"],
    "trace run qlearn checkpoint Copy": ["trace", "--task", "Copy", "--checkpoint",
                                         "<run qlearn>"],
}

# methods of the toy grids, each at tau 0: desk Copy, one eta, two clips and two
# restarts of 2-step trials; Q-learning fixes the clip, so its grid runs one clip row
GRIDS = ("ment", "qlearn")
GRID_ARGS = dict(etas=(0.1,), clips=(1.0, 10.0), restarts=2, profile="desk",
                 spec_overrides=dict(max_steps=2, k=2, n=2, hidden_size=4, eval_every=1,
                                     eval_episodes=2))


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def normalise_rows(jsonl: str) -> str:
    """A metrics JSONL with each row's ``wall_ms`` dropped; every other
    field keeps its place and its printed value."""
    rows = [json.loads(line) for line in jsonl.splitlines() if line.strip()]
    for row in rows:
        row.pop("wall_ms", None)
    return "".join(json.dumps(row) + "\n" for row in rows)


def mismatches(parent: dict, change: dict) -> list[str]:
    """Names whose digest differs between the sides or is on one side only."""
    problems = []
    for name in {**parent, **change}:
        if name not in parent or name not in change:
            problems.append(f"{name}: only in {'parent' if name in parent else 'change'}")
        elif parent[name] != change[name]:
            problems.append(f"{name}: parent {parent[name][:12]} change {change[name][:12]}")
    return problems


def table(parent: dict, change: dict) -> str:
    names = list({**parent, **change})
    width = max(map(len, names), default=4)
    lines = [f"{'output':<{width}}  {'parent':<12}  {'change':<12}  same"]
    for name in names:
        p, c = parent.get(name, "-"), change.get(name, "-")
        lines.append(f"{name:<{width}}  {p[:12]:<12}  {c[:12]:<12}  {'yes' if p == c else 'NO'}")
    return "\n".join(lines)


class Probe:
    """Stands in for a sweep's policy: decodes with ``policy``, or with
    the scripted oracle when it is None, and keeps every episode."""

    def __init__(self, policy=None):
        self.policy, self.episodes = policy, []

    def rollout(self, envs, greedy):
        from urex.envs import oracle_rollout
        from urex.types import TrajectoryBatch

        if self.policy is None:
            batch = TrajectoryBatch.from_trajectories(oracle_rollout(env) for env in envs)
        else:
            batch, _ = self.policy.rollout(envs, greedy=greedy)
        self.episodes += list(batch)
        return batch, None

    def digest(self) -> str:
        return sha(repr(self.episodes))


def search_digests() -> dict:
    """Digests of the search oracle's episodes under its two strategies,
    run with the ``urex`` on ``sys.path``."""
    from urex.envs import TaskId, make_env, oracle_rollout

    digests = {}
    for strategy in ("linear", "binary"):
        episodes = []
        for seed in SEARCH_SEEDS:
            env = make_env(TaskId.BINARY_SEARCH, seed)
            for _ in range(SEARCH_EPISODES):
                env.reset()
                episodes.append(oracle_rollout(env, strategy))
        digests[f"oracle {strategy} search episodes"] = sha(repr(episodes))
    return digests


def cli_digests(tmp: Path) -> dict:
    """Digests of the ``CLI_RUNS``, run with the ``urex`` on ``sys.path``:
    the files each run writes (metrics rows without ``wall_ms``) and, for
    the traces, the printed text."""
    import contextlib
    import io

    from urex.harness.cli import main

    config = tmp / "run.conf"
    config.write_text(RUN_CONFIG)

    def given(arg):
        if arg == "<config>":
            return str(config)
        if arg.startswith("<"):
            (checkpoint,) = (tmp / arg[1:-1].replace(" ", "_")).glob("*.ckpt")
            return str(checkpoint)
        return arg

    digests = {}
    for name, argv in CLI_RUNS.items():
        out_dir = tmp / name.replace(" ", "_")
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            main([*map(given, argv), "--out", str(out_dir)])
        if name.startswith("trace"):
            digests[f"cli {name} text"] = sha(printed.getvalue())
            continue
        paths = sorted(out_dir.iterdir())
        digests[f"cli {name} files"] = sha(" ".join(path.name for path in paths))
        for path in paths:
            data = path.read_bytes()
            if path.suffix == ".jsonl":
                data = normalise_rows(data.decode()).encode()
            digests[f"cli {name} {path.suffix[1:]}"] = hashlib.sha256(data).hexdigest()
    return digests


def grid_digests(tmp: Path) -> dict:
    """Digests of the ``GRIDS``, run with the ``urex`` on ``sys.path``: each
    grid's manifest rows and printed table."""
    from urex.envs import TaskId
    from urex.harness import run_grid

    digests = {}
    for method in GRIDS:
        manifest = tmp / f"grid_{method}.jsonl"
        result = run_grid(TaskId.COPY, method, 0.0, manifest_path=manifest, **GRID_ARGS)
        digests[f"grid Copy/{method} rows and table"] = sha(manifest.read_text() + result.table())
    return digests


def trial_digests(trials=TRIALS) -> dict:
    """Digests of ``trials`` and of everything else the tool compares but the
    benchmark runs, run with the ``urex`` on ``sys.path``."""
    import math

    import urex
    from urex.envs import TAPE_TASKS, TaskId
    from urex.harness import generalization_sweep, make_spec, run_trial

    if not Path(urex.__file__).resolve().is_relative_to(Path.cwd().resolve()):
        raise SystemExit(f"imported urex from {urex.__file__}, not from {Path.cwd()}")
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for task, method, tau, eta, clip, steps, profile in trials:
            for seed in TRIAL_SEEDS:
                spec = make_spec(TaskId(task), method, tau, eta=eta, clip=clip,
                                 restart_seed=seed, profile=profile, max_steps=steps,
                                 success_rule="threshold", success_threshold=math.inf)
                path = Path(tmp) / "metrics.jsonl"
                result = run_trial(spec, metrics_path=path)
                params = result.policy.params.flat
                name = f"{task}/{method}/{steps}/seed{seed}"
                name = name if profile == "desk" else f"{profile} {name}"
                digests[f"{name} rows"] = sha(normalise_rows(path.read_text()))
                digests[f"{name} eval"] = sha(json.dumps(result.eval_history))
                digests[f"{name} record"] = sha(json.dumps(result.record()))
                digests[f"{name} params"] = hashlib.sha256(params.tobytes()).hexdigest()
                if name == SWEPT_TRIAL:
                    for length in SWEPT_LENGTHS:
                        probe = Probe(result.policy)
                        record = generalization_sweep(probe, TaskId(task), lengths=(length,))
                        digests[f"{name} sweep {length}"] = sha(record.to_csv())
                        digests[f"{name} sweep {length} episodes"] = probe.digest()
        digests.update(cli_digests(Path(tmp)))
        digests.update(grid_digests(Path(tmp)))
    digests.update(search_digests())
    sweep = dict(lengths=ORACLE_SWEEP_LENGTHS, episodes_per_length=ORACLE_SWEEP_EPISODES)
    for task in TAPE_TASKS:
        record = generalization_sweep("oracle", task, **sweep)
        digests[f"{task.value}/oracle sweep"] = sha(record.to_csv())
        probe = Probe()  # the same sweep, keeping the oracle's episodes
        generalization_sweep(probe, task, **sweep)
        digests[f"{task.value}/oracle sweep episodes"] = probe.digest()
    return digests


def build_key() -> str:
    """What bits depend on beyond the code: numpy's version and the OpenBLAS
    configuration loaded at run time, which names the kernel it picked."""
    import numpy as np

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
    from common import blas_runtime_config

    return f"numpy {np.__version__}, {blas_runtime_config()}"


def golden_digests(checkout: Path) -> tuple[str, dict]:
    """The build key and the digests of ``trial_digests(GOLDEN_TRIALS)`` for
    ``checkout``, from a child process that imports its ``urex`` at
    ``OPENBLAS_NUM_THREADS=1``."""
    child = subprocess.run([sys.executable, __file__, "--golden-only"], cwd=checkout,
                           env={**os.environ, "PYTHONPATH": str(checkout / "src"),
                                "OPENBLAS_NUM_THREADS": "1"},
                           capture_output=True, text=True)
    if child.returncode:
        raise SystemExit(f"{checkout}: golden trials failed:\n{child.stderr}")
    found = json.loads(child.stdout)
    return found["build"], found["digests"]


def side_digests(checkout: Path) -> dict:
    from bench_pairs import run_once  # beside this file

    digests = {}
    for workload, seed in BENCH_RUNS:
        digests[f"bench {workload} seed{seed}"] = run_once(checkout, workload, seed, 1)["digest"]
        print(f"{checkout}: bench {workload} seed {seed} done", file=sys.stderr)
    child = subprocess.run([sys.executable, __file__, "--trials-only"], cwd=checkout,
                           env={**os.environ, "PYTHONPATH": str(checkout / "src")},
                           capture_output=True, text=True)
    if child.returncode:
        raise SystemExit(f"{checkout}: trials failed:\n{child.stderr}")
    digests.update(json.loads(child.stdout))
    return digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, help="checkout of the change")
    ap.add_argument("--write", type=Path, metavar="JSON",
                    help="record this checkout's golden digests for this build")
    ap.add_argument("--trials-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--golden-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.trials_only:  # the child processes: urex comes from PYTHONPATH
        print(json.dumps(trial_digests()))
        return 0
    if args.golden_only:
        print(json.dumps({"build": build_key(), "digests": trial_digests(GOLDEN_TRIALS)}))
        return 0
    if args.write:
        build, digests = golden_digests(Path(__file__).resolve().parents[1])
        recorded = json.loads(args.write.read_text()) if args.write.exists() else {}
        recorded[build] = digests
        args.write.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"{args.write}: {len(digests)} digests for {build}")
        return 0
    if args.parent is None or args.change is None:
        ap.error("--parent and --change are required")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # benchmark runs inherit it
    digests = {side: side_digests(getattr(args, side).resolve()) for side in SIDES}
    print(table(*(digests[side] for side in SIDES)))
    problems = mismatches(*(digests[side] for side in SIDES))
    for problem in problems:
        print(f"MISMATCH {problem}")
    print(f"{len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
