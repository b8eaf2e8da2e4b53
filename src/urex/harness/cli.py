"""Command-line entry points for trials, grids, sweeps and traces."""

from __future__ import annotations

import argparse
import json
import os

from ..envs import TaskId, make_env
from ..policy import load_policy, save_policy
from .bandit_exp import BanditExperimentConfig, run_bandit_experiment
from .config import load_config, merge_overrides
from .generalize import PROBE_LENGTHS, generalization_sweep
from .grid import run_grid
from .profiles import DEFAULT_PROFILE, PROFILES, make_spec
from .trace import render_trace
from .trial import run_trial


def _add_common(p):
    p.add_argument("--config", help="KEY=value config file; flags override it")
    p.add_argument("--out", default="runs", help="output directory")


def _gather(args) -> dict:
    """The config file's values, overridden by every flag given."""
    fileconf = load_config(args.config) if args.config else {}
    return merge_overrides(fileconf, vars(args))


def _given(conf, **params) -> dict:
    """Library keywords: ``key=(parameter, type)`` passes ``type(conf[key])``
    as ``parameter`` if the key was given; else the library's default holds."""
    return {name: cast(conf[key]) for key, (name, cast) in params.items() if key in conf}


def cmd_run(args):
    conf = _gather(args)
    overrides = _given(conf, eta=("eta", float), clip=("clip", float),
                       seed=("restart_seed", int), profile=("profile", str))
    if conf.get("steps"):  # a zero budget means the profile's
        overrides["max_steps"] = int(conf["steps"])
    spec = make_spec(TaskId.parse(conf["task"]), conf["method"], float(conf["tau"]), **overrides)
    os.makedirs(args.out, exist_ok=True)
    stem = spec.stem()
    result = run_trial(spec, metrics_path=os.path.join(args.out, f"{stem}.jsonl"))
    save_policy(os.path.join(args.out, f"{stem}.ckpt"), result.policy)
    print(json.dumps(result.record(), indent=2))


def cmd_grid(args):
    conf = _gather(args)
    task = TaskId.parse(conf["task"])
    os.makedirs(args.out, exist_ok=True)
    profile = conf.get("profile", DEFAULT_PROFILE)
    stem = f"grid_{task.value}_{conf['method']}_tau{conf['tau']}_{profile}"
    result = run_grid(task, conf["method"], float(conf["tau"]), profile=profile,
                      manifest_path=os.path.join(args.out, f"{stem}.jsonl"))
    with open(os.path.join(args.out, f"{stem}.csv"), "w") as fh:
        fh.write(result.to_csv())
    print(result.table())


def cmd_generalize(args):
    conf = _gather(args)
    policy = "oracle" if conf["checkpoint"] == "oracle" else load_policy(conf["checkpoint"])
    task = TaskId.parse(conf["task"])
    record = generalization_sweep(policy, task, **_given(
        conf, max_len=("lengths", lambda cap: [n for n in PROBE_LENGTHS if n <= cap]),
        episodes=("episodes_per_length", int), seed=("seed", int)))
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"generalize_{task.value}.csv"), "w") as fh:
        fh.write(record.to_csv())
    print(record.to_csv())


def cmd_bandit(args):
    conf = _gather(args)
    cfg = BanditExperimentConfig(**_given(
        conf, actions=("num_actions", int), dim=("dim", int), beta=("beta", float),
        repeats=("repeats", int), restarts=("restarts", int), steps=("steps", int),
        seed=("seed", int)))
    result = run_bandit_experiment(cfg)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "bandit_curves.csv"), "w") as fh:
        fh.write(result.to_csv())
    adv = result.advantage_per_repeat
    print(f"best settings: {result.best_settings}")
    print(f"final reward ment={result.final_rewards['ment'].mean():.4f} "
          f"urex={result.final_rewards['urex'].mean():.4f} "
          f"advantage>0 in {int((adv > 0).sum())}/{len(adv)} repeats")


def cmd_trace(args):
    conf = _gather(args)
    env = make_env(TaskId.parse(conf["task"]), int(conf.get("seed", 0)))
    env.reset()
    actor = load_policy(conf["checkpoint"]) if conf.get("checkpoint") else "oracle"
    print(render_trace(env, actor, **_given(conf, strategy=("strategy", str))))


def main(argv=None):
    parser = argparse.ArgumentParser(prog="urex")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="train one trial")
    p.add_argument("--task", required=True)
    p.add_argument("--method", choices=["ment", "urex", "qlearn"], required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--eta", type=float)
    p.add_argument("--clip", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--profile", choices=sorted(PROFILES))
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("grid", help="eta x clip x restart robustness grid")
    p.add_argument("--task", required=True)
    p.add_argument("--method", choices=["ment", "urex", "qlearn"], required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--profile", choices=sorted(PROFILES))
    _add_common(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("generalize", help="length-generalization sweep")
    p.add_argument("--checkpoint", required=True, help="policy checkpoint, or 'oracle'")
    p.add_argument("--task", required=True)
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--episodes", type=int)
    p.add_argument("--seed", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_generalize)

    p = sub.add_parser("bandit", help="large-action bandit method comparison")
    p.add_argument("--actions", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--repeats", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_bandit)

    p = sub.add_parser("trace", help="print one episode trace")
    p.add_argument("--task", required=True)
    p.add_argument("--seed", type=int, help="episode seed (default 0)")
    p.add_argument("--checkpoint")
    p.add_argument("--strategy", choices=["linear", "binary"])
    _add_common(p)
    p.set_defaults(func=cmd_trace)

    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
