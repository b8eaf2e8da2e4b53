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
from .profiles import make_spec
from .trace import render_trace
from .trial import run_trial


def _add_common(p):
    p.add_argument("--config", help="KEY=value config file; flags override it")
    p.add_argument("--out", default="runs", help="output directory")


def _gather(args, keys) -> dict:
    fileconf = load_config(args.config) if args.config else {}
    flags = {k: getattr(args, k, None) for k in keys}
    return merge_overrides(fileconf, flags)


def cmd_run(args):
    conf = _gather(args, ["task", "method", "tau", "eta", "clip", "seed", "steps", "profile"])
    task = TaskId.parse(conf["task"])
    overrides = {}
    if conf.get("steps"):
        overrides["max_steps"] = int(conf["steps"])
    spec = make_spec(task, conf["method"], float(conf["tau"]), eta=float(conf.get("eta", 0.01)),
                     clip=float(conf.get("clip", 10.0)), restart_seed=int(conf.get("seed", 0)),
                     profile=conf.get("profile", "full"), **overrides)
    os.makedirs(args.out, exist_ok=True)
    stem = spec.stem()
    result = run_trial(spec, metrics_path=os.path.join(args.out, f"{stem}.jsonl"))
    save_policy(os.path.join(args.out, f"{stem}.ckpt"), result.policy)
    print(json.dumps(result.record(), indent=2))


def cmd_grid(args):
    conf = _gather(args, ["task", "method", "tau", "profile"])
    task = TaskId.parse(conf["task"])
    os.makedirs(args.out, exist_ok=True)
    profile = conf.get("profile", "full")
    stem = f"grid_{task.value}_{conf['method']}_tau{conf['tau']}_{profile}"
    result = run_grid(task, conf["method"], float(conf["tau"]), profile=profile,
                      manifest_path=os.path.join(args.out, f"{stem}.jsonl"))
    with open(os.path.join(args.out, f"{stem}.csv"), "w") as fh:
        fh.write(result.to_csv())
    print(result.table())


def cmd_generalize(args):
    policy = "oracle" if args.checkpoint == "oracle" else load_policy(args.checkpoint)
    task = TaskId.parse(args.task)
    lengths = [l for l in PROBE_LENGTHS if l <= args.max_len]
    record = generalization_sweep(policy, task, lengths=lengths,
                                  episodes_per_length=args.episodes, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"generalize_{task.value}.csv")
    with open(path, "w") as fh:
        fh.write(record.to_csv())
    print(record.to_csv())


def cmd_bandit(args):
    conf = _gather(args, ["actions", "dim", "beta", "repeats", "restarts", "steps", "seed"])
    cfg = BanditExperimentConfig(
        num_actions=int(conf.get("actions", 1000)), dim=int(conf.get("dim", 30)),
        beta=float(conf.get("beta", 8.0)), repeats=int(conf.get("repeats", 20)),
        restarts=int(conf.get("restarts", 5)), steps=int(conf.get("steps", 400)),
        seed=int(conf.get("seed", 0)))
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
    task = TaskId.parse(args.task)
    env = make_env(task, args.seed)
    env.reset()
    actor = "oracle" if not args.checkpoint else load_policy(args.checkpoint)
    print(render_trace(env, actor, strategy=args.strategy))


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
    p.add_argument("--profile", choices=["desk", "full"])
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("grid", help="eta x clip x restart robustness grid")
    p.add_argument("--task", required=True)
    p.add_argument("--method", choices=["ment", "urex", "qlearn"], required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--profile", choices=["desk", "full"])
    _add_common(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("generalize", help="length-generalization sweep")
    p.add_argument("--checkpoint", required=True, help="policy checkpoint, or 'oracle'")
    p.add_argument("--task", required=True)
    p.add_argument("--max-len", type=int, default=2000, dest="max_len")
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint")
    p.add_argument("--strategy", choices=["linear", "binary"], default="binary")
    _add_common(p)
    p.set_defaults(func=cmd_trace)

    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
