"""Command-line entry points for trials, grids, sweeps and traces."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from ..envs import TAPE_TASKS, TaskId, make_env
from ..policy import load_policy, save_policy
from .bandit_exp import BanditExperimentConfig, run_bandit_experiment
from .generalize import PROBE_LENGTHS, generalization_sweep
from .grid import run_grid
from .profiles import DEFAULT_PROFILE, PROFILES, make_spec
from .trace import render_trace
from .trial import run_trial


def _add_common(p):
    p.add_argument("--config", help="KEY=value config file; flags override it")
    p.add_argument("--out", default="runs", help="output directory")


def _config_flags(path) -> list[str]:
    """A config file's ``KEY = value`` lines as ``--key-with-hyphens value``
    flags, in file order; ``#`` starts a comment."""
    try:
        fh = open(path)
    except OSError as err:
        raise argparse.ArgumentTypeError(f"cannot read {path}: {err.strerror}") from err
    flags = []
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise argparse.ArgumentTypeError(
                    f"{path}:{lineno}: expected KEY=value, got {raw!r}")
            key, _, value = line.partition("=")
            flags += ["--" + key.strip().replace("_", "-"), value.strip()]
    return flags


def _task(name, tasks=tuple(TaskId)) -> TaskId:
    """``--task``: the task of ``tasks`` named by its value or member name, in any case."""
    for task in tasks:
        if name.lower() in (task.value.lower(), task.name.lower()):
            return task
    raise argparse.ArgumentTypeError(
        f"invalid choice: {name!r} (choose from {', '.join(t.value for t in tasks)})")


def _probe_lengths(max_len) -> list[int]:
    """``--max-len``: the probe lengths up to it, of which there must be one."""
    lengths = [n for n in PROBE_LENGTHS if n <= int(max_len)]
    if not lengths:
        raise argparse.ArgumentTypeError(f"below the first probe length {PROBE_LENGTHS[0]}")
    return lengths


_probe_lengths.__name__ = "int"  # not an integer: argparse's "invalid int value"


def _ranged(cast, positive):
    """A numeric flag's type: finite, and above 0 if ``positive``, else at least 0."""
    sign = "positive" if positive else "non-negative"
    kind = f"{sign} {'integer' if cast is int else 'finite number'}"

    def parse(value):
        number = cast(value)
        if not (0 < number < math.inf if positive else 0 <= number < math.inf):
            raise argparse.ArgumentTypeError(f"expected a {kind}, got {value!r}")
        return number
    parse.__name__ = cast.__name__  # not a number: argparse's "invalid int value"
    return parse


_count = _ranged(int, positive=True)
_whole = _ranged(int, positive=False)  # seeds; run's --steps 0 means the profile's budget
_positive = _ranged(float, positive=True)
_nonnegative = _ranged(float, positive=False)


def _load_fitting(path, task):
    """The checkpoint at ``path``, if its net reads ``task``'s observations and
    acts through the task's heads or through one joint head of their product."""
    try:
        policy = load_policy(path)
    except (OSError, ValueError) as err:  # missing, a directory, or not a checkpoint
        raise argparse.ArgumentTypeError(f"cannot load checkpoint: {err}") from err
    env = make_env(task, 0)
    sizes = tuple(size for _, size in env.action_heads)
    spaces = [(env.num_observations, sizes), (env.num_observations, (math.prod(sizes),))]
    net = (policy.obs_dim, policy.head_sizes)
    if net not in spaces:
        raise argparse.ArgumentTypeError(
            f"checkpoint {path} is {net}, not {task.value}'s (observations, heads) {spaces[0]}")
    return policy


def _given(args, *names) -> dict:
    """Library keywords for the named values that were given; a value
    given neither as a flag nor in the file keeps the library's default."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def cmd_run(args):
    args.max_steps = args.max_steps or None  # a zero budget means the profile's
    spec = make_spec(args.task, args.method, args.tau, **_given(
        args, "eta", "clip", "restart_seed", "max_steps", "profile"))
    os.makedirs(args.out, exist_ok=True)
    stem = spec.stem()
    result = run_trial(spec, metrics_path=os.path.join(args.out, f"{stem}.jsonl"))
    save_policy(os.path.join(args.out, f"{stem}.ckpt"), result.policy)
    print(json.dumps(result.record(), indent=2))


def cmd_grid(args):
    os.makedirs(args.out, exist_ok=True)
    stem = f"grid_{args.task.value}_{args.method}_tau{args.tau}_{args.profile}"
    result = run_grid(args.task, args.method, args.tau, profile=args.profile,
                      manifest_path=os.path.join(args.out, f"{stem}.jsonl"))
    with open(os.path.join(args.out, f"{stem}.csv"), "w") as fh:
        fh.write(result.to_csv())
    print(result.table())


def cmd_generalize(args):
    policy = "oracle" if args.checkpoint == "oracle" else _load_fitting(args.checkpoint, args.task)
    sweep = _given(args, "lengths", "episodes_per_length", "seed")
    record = generalization_sweep(policy, args.task, **sweep)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"generalize_{args.task.value}.csv"), "w") as fh:
        fh.write(record.to_csv())
    print(record.to_csv())


def cmd_bandit(args):
    cfg = BanditExperimentConfig(**_given(
        args, "num_actions", "dim", "beta", "repeats", "restarts", "steps", "seed"))
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
    env = make_env(args.task, args.seed)
    actor = _load_fitting(args.checkpoint, args.task) if args.checkpoint else "oracle"
    env.reset()
    print(render_trace(env, actor, **_given(args, "strategy")))


def main(argv=None):
    parser = argparse.ArgumentParser(prog="urex")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="train one trial")
    p.add_argument("--task", type=_task, required=True)
    p.add_argument("--method", choices=["ment", "urex", "qlearn"], required=True)
    p.add_argument("--tau", type=_nonnegative, required=True)
    p.add_argument("--eta", type=_positive)
    p.add_argument("--clip", type=_positive)
    p.add_argument("--seed", type=_whole, dest="restart_seed")
    p.add_argument("--steps", type=_whole, dest="max_steps")
    p.add_argument("--profile", choices=sorted(PROFILES))
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("grid", help="eta x clip x restart robustness grid")
    p.add_argument("--task", type=_task, required=True)
    p.add_argument("--method", choices=["ment", "urex", "qlearn"], required=True)
    p.add_argument("--tau", type=_nonnegative, required=True)
    p.add_argument("--profile", choices=sorted(PROFILES), default=DEFAULT_PROFILE)
    _add_common(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("generalize", help="length-generalization sweep")
    p.add_argument("--checkpoint", required=True, help="policy checkpoint, or 'oracle'")
    p.add_argument("--task", type=lambda name: _task(name, TAPE_TASKS), required=True)
    p.add_argument("--max-len", type=_probe_lengths, dest="lengths", metavar="MAX_LEN")
    p.add_argument("--episodes", type=_count, dest="episodes_per_length")
    p.add_argument("--seed", type=_whole)
    _add_common(p)
    p.set_defaults(func=cmd_generalize)

    p = sub.add_parser("bandit", help="large-action bandit method comparison")
    p.add_argument("--actions", type=_count, dest="num_actions")
    p.add_argument("--dim", type=_count)
    p.add_argument("--beta", type=_nonnegative)
    p.add_argument("--repeats", type=_count)
    p.add_argument("--restarts", type=_count)
    p.add_argument("--steps", type=_count)
    p.add_argument("--seed", type=_whole)
    _add_common(p)
    p.set_defaults(func=cmd_bandit)

    p = sub.add_parser("trace", help="print one episode trace")
    p.add_argument("--task", type=_task, required=True)
    p.add_argument("--seed", type=_whole, default=0, help="episode seed (default 0)")
    p.add_argument("--checkpoint")
    p.add_argument("--strategy", choices=["linear", "binary"])
    _add_common(p)
    p.set_defaults(func=cmd_trace)

    # A config file's lines become flags right after the subcommand, so the
    # one parser checks them, and a flag on the command line, parsed later, wins.
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = argparse.ArgumentParser(prog="urex", add_help=False)
    pre.add_argument("--config", type=_config_flags, default=[])
    argv[1:1] = pre.parse_known_args(argv)[0].config
    args = parser.parse_args(argv)
    method = getattr(args, "method", None)
    error = sub.choices[args.command].error
    if method == "urex" and args.tau == 0:  # run and grid
        error("argument --tau: --method urex needs tau > 0")
    if method == "qlearn" and args.tau != 0:  # run and grid: Q-learning reads neither tau nor clip
        error("argument --tau: --method qlearn needs tau 0")
    if method == "qlearn" and getattr(args, "clip", None) is not None:
        error("argument --clip: --method qlearn takes no clip")
    try:
        args.func(args)
        sys.stdout.flush()  # a reader that closed early fails here, not at exit
    except argparse.ArgumentTypeError as err:  # values that do not fit each other
        sub.choices[args.command].error(str(err))
    except BrokenPipeError:  # as the Python docs advise: no traceback, exit code 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
