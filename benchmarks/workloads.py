"""The four benchmark workloads, driven through urex's public entry points.

Each workload is a fixed *round* of training that depends only on its
seed: running a round twice with one seed must give identical outputs.
A benchmark run does as many rounds as fit its time budget at the
defining commit, one after another in a closed loop (the next update
starts when the previous one returns), each round with its own seed
derived from the run's seed.

Library functions are looked up on their modules at call time
(``urex.harness.run_trial``, not a name imported once), so that the
tracer's wrappers on those module bindings see every call.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import urex
import urex.harness
import urex.harness.trial
from urex.envs import TaskId
from urex.harness import BanditExperimentConfig, make_spec
from urex.policy import RecurrentPolicy
from urex.trainers import PolicyGradientTrainer, TrainConfig

# Success early-stop is disabled through public spec fields, so every
# round does a fixed number of updates.
NO_EARLY_STOP = dict(success_rule="threshold", success_threshold=math.inf)
# Matches the trial harness's eval stream, so the full workload's eval
# episodes are those run_trial would draw for the same spec.
EVAL_STREAM = 0x5EED


@dataclass
class RoundOutput:
    """What one round produced; every field is deterministic in the seed."""

    updates: int
    reward_curves: list = field(default_factory=list)  # one list per trial
    params: list = field(default_factory=list)  # final flat parameters per trial
    final_reward: float = math.nan
    problems: list = field(default_factory=list)  # failed output checks

    def digest_parts(self) -> list:
        return [np.asarray(c, dtype=float) for c in self.reward_curves] + list(self.params)


@dataclass(frozen=True)
class Workload:
    name: str
    update_binding: tuple  # (owner, attribute) called once per latency sample
    updates_per_call: int  # parameter updates done by one call of update_binding
    calls_per_round: int
    round_s: float
    run_round: object  # (seed, out_dir) -> RoundOutput
    setup: object  # seed -> None: the work done before the first update

    def rounds(self, seconds: float, min_calls: int) -> int:
        """Rounds in a run of ``seconds``: at least two, and enough for
        ``min_calls`` latency samples."""
        return max(2, round(seconds / self.round_s), -(-min_calls // self.calls_per_round))


def _check_trial(result, spec, out: RoundOutput) -> None:
    if result.failure_cause is not None:
        out.problems.append(f"{spec.key()}: {result.failure_cause}")
    if result.steps_run != spec.max_steps:
        out.problems.append(f"{spec.key()}: ran {result.steps_run} of {spec.max_steps} steps")
    if not np.all(np.isfinite(result.reward_curve)):
        out.problems.append(f"{spec.key()}: non-finite training reward")


# -- desk: two desk-profile policy-gradient cells through run_trial -------------
DESK_STEPS = 50


def desk_specs(seed: int, steps: int = DESK_STEPS):
    common = dict(restart_seed=seed, profile="desk", n=20, k=10, max_steps=steps,
                  **NO_EARLY_STOP)
    return [
        make_spec(TaskId.COPY, "urex", 0.1, eta=0.1, clip=1.0, **common),
        make_spec(TaskId.DUPLICATED_INPUT, "ment", 0.01, eta=0.1, clip=10.0, **common),
    ]


def _trial_round(specs, out_dir) -> RoundOutput:
    out = RoundOutput(updates=0)
    finals = []
    for spec in specs:
        path = os.path.join(out_dir, spec.key().replace("/", "_") + ".jsonl")
        result = urex.harness.run_trial(spec, metrics_path=path)
        _check_trial(result, spec, out)
        out.updates += result.steps_run
        out.reward_curves.append(result.reward_curve)
        params = getattr(result.policy, "online", result.policy).params.flat
        out.params.append(params.copy())
        finals.append(result.final_expected_reward)
    out.final_reward = float(np.mean(finals))
    return out


def _trial_setup(specs) -> None:
    """What run_trial does before its first update: env probe and policy init."""
    for spec in specs:
        factory = urex.harness.trial.env_factory_for(spec)
        probe = factory(0, 2)
        if spec.method == "qlearn":
            probe.reset()
            urex.trainers.DoubleQLearner(probe, urex.trainers.QConfig(
                learning_rate=spec.eta, hidden_size=spec.hidden_size, seed=spec.restart_seed))
        else:
            _init_policy(spec, probe)


def _init_policy(spec, probe) -> RecurrentPolicy:
    policy = RecurrentPolicy(probe.num_observations, probe.action_heads, spec.hidden_size)
    policy.init_params(np.random.Generator(np.random.PCG64(spec.restart_seed)))
    return policy


# -- full: full-profile DuplicatedInput/ment, trainer.step + periodic eval ------
FULL_STEPS = 3
FULL_EVAL_EVERY = 3


def full_spec(seed: int, steps: int = FULL_STEPS):
    return make_spec(TaskId.DUPLICATED_INPUT, "ment", 0.01, eta=0.01, clip=10.0,
                     restart_seed=seed, profile="full", max_steps=steps,
                     eval_every=FULL_EVAL_EVERY, **NO_EARLY_STOP)


def _full_round(seed: int, out_dir) -> RoundOutput:
    spec = full_spec(seed)
    factory = urex.harness.trial.env_factory_for(spec)
    policy = _init_policy(spec, factory(0, None))
    config = TrainConfig(method=spec.method, tau=spec.tau, learning_rate=spec.eta,
                         clip_norm=spec.clip, k=spec.k, n=spec.n, seed=spec.restart_seed)
    trainer = PolicyGradientTrainer(policy, factory, config)  # no curriculum
    eval_rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([spec.restart_seed, EVAL_STREAM])))
    curve = []
    path = os.path.join(out_dir, spec.key().replace("/", "_") + ".jsonl")
    with open(path, "w") as sink:
        for step in range(1, spec.max_steps + 1):
            metrics = trainer.step()
            curve.append(metrics.mean_reward)
            sink.write(json.dumps(metrics.record()) + "\n")
            if step % spec.eval_every == 0:
                urex.harness.evaluate_greedy(policy, spec, eval_rng)
    out = RoundOutput(updates=spec.max_steps, reward_curves=[curve],
                      params=[policy.params.flat.copy()],
                      final_reward=float(np.mean(curve[-urex.harness.trial.FINAL_REWARD_BATCHES:])))
    if not np.all(np.isfinite(curve)):
        out.problems.append(f"{spec.key()}: non-finite training reward")
    return out


def _full_setup(seed: int) -> None:
    spec = full_spec(seed)
    _init_policy(spec, urex.harness.trial.env_factory_for(spec)(0, None))


# -- qlearn: desk Copy with double Q-learning through run_trial -----------------
QLEARN_STEPS = 400


def qlearn_spec(seed: int, steps: int = QLEARN_STEPS):
    return make_spec(TaskId.COPY, "qlearn", 0.0, eta=0.01, clip=10.0, restart_seed=seed,
                     profile="desk", max_steps=steps, **NO_EARLY_STOP)


# -- bandit: reduced large-action bandit comparison ------------------------------
BANDIT_REPEATS = 1


def bandit_config(seed: int, repeats: int = BANDIT_REPEATS) -> BanditExperimentConfig:
    return BanditExperimentConfig(num_actions=1000, dim=30, beta=8.0, repeats=repeats,
                                  restarts=5, steps=400, k=10, seed=seed)


def _bandit_round(seed: int, out_dir) -> RoundOutput:
    cfg = bandit_config(seed)
    result = urex.harness.run_bandit_experiment(cfg)
    settings = len(cfg.grid("ment")) + len(cfg.grid("urex"))
    out = RoundOutput(updates=cfg.repeats * settings * cfg.restarts * cfg.steps)
    for method in ("ment", "urex"):
        mean, std = result.curves[method]
        out.reward_curves += [mean, std, result.final_rewards[method]]
        if not np.all((mean >= 0.0) & (mean <= 1.0)):
            out.problems.append(f"bandit {method}: expected reward outside [0, 1]")
    out.final_reward = float(np.mean([result.final_rewards[m].mean() for m in ("ment", "urex")]))
    with open(os.path.join(out_dir, f"bandit_seed{seed}.csv"), "w") as fh:
        fh.write(result.to_csv())
    return out


def _bandit_setup(seed: int) -> None:
    cfg = bandit_config(seed)
    env = urex.envs.BanditEnv(seed, num_actions=cfg.num_actions, beta=cfg.beta, dim=cfg.dim)
    env.reset()
    urex.policy.LinearBanditPolicy(cfg.dim).init_params(
        np.random.Generator(np.random.PCG64(seed)), scale=cfg.init_scale)


def round_seeds(seed: int, rounds: int) -> list[int]:
    """Seeds of a run's rounds: distinct per round, so a run averages over
    many trials, except that the last round repeats the first, so every
    run checks that its bits repeat."""
    distinct = [int(np.random.SeedSequence([seed, j]).generate_state(1)[0])
                for j in range(max(1, rounds - 1))]
    return distinct + distinct[:1]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# round_s is one round's wall time measured at the commit that defined the
# benchmark (2 cores, 2 OpenBLAS threads); it only sizes a run to its time
# budget, so that the same seed and budget give the same rounds on every commit.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk",
            update_binding=(PolicyGradientTrainer, "step"), updates_per_call=1,
            calls_per_round=2 * DESK_STEPS, round_s=1.7,
            run_round=lambda seed, out_dir: _trial_round(desk_specs(seed), out_dir),
            setup=lambda seed: _trial_setup(desk_specs(seed)),
        ),
        Workload(
            "full",
            update_binding=(PolicyGradientTrainer, "step"), updates_per_call=1,
            calls_per_round=FULL_STEPS, round_s=0.29,
            run_round=_full_round, setup=_full_setup,
        ),
        Workload(
            "qlearn",
            update_binding=(urex.trainers.DoubleQLearner, "train_step"), updates_per_call=1,
            calls_per_round=QLEARN_STEPS, round_s=1.35,
            run_round=lambda seed, out_dir: _trial_round([qlearn_spec(seed)], out_dir),
            setup=lambda seed: _trial_setup([qlearn_spec(seed)]),
        ),
        Workload(
            "bandit",
            update_binding=(urex.harness.bandit_exp, "train_bandit_policy"),
            updates_per_call=400, calls_per_round=BANDIT_REPEATS * 6 * 5, round_s=3.6,
            run_round=_bandit_round, setup=_bandit_setup,
        ),
    )
}
