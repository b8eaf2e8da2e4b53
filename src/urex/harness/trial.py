"""Run one training trial to completion or early success."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..curriculum import CurriculumState
from ..envs import TAPE_TASKS, TaskId, draw_latents, make_env
from ..policy import PolicyDivergence, policy_for_env
from ..trainers import (DoubleQLearner, JointActionView, PolicyGradientTrainer, QConfig,
                        TrainConfig)
from .blas import blas_threads
from .profiles import TrialSpec

FINAL_REWARD_BATCHES = 10
_EVAL_STREAM = 0x5EED


@dataclass
class TrialResult:
    spec_key: str
    success: bool
    success_step: int | None
    final_expected_reward: float
    steps_run: int
    reward_curve: list = field(default_factory=list)
    weight_variance_curve: list = field(default_factory=list)
    eval_history: list = field(default_factory=list)  # (step, mean_reward, accuracy)
    failure_cause: str | None = None
    policy: object = None  # trained policy (or Q-learner); not serialized

    def record(self) -> dict:
        row = {
            "key": self.spec_key,
            "success": self.success,
            "success_step": self.success_step,
            "final_expected_reward": self.final_expected_reward,
            "steps_run": self.steps_run,
            "failure_cause": self.failure_cause,
        }
        return row


class _TapeFactory:
    """Tape-task envs for a spec: ``factory(seed, length)`` makes one
    unreset env, ``factory.latents(seeds, lengths)`` draws a batch of
    reset ones into arrays.  A length of None means the spec's range."""

    def __init__(self, task, length_cap):
        self.task, self.length_cap = task, length_cap

    def _range(self, length):
        return (length, length) if length else (2, self.length_cap)

    def __call__(self, seed, length):
        return make_env(self.task, seed, self._range(length))

    def latents(self, seeds, lengths):
        return draw_latents(self.task, seeds, [self._range(length) for length in lengths])


def env_factory_for(spec: TrialSpec):
    task = spec.task
    if task in TAPE_TASKS:
        return _TapeFactory(task, spec.length_cap)
    if task is TaskId.BINARY_SEARCH:
        def factory(seed, length=None):
            return make_env(task, seed)
        return factory
    raise ValueError(f"run_trial does not handle task {task}; "
                     "use run_bandit_experiment for the bandit")


def evaluate_greedy(policy, spec: TrialSpec, eval_rng):
    """Greedy decoding over eval_episodes random instances across the
    configured length range; returns (mean_reward, accuracy)."""
    factory = env_factory_for(spec)
    seeds, lengths = [], []
    for _ in range(spec.eval_episodes):
        seeds.append(int(eval_rng.integers(0, 2**63)))
        lengths.append(int(eval_rng.integers(2, spec.length_cap + 1))
                       if spec.task in TAPE_TASKS else None)
    if spec.task in TAPE_TASKS:
        envs = factory.latents(seeds, lengths)
    else:
        envs = [factory(seed, length) for seed, length in zip(seeds, lengths)]
        for env in envs:
            env.reset()
    if isinstance(policy, DoubleQLearner):
        policy, envs = policy.online, [JointActionView(env) for env in envs]
    batch, _ = policy.rollout(envs, greedy=True)
    perfect = batch.totals >= batch.max_rewards
    return float(batch.totals.mean()), float(perfect.mean())


def is_success(spec: TrialSpec, mean_reward: float, accuracy: float) -> bool:
    if spec.success_rule == "perfect":
        return accuracy >= 1.0
    return spec.success_threshold is not None and mean_reward >= spec.success_threshold


def _policy_gradient_learner(spec: TrialSpec, factory, probe):
    curriculum = None
    if spec.task in TAPE_TASKS:
        curriculum = CurriculumState(length_cap=spec.length_cap)
    policy = policy_for_env(probe, spec.hidden_size)
    policy.init_params(np.random.Generator(np.random.PCG64(spec.restart_seed)))
    config = TrainConfig(method=spec.method, tau=spec.tau, learning_rate=spec.eta,
                         clip_norm=spec.clip, k=spec.k, n=spec.n, seed=spec.restart_seed)
    trainer = PolicyGradientTrainer(policy, factory, config, curriculum)

    def step():
        row = trainer.step().record()
        return row["mean_reward"], row

    return policy, step


def _q_learner(spec: TrialSpec, factory, probe):
    qconf = QConfig(learning_rate=spec.eta, hidden_size=spec.hidden_size,
                    seed=spec.restart_seed)
    learner = DoubleQLearner(probe, qconf)
    env_seed_rng = np.random.Generator(np.random.PCG64(spec.restart_seed))
    length_rng = np.random.Generator(np.random.PCG64(spec.restart_seed + 1))

    def step():
        length = None
        if spec.task in TAPE_TASKS:
            length = int(length_rng.integers(2, spec.length_cap + 1))
        row = learner.train_step(factory(int(env_seed_rng.integers(0, 2**63)), length))
        return row["episode_reward"], row

    return learner, step


@blas_threads(1)
def run_trial(spec: TrialSpec, metrics_path=None) -> TrialResult:
    """Train per ``spec`` until the step budget or first successful
    evaluation; deterministic given the spec.

    The method supplies a learner and a step callable returning (training
    reward, metrics row); the loop around them is the same for every method.
    numpy's BLAS is held at one thread for the trial, so its bits do not
    depend on the thread count the caller runs at (see ``urex.harness.blas``).
    """
    factory = env_factory_for(spec)
    probe = factory(0, 2 if spec.task in TAPE_TASKS else None)
    probe.reset()
    make_learner = _q_learner if spec.method == "qlearn" else _policy_gradient_learner
    learner, train_step = make_learner(spec, factory, probe)
    eval_rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([spec.restart_seed, _EVAL_STREAM])))
    result = TrialResult(spec_key=spec.key(), success=False, success_step=None,
                         final_expected_reward=float("nan"), steps_run=0)
    sink = open(metrics_path, "w") if metrics_path else None
    try:
        for step in range(1, spec.max_steps + 1):
            try:
                reward, row = train_step()
            except PolicyDivergence as err:
                result.failure_cause = f"divergence: {err}"
                break
            result.reward_curve.append(reward)
            if row.get("weight_variance") is not None:
                result.weight_variance_curve.append(row["weight_variance"])
            result.steps_run = step
            if sink:
                sink.write(json.dumps(row) + "\n")
            if step % spec.eval_every == 0 or step == spec.max_steps:
                mean_reward, accuracy = evaluate_greedy(learner, spec, eval_rng)
                result.eval_history.append((step, mean_reward, accuracy))
                if is_success(spec, mean_reward, accuracy):
                    result.success = True
                    result.success_step = step
                    break
    finally:
        if sink:
            sink.close()
    tail = result.reward_curve[-FINAL_REWARD_BATCHES:]
    result.final_expected_reward = float(np.mean(tail)) if tail else float("nan")
    result.policy = learner
    return result
