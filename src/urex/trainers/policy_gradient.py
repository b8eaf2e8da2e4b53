"""Batched policy-gradient training step for the episodic tasks.

One step draws N fresh environment latents, samples K trajectories from
each (400 samples at the default K=10, N=40), turns the group rewards and
log-probs into per-trajectory coefficients for the configured method, and
applies clipped Adam ascent.  ``update`` is that step on given envs; the
method enters only through the coefficients.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .coefficients import (importance_weights, ment_coefficients, urex_coefficients,
                           weight_variance)
from .optim import AdamState, adam_update, clip_gradient

METHODS = ("ment", "urex")


@dataclass
class TrainConfig:
    method: str
    tau: float
    learning_rate: float = 0.01
    clip_norm: float = 10.0
    k: int = 10
    n: int = 40
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "urex" and self.tau <= 0:
            raise ValueError("urex requires tau > 0")
        if not (0 <= self.tau < np.inf and 0 < self.learning_rate < np.inf
                and 0 < self.clip_norm < np.inf):
            raise ValueError("finite tau >= 0, learning_rate > 0 and clip_norm > 0 required")
        if self.k < 2:
            raise ValueError("K >= 2 required for within-group centering")


@dataclass
class StepMetrics:
    step: int
    method: str
    tau: float
    eta: float
    clip: float
    mean_reward: float
    coef_mean: float
    coef_std: float
    grad_norm_pre: float
    grad_norm_post: float
    wall_ms: float
    max_len: int | None = None
    weight_variance: float | None = None

    def record(self) -> dict:
        row = asdict(self)
        if self.weight_variance is None:
            row.pop("weight_variance")
        return row


def group_coefficients(config: TrainConfig, rewards, log_probs) -> tuple[np.ndarray, float | None]:
    """Flat coefficient vector for N groups of K trajectories, from their
    (N, K) total rewards and log-probs.

    Also returns the mean importance-weight variance across groups when
    the method uses importance weights.
    """
    n = rewards.shape[0]
    if config.method == "urex":
        coeffs = urex_coefficients(rewards, log_probs, config.tau, num_groups=n)
        weights = importance_weights(rewards, log_probs, config.tau)
        return coeffs.ravel(), float(np.mean(weight_variance(weights)))
    return ment_coefficients(rewards, log_probs, config.tau, num_groups=n).ravel(), None


def update(policy, optim: AdamState, envs, config: TrainConfig, rng):
    """One update on pre-reset group envs: sample ``config.k`` trajectories
    per env, weight their log-probs by the method's coefficients, and take
    a clipped Adam ascent step.

    Returns (TrajectoryBatch, coefficients, weight variance, gradient norm
    before and after clipping).
    """
    batch, grad_fn = policy.collect(envs, config.k, rng)
    shape = (len(envs), config.k)
    coeffs, wvar = group_coefficients(config, batch.totals.reshape(shape),
                                      batch.log_probs.reshape(shape))
    grad = grad_fn(coeffs)
    del grad_fn  # and with it the rollout cache, which clipping and Adam do not read
    norm_pre = float(np.linalg.norm(grad))
    clipped = clip_gradient(grad, config.clip_norm)
    norm_post = norm_pre if clipped is grad else float(np.linalg.norm(clipped))
    policy.params.flat[:] = adam_update(policy.params.flat, clipped, optim, config.learning_rate)
    return batch, coeffs, wvar, norm_pre, norm_post


class PolicyGradientTrainer:
    """Owns the optimizer state and RNG streams for one training run.

    ``env_factory.latents(seeds, lengths)`` must return the batch's reset
    environments, one per seed; ``lengths`` are the curriculum's draws, or
    None each when no curriculum is attached.
    ``urex.harness.trial.env_factory_for`` gives a spec's factory, whose
    tape-task batches step on arrays.
    """

    def __init__(self, policy, env_factory, config: TrainConfig, curriculum=None):
        self.policy = policy
        self.env_factory = env_factory
        self.config = config
        self.curriculum = curriculum
        self.optim = AdamState.like(policy.params.flat)
        root = np.random.SeedSequence(config.seed)
        seeds = root.spawn(3)
        self.env_seed_rng = np.random.Generator(np.random.PCG64(seeds[0]))
        self.sample_rng = np.random.Generator(np.random.PCG64(seeds[1]))
        self.length_rng = np.random.Generator(np.random.PCG64(seeds[2]))
        self.step_count = 0

    def step(self) -> StepMetrics:
        t0 = time.perf_counter()
        cfg = self.config
        level = None if self.curriculum is None else self.curriculum.current_max_length
        seeds = self.env_seed_rng.integers(0, 2**63, size=cfg.n).tolist()
        lengths = [None] * cfg.n
        if self.curriculum is not None:
            lengths = [self.curriculum.sample_length(self.length_rng) for _ in range(cfg.n)]
        envs = self.env_factory.latents(seeds, lengths)
        batch, coeffs, wvar, norm_pre, norm_post = update(
            self.policy, self.optim, envs, cfg, self.sample_rng)
        if self.curriculum is not None:
            for total, best in zip(batch.totals.tolist(), batch.max_rewards.tolist()):
                self.curriculum.record_episode(total, best, level)
        self.step_count += 1
        return StepMetrics(
            step=self.step_count,
            method=cfg.method,
            tau=cfg.tau,
            eta=cfg.learning_rate,
            clip=cfg.clip_norm,
            mean_reward=float(np.mean(batch.totals)),
            coef_mean=float(np.mean(coeffs)),
            coef_std=float(np.std(coeffs)),
            grad_norm_pre=norm_pre,
            grad_norm_post=norm_post,
            wall_ms=(time.perf_counter() - t0) * 1e3,
            max_len=None if self.curriculum is None else self.curriculum.current_max_length,
            weight_variance=wvar,
        )
