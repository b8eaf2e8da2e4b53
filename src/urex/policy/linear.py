"""Linear-softmax bandit policy: pi(a) proportional to exp(features[a] . theta)."""

from __future__ import annotations

import numpy as np

from ..envs.base import COMPLETED
from ..types import TrajectoryBatch
from .params import ParamVector


class LinearBanditPolicy:
    """Single-step policy over a fixed action set with per-action features.

    The feature matrix lives in the environment; the policy owns only the
    weight vector, so one policy instance can be evaluated against any
    bandit instance of matching dimension.
    """

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.params = ParamVector([("theta", (self.dim,))])

    def init_params(self, rng: np.random.Generator, scale: float) -> None:
        self.params.flat[:] = rng.normal(scale=scale, size=self.dim)

    def log_probs(self, env) -> np.ndarray:
        logits = env.features @ self.params.flat
        shifted = logits - logits.max()
        return shifted - np.log(np.exp(shifted).sum())

    def probs(self, env) -> np.ndarray:
        return np.exp(self.log_probs(env))

    def expected_reward(self, env) -> float:
        return float(self.probs(env) @ env.payoffs)

    def sample(self, env, rng: np.random.Generator, k: int = 1) -> TrajectoryBatch:
        """Draw k single-step trajectories from one bandit instance."""
        env.restart()
        logp = self.log_probs(env)
        cdf = np.cumsum(np.exp(logp))
        arms = np.minimum(np.searchsorted(cdf, rng.random(k), side="right"), len(cdf) - 1)
        payoffs = env.payoffs[arms]
        return TrajectoryBatch(
            observations=np.zeros((k, 1), dtype=np.int64),
            actions=arms.reshape(k, 1, 1),
            rewards=payoffs.reshape(k, 1),
            lengths=np.ones(k, dtype=np.int64),
            totals=payoffs,
            log_probs=logp[arms],
            max_rewards=np.full(k, env.max_total_reward()),
            seeds=np.full(k, env.seed, dtype=object),
            causes=np.full(k, COMPLETED, dtype=object),
        )

    def weighted_logprob(self, batch: TrajectoryBatch, coefficients, env) -> float:
        return float(np.dot(coefficients, self.log_probs(env)[batch.actions[:, 0, 0]]))

    def weighted_grad(self, batch: TrajectoryBatch, coefficients, env) -> np.ndarray:
        """Gradient of sum_j c_j log pi(a_j): sum_j c_j (phi[a_j] - E_pi[phi])."""
        coeffs = np.asarray(coefficients, dtype=float)
        arms = batch.actions[:, 0, 0]
        probs = self.probs(env)
        mean_phi = probs @ env.features
        return env.features[arms].T @ coeffs - coeffs.sum() * mean_phi

    # -- collection protocol shared with the recurrent policy -------------------
    def collect(self, group_envs, k: int, rng: np.random.Generator):
        """k arms from the one bandit instance an update trains on."""
        if len(group_envs) != 1:
            raise ValueError(f"collect takes one bandit instance, got {len(group_envs)}")
        env = group_envs[0]
        batch = self.sample(env, rng, k)
        return batch, lambda coeffs: self.weighted_grad(batch, coeffs, env)
