"""Linear-softmax bandit policy: pi(a) proportional to exp(features[a] . theta)."""

from __future__ import annotations

import numpy as np

from ..types import Trajectory, TrajectoryBatch
from .params import ParamVector
from .recurrent import _log_softmax


class LinearBanditPolicy:
    """Single-step policy over a fixed action set with per-action features.

    The feature matrix lives in the environment; the policy owns only the
    weight vector, so one policy instance can be evaluated against any
    bandit instance of matching dimension.
    """

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.params = ParamVector([("theta", (self.dim,))])

    def init_params(self, rng: np.random.Generator, scale: float = 0.0) -> None:
        if scale:
            self.params.flat[:] = rng.normal(scale=scale, size=self.dim)
        else:
            self.params.flat[:] = 0.0

    def meta(self) -> dict:
        return {"kind": "linear", "dim": self.dim}

    @classmethod
    def from_meta(cls, meta: dict) -> "LinearBanditPolicy":
        return cls(meta["dim"])

    def log_probs(self, env) -> np.ndarray:
        return _log_softmax((env.features @ self.params.flat)[None, :])[0]

    def probs(self, env) -> np.ndarray:
        return np.exp(self.log_probs(env))

    def expected_reward(self, env) -> float:
        return float(self.probs(env) @ env.payoffs)

    def log_prob(self, trajectory: Trajectory, env) -> float:
        (arm,) = trajectory.actions[0]
        return float(self.log_probs(env)[arm])

    def sample(self, env, rng: np.random.Generator, k: int = 1):
        """Draw k single-step trajectories from one bandit instance."""
        env.restart()
        logp = self.log_probs(env)
        cdf = np.cumsum(np.exp(logp))
        arms = np.minimum(np.searchsorted(cdf, rng.random(k), side="right"), len(cdf) - 1)
        best = env.max_total_reward()
        episode = env.clone()  # restarted for each draw: one fresh episode per arm
        trajs = []
        for arm, arm_logp in zip(arms.tolist(), logp[arms].tolist()):
            episode.restart()
            res = episode.step(arm)
            trajs.append(
                Trajectory(
                    observations=[0],
                    actions=[(arm,)],
                    rewards=[res.reward],
                    total_reward=res.reward,
                    log_prob=arm_logp,
                    env_seed=env.seed,
                    max_total_reward=best,
                    cause=res.cause,
                )
            )
        return trajs

    def weighted_logprob(self, trajectories, coefficients, env) -> float:
        logp = self.log_probs(env)
        arms = [t.actions[0][0] for t in trajectories]
        return float(np.dot(coefficients, logp[arms]))

    def weighted_grad(self, trajectories, coefficients, env) -> np.ndarray:
        """Gradient of sum_j c_j log pi(a_j): sum_j c_j (phi[a_j] - E_pi[phi])."""
        coeffs = np.asarray(coefficients, dtype=float)
        arms = np.array([t.actions[0][0] for t in trajectories])
        probs = self.probs(env)
        mean_phi = probs @ env.features
        return env.features[arms].T @ coeffs - coeffs.sum() * mean_phi

    # -- collection protocol shared with the recurrent policy -------------------
    def collect(self, group_envs, k: int, rng: np.random.Generator):
        groups = [self.sample(env, rng, k) for env in group_envs]
        batch = TrajectoryBatch.from_trajectories(t for group in groups for t in group)

        def grad_fn(coeffs):
            coeffs = np.asarray(coeffs, dtype=float)
            grad = np.zeros(self.dim)
            for g, env in enumerate(group_envs):
                grad += self.weighted_grad(groups[g], coeffs[g * k : (g + 1) * k], env)
            return grad

        return batch, grad_fn
