"""Single-step bandit with power-law payoffs and a linear feature map."""

from __future__ import annotations

import numpy as np

from .base import COMPLETED, Env, StepResult


def bandit_payoffs(seed: int, num_actions: int, beta: float, dim: int = 30):
    """Draw payoffs ``r_i = u_i ** beta`` (u uniform on [0,1)) and standard
    normal feature vectors, one per action.

    Returns ``(payoffs, features)`` with shapes (A,) and (A, dim).
    """
    if num_actions < 1:
        raise ValueError("num_actions must be >= 1")
    if beta < 0:
        raise ValueError("beta must be >= 0")
    stream = np.random.Generator(np.random.PCG64(seed))
    u = stream.random(num_actions)
    payoffs = u**beta
    features = stream.standard_normal((num_actions, dim))
    return payoffs, features


class BanditEnv(Env):
    num_observations = 1
    action_heads = None  # set per instance

    def __init__(self, seed: int, num_actions: int = 10_000, beta: float = 8.0,
                 dim: int = 30):
        super().__init__(seed)
        self.num_actions = int(num_actions)
        self.beta = float(beta)
        self.dim = int(dim)
        self.action_heads = (("arm", self.num_actions),)

    def _draw_latent(self, stream):
        seed = int(stream.integers(0, 2**63))
        self.payoffs, self.features = bandit_payoffs(seed, self.num_actions, self.beta, self.dim)

    def _begin(self) -> int:
        return 0

    def max_total_reward(self) -> float:
        return float(self.payoffs.max())

    def step(self, action) -> StepResult:
        self._require_running()
        (arm,) = action if isinstance(action, tuple) else (action,)
        if not 0 <= arm < self.num_actions:
            raise ValueError(f"arm {arm} out of range")
        self.steps += 1
        self.done = True
        return StepResult(0, float(self.payoffs[arm]), True, COMPLETED)
