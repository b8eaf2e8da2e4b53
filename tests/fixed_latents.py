"""Envs held at a given latent state, for tests that need a known instance."""

import numpy as np

from urex.envs.bandit import BanditEnv


class FixedBanditEnv(BanditEnv):
    """A ``BanditEnv`` whose latent is always ``payoffs`` and ``features``
    (one indicator feature per arm when no features are given)."""

    def __init__(self, seed, payoffs, features=None):
        payoffs = np.asarray(payoffs, dtype=float)
        features = np.eye(len(payoffs)) if features is None else np.asarray(features, dtype=float)
        super().__init__(seed, num_actions=len(payoffs), dim=features.shape[1])
        self.fixed = (payoffs, features)

    def _draw_latent(self, stream):
        self.payoffs, self.features = self.fixed


def set_search_latent(env, n: int, query_pos: int) -> int:
    """Install the sorted array ``0, 1, ..., n - 1`` with the query at
    ``query_pos`` in a ``BinarySearchEnv``, and restart it."""
    env._install(tuple(range(int(n))), query_pos)
    env._has_latent = True
    return env.restart()
