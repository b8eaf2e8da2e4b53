"""The joint-action view Q-learning once stepped factored-action envs
through, kept as the reference for the joint-index decode."""

import numpy as np


class JointActionView:
    """Presents a factored-action env as a single joint-action env."""

    def __init__(self, env):
        self._env = env
        self.sizes = tuple(size for _, size in env.action_heads)
        self.num_actions = int(np.prod(self.sizes))
        self.action_heads = (("q", self.num_actions),)
        self.num_observations = env.num_observations
        self.seed = env.seed

    def decode_action(self, head_tuple):
        idx = head_tuple[0]
        factors = []
        for size in reversed(self.sizes):
            factors.append(idx % size)
            idx //= size
        return self._env.decode_action(tuple(reversed(factors)))

    def clone(self):
        return JointActionView(self._env.clone())

    def __getattr__(self, name):
        return getattr(self._env, name)
