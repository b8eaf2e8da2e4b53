"""One-step double Q-learning baseline on the same recurrent network.

The action-value net reuses the recurrent policy class with a single
head of one Q-value per joint action.  Episodes are collected with
epsilon-greedy control; each step fits the one-step bootstrapped targets
``r + gamma * Q_target(s', argmax_a Q_online(s', a))``, syncing the
target network every ``sync_every`` updates.  Unlike the policy-gradient
methods this baseline consumes the environments' per-step rewards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..policy.recurrent import RecurrentPolicy
from .optim import AdamState, adam_update


@dataclass
class QConfig:
    eps_start: float = 1.0
    eps_end: float = 0.1
    eps_decay_steps: int = 1000
    sync_every: int = 50
    learning_rate: float = 1e-2
    discount: float = 0.99
    hidden_size: int = 32
    seed: int = 0

    def __post_init__(self):
        for e in (self.eps_start, self.eps_end):
            if not 0.0 <= e <= 1.0:
                raise ValueError("epsilon must lie in [0, 1]")
        if self.sync_every < 1:
            raise ValueError("sync_every must be >= 1")

    def epsilon(self, step: int) -> float:
        if self.eps_decay_steps <= 0:
            return self.eps_end
        frac = min(1.0, step / self.eps_decay_steps)
        return self.eps_start + frac * (self.eps_end - self.eps_start)


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


class DoubleQLearner:
    """Online/target recurrent Q-networks with epsilon-greedy episodes."""

    def __init__(self, env_template, config: QConfig):
        view = JointActionView(env_template)
        self.config = config
        self.online = RecurrentPolicy(view.num_observations, view.action_heads,
                                      config.hidden_size)
        self.online.init_params(np.random.Generator(np.random.PCG64(config.seed)))
        self.target = self.online.spawn_like()
        self.optim = AdamState.like(self.online.params.flat)
        self.rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed).spawn(1)[0]))
        self.updates = 0

    def q_values(self, trajectory) -> np.ndarray:
        """Online-net Q-values along a fixed episode, shape (T, A)."""
        _, cache = self.online.replay([trajectory], collect=True)
        return np.stack([st.logits[0] for st in cache.steps])

    def train_step(self, env) -> dict:
        """Collect one epsilon-greedy episode from ``env`` and fit its targets."""
        view = JointActionView(env)
        view.reset()
        eps = self.config.epsilon(self.updates)
        batch, cache = self.online.rollout([view], rng=self.rng, eps=eps, collect=True)
        T = int(batch.lengths[0])
        rewards = batch.rewards[0, :T]
        gamma = self.config.discount
        q_online = np.array([cache.steps[t].logits[0] for t in range(T)])
        _, target_cache = self.target.replay(batch, collect=True)
        q_target = np.array([target_cache.steps[t].logits[0] for t in range(T)])
        targets = np.empty(T)
        for t in range(T - 1):
            best_next = int(q_online[t + 1].argmax())
            targets[t] = rewards[t] + gamma * q_target[t + 1, best_next]
        targets[T - 1] = rewards[T - 1]
        taken = batch.actions[0, :T, 0]
        residual = q_online[np.arange(T), taken] - targets

        def dlogits_fn(t, st):
            d = np.zeros_like(st.head_probs)
            if t < T:
                # ascent on the negated squared error
                d[0, taken[t]] = -2.0 * residual[t]
            return d

        grad = self.online.backward(cache, dlogits_fn)
        self.online.params.flat[:] = adam_update(
            self.online.params.flat, grad, self.optim, self.config.learning_rate
        )
        self.updates += 1
        if self.updates % self.config.sync_every == 0:
            self.target.params.flat[:] = self.online.params.flat
        return {
            "step": self.updates,
            "epsilon": eps,
            "loss": float(np.mean(residual**2)),
            "episode_reward": float(batch.totals[0]),
            "episode_len": T,
        }

    def greedy_episode(self, env):
        trajs, _ = self.online.rollout([JointActionView(env)], greedy=True)
        return trajs[0]

