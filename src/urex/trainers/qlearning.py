"""One-step double Q-learning baseline on the same recurrent network.

The action-value net reuses the recurrent policy class with a single
head of one Q-value per joint action: index ``j`` enumerates the env's
head tuples in mixed radix, last head fastest, and the env's
``decode_action((j,))`` reads it.  Episodes are collected with
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
        if self.eps_decay_steps < 1:
            raise ValueError("eps_decay_steps must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0")

    def epsilon(self, step: int) -> float:
        frac = min(1.0, step / self.eps_decay_steps)
        return self.eps_start + frac * (self.eps_end - self.eps_start)


class DoubleQLearner:
    """Online/target recurrent Q-networks with epsilon-greedy episodes."""

    def __init__(self, env_template, config: QConfig):
        joint = int(np.prod([size for _, size in env_template.action_heads]))
        self.config = config
        self.online = RecurrentPolicy(env_template.num_observations, (("q", joint),),
                                      config.hidden_size)
        self.online.init_params(np.random.Generator(np.random.PCG64(config.seed)))
        self.target = self.online.spawn_like()
        self.optim = AdamState.like(self.online.params.flat)
        self.rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed).spawn(1)[0]))
        self.updates = 0

    def train_step(self, env) -> dict:
        """Collect one epsilon-greedy episode from ``env`` and fit its targets."""
        env.reset()
        eps = self.config.epsilon(self.updates)
        batch, steps = self.online.rollout([env], rng=self.rng, eps=eps, collect=True)
        T = int(batch.lengths[0])
        rewards = batch.rewards[0, :T]
        q_online = np.concatenate([st.logits for st in steps])  # (T, A)
        _, target_steps = self.target.replay(batch, collect=True)
        q_target = np.concatenate([st.logits for st in target_steps])
        best_next = q_online[1:].argmax(axis=1)
        targets = rewards.copy()
        targets[:-1] += self.config.discount * q_target[1:][np.arange(T - 1), best_next]
        taken = batch.actions[0, :T, 0]
        residual = q_online[np.arange(T), taken] - targets

        def dlogits_fn(t, st):
            d = np.zeros_like(st.head_probs)
            # ascent on the negated squared error
            d[0, taken[t]] = -2.0 * residual[t]
            return d

        grad = self.online.backward(steps, dlogits_fn)
        del steps, target_steps  # Adam reads neither
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
        trajs, _ = self.online.rollout([env], greedy=True)
        return trajs[0]
