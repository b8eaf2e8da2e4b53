"""Shared value types passed between environments, policies and trainers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Trajectory:
    """One finished episode.

    ``actions`` holds one tuple of head indices per step, e.g. ``(move,
    write, symbol)`` for tape tasks or a 1-tuple for single-head tasks.
    ``log_prob`` is the policy log-probability of the whole action
    sequence as recorded at sampling time (0.0 for scripted policies).
    """

    observations: list = field(default_factory=list)
    actions: list = field(default_factory=list)
    rewards: list = field(default_factory=list)
    total_reward: float = 0.0
    log_prob: float = 0.0
    env_seed: int = 0
    max_total_reward: float = 0.0
    cause: str | None = None


@dataclass
class TrajectoryBatch:
    """B finished episodes held as arrays padded to the longest episode.

    Row ``b`` ran ``lengths[b]`` steps: at step ``t`` it observed
    ``observations[b, t]``, took ``actions[b, t]`` (one index per policy
    head) and was paid ``rewards[b, t]``.  Entries past a row's length
    are zero.  ``totals`` are the step rewards summed in step order.
    Indexing or iterating materialises ``Trajectory`` objects.
    """

    observations: np.ndarray  # (B, T) int64
    actions: np.ndarray  # (B, T, n_heads) int64
    rewards: np.ndarray  # (B, T) float64
    lengths: np.ndarray  # (B,) int64
    totals: np.ndarray  # (B,) float64
    log_probs: np.ndarray  # (B,) float64
    max_rewards: np.ndarray  # (B,) float64
    seeds: np.ndarray  # (B,) object: env seeds
    causes: np.ndarray  # (B,) object: termination causes

    def __len__(self) -> int:
        return self.lengths.size

    def __getitem__(self, b: int) -> Trajectory:
        n = self.lengths[b]
        return Trajectory(
            observations=self.observations[b, :n].tolist(),
            actions=list(map(tuple, self.actions[b, :n].tolist())),
            rewards=self.rewards[b, :n].tolist(),
            total_reward=float(self.totals[b]),
            log_prob=float(self.log_probs[b]),
            env_seed=self.seeds[b],
            max_total_reward=float(self.max_rewards[b]),
            cause=self.causes[b],
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @classmethod
    def from_trajectories(cls, trajectories) -> "TrajectoryBatch":
        trajs = list(trajectories)
        if not trajs:
            raise ValueError("from_trajectories needs at least one trajectory, got none")
        lengths = np.array([len(t.actions) for t in trajs], dtype=np.int64)
        filled = np.arange(lengths.max()) < lengths[:, None]  # row-major, as concatenated

        def padded(per_step, dtype=np.int64):
            values = np.array(per_step, dtype=dtype)
            out = np.zeros(filled.shape + values.shape[1:], dtype=dtype)
            out[filled] = values
            return out

        return cls(
            observations=padded([o for t in trajs for o in t.observations]),
            actions=padded([a for t in trajs for a in t.actions]),
            rewards=padded([r for t in trajs for r in t.rewards], dtype=float),
            lengths=lengths,
            totals=np.array([t.total_reward for t in trajs], dtype=float),
            log_probs=np.array([t.log_prob for t in trajs], dtype=float),
            max_rewards=np.array([t.max_total_reward for t in trajs], dtype=float),
            seeds=np.array([t.env_seed for t in trajs], dtype=object),
            causes=np.array([t.cause for t in trajs], dtype=object),
        )
