"""Input-length scheduling: lengthen the hidden inputs once the agent
sustains near-maximal reward."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .envs import TRAIN_LENGTH_RANGE

LENGTH_FLOOR, LENGTH_CAP = TRAIN_LENGTH_RANGE


@dataclass
class CurriculumState:
    """Tracks recent reward ratios and the current maximum input length.

    Episodes are recorded as ``total_reward / max_total_reward``; once
    ``window`` ratios have accumulated and their mean reaches
    ``advance_threshold`` the maximum length increments (capped) and the
    window clears, so no episode counts toward two levels.

    Evidence for a level comes only from episodes sampled at it: an
    episode recorded with the ``level`` (``current_max_length``) its
    length was drawn under is ignored once the curriculum has moved past
    that level.  A batch whose lengths are all drawn before any of its
    episodes is recorded therefore raises the level at most once.
    """

    current_max_length: int = LENGTH_FLOOR
    advance_threshold: float = 0.95
    window: int = 100
    length_cap: int = LENGTH_CAP
    ratios: deque = field(default_factory=deque)
    _ratio_sum: float = 0.0

    def record_episode(self, total_reward: float, max_total_reward: float,
                       level: int | None = None) -> "CurriculumState":
        if max_total_reward <= 0:
            raise ValueError("max_total_reward must be positive")
        if level is not None and level < self.current_max_length:
            return self
        ratio = total_reward / max_total_reward
        self.ratios.append(ratio)
        self._ratio_sum += ratio
        if len(self.ratios) > self.window:
            self._ratio_sum -= self.ratios.popleft()
        if len(self.ratios) == self.window and self._ratio_sum >= self.advance_threshold * self.window:
            self.current_max_length = min(self.current_max_length + 1, self.length_cap)
            self.ratios.clear()
            self._ratio_sum = 0.0
        return self

    def sample_length(self, rng: np.random.Generator) -> int:
        return draw_length(rng, self.current_max_length)


def draw_length(rng: np.random.Generator, cap: int) -> int:
    """An input length drawn uniformly from LENGTH_FLOOR..cap."""
    return int(rng.integers(LENGTH_FLOOR, cap + 1))

