"""Pointer-on-a-tape emission tasks.

Four of the tasks read a one-dimensional symbol tape through a movable
pointer; the addition task reads a 2 x n digit grid.  Every action is a
``(move, write, symbol)`` triple: the write is scored against the next
expected output symbol, then the pointer moves, then the new cell (or a
blank, outside the written region) is observed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .base import (COMPLETED, STEP_LIMIT, WRONG_EMISSION, Env, EpisodeError,
                   RowStepper, StepResult)

MOVE_LEFT, MOVE_RIGHT, MOVE_UP, MOVE_DOWN = 0, 1, 2, 3
_ROW_STEP = (0, 0, -1, 1)  # indexed by move
_COL_STEP = (-1, 1, 0, 0)


class TapeAction(NamedTuple):
    move: int
    write: int  # 0 or 1
    symbol: int  # ignored by the env when write is 0


def decode_joint(j, base: int):
    """Joint action index ``j`` (an int or an int array) of a task with
    ``base`` symbols as its ``(move, write, symbol)``."""
    return j // (2 * base), j // base % 2, j % base


class TapeEnv(Env):
    """Common emission/reward/step-limit logic for all tape tasks.

    A task is its ``_draw_grid``, ``_grid_target`` and ``_oracle_actions``:
    the grid of symbols a latent holds (the tape is its row 0), the symbols
    to emit and a perfect episode, which writes them.  The pointer starts at
    cell ``(row, col) = (0, 0)``; off the grid it observes a blank.
    """

    n_moves = 2
    base = 5  # tape symbols

    def __init__(self, seed: int, length_range: tuple[int, int]):
        super().__init__(seed)
        lo, hi = int(length_range[0]), int(length_range[1])
        if lo < 2 or hi < lo:
            raise ValueError(f"bad length range {length_range!r}")
        self.length_range = (lo, hi)

    @property
    def num_observations(self) -> int:
        return self.base + 1  # symbols plus blank

    @property
    def action_heads(self) -> tuple:
        return (("move", self.n_moves), ("write", 2), ("out", self.base))

    @property
    def blank(self) -> int:
        return self.base

    # -- latent -------------------------------------------------------------
    def _draw_latent(self, stream):
        lo, hi = self.length_range
        self._set_grid(self._draw_grid(stream, int(stream.integers(lo, hi + 1))))

    def _set_grid(self, grid: np.ndarray) -> None:
        self.grid = tuple(map(tuple, grid.tolist()))
        self.input_length = grid.shape[1]
        self.target = tuple(self._grid_target(grid).tolist())
        self.step_limit = 4 * self.input_length + 4

    @classmethod
    def _draw_grid(cls, stream, length: int) -> np.ndarray:
        """The latent's symbols as an (n_rows, input_length) array."""
        return stream.integers(0, cls.base, size=(1, length))

    @staticmethod
    def _grid_target(grid: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def max_total_reward(self) -> float:
        return float(len(self.target))

    def _oracle_actions(self) -> list[TapeAction]:
        # a write is scored against the next target symbol wherever the pointer stands
        return [TapeAction(MOVE_RIGHT, 1, s) for s in self.target]

    # -- episode -------------------------------------------------------------
    def _begin(self) -> int:
        self.row = self.col = self.emitted = 0
        return self._observe()

    def _observe(self) -> int:
        if 0 <= self.row < len(self.grid) and 0 <= self.col < self.input_length:
            return self.grid[self.row][self.col]
        return self.blank

    def decode_action(self, head_tuple):
        """A (move, write, symbol) triple as it is, and a one-entry joint
        index as ``decode_joint`` reads it."""
        if len(head_tuple) != 1:
            return head_tuple
        return decode_joint(head_tuple[0], self.base)

    def step(self, action) -> StepResult:
        self._require_running()
        move, write, symbol = action
        if not 0 <= move < self.n_moves:
            raise ValueError(f"move {move} out of range for {self.task}")
        self.steps += 1
        reward = 0.0
        cause = None
        if write:
            if self.emitted < len(self.target) and symbol == self.target[self.emitted]:
                reward = 1.0
                self.emitted += 1
                if self.emitted == len(self.target):
                    self.done = True
                    cause = COMPLETED
            else:
                reward = -0.5
                self.done = True
                cause = WRONG_EMISSION
        if not self.done and self.steps >= self.step_limit:
            reward += -1.0
            self.done = True
            cause = STEP_LIMIT
        self.row += _ROW_STEP[move]
        self.col += _COL_STEP[move]
        return StepResult(self._observe(), reward, self.done, cause)


class CopyEnv(TapeEnv):
    @staticmethod
    def _grid_target(grid):
        return grid[0]


class DuplicatedInputEnv(TapeEnv):
    """Tape holds each hidden symbol twice; the target is one copy of each."""

    duplication = 2

    @classmethod
    def _draw_grid(cls, stream, length):
        groups = max(1, length // cls.duplication)
        return np.repeat(stream.integers(0, cls.base, size=(1, groups)), cls.duplication, axis=1)

    @classmethod
    def _grid_target(cls, grid):
        return grid[0, :: cls.duplication]

    def _oracle_actions(self):
        walk = [TapeAction(MOVE_RIGHT, write, s) for s in self.target for write in (1, 0)]
        return walk[:-1]  # the episode ends at its last write


class RepeatCopyEnv(TapeEnv):
    @staticmethod
    def _grid_target(grid):
        return np.concatenate((grid[0], grid[0, ::-1], grid[0]))

    def _oracle_actions(self):
        n = len(self.target) // 3
        moves = [MOVE_RIGHT] * n + [MOVE_LEFT] * n + [MOVE_RIGHT] * n
        return [TapeAction(move, 1, s) for move, s in zip(moves, self.target)]


class ReverseEnv(TapeEnv):
    @staticmethod
    def _grid_target(grid):
        return grid[0, ::-1]

    def _oracle_actions(self):
        skips = [TapeAction(MOVE_RIGHT, 0, 0)] * len(self.target)  # to the tape's end
        return skips + [TapeAction(MOVE_LEFT, 1, s) for s in self.target]


class ReversedAdditionEnv(TapeEnv):
    """2 x n grid of base-3 digits; target is the little-endian digit sum."""

    n_moves = 4
    base = 3

    @classmethod
    def _draw_grid(cls, stream, length):
        return np.stack([stream.integers(0, cls.base, size=length) for _ in range(2)])

    @classmethod
    def _grid_target(cls, grid):
        digits = []
        carry = 0
        for a, b in zip(*grid.tolist()):
            s = a + b + carry
            digits.append(s % cls.base)
            carry = s // cls.base
        if carry:
            digits.append(carry)
        return np.array(digits, dtype=np.int64)


_CAUSES = np.array([None, COMPLETED, WRONG_EMISSION, STEP_LIMIT], dtype=object)
# reward by 2 * cause + correct: a correct emission pays +1 (also when it
# completes), a wrong one -0.5, and the step limit -1 on top
_REWARDS = np.array([0.0, 1.0, np.nan, 1.0, -0.5, np.nan, -1.0, 1.0 + -1.0])
_NO_SYMBOL = -1  # pads targets: never equal to an emitted symbol
_ROW_SHIFT, _COL_SHIFT = np.array(_ROW_STEP), np.array(_COL_STEP)


class TapeLatents:
    """Latent states of one tape task's episodes, held in padded arrays.

    Each array holds one entry per row.  A latent's grid (its tape as one
    row for the 1-D tasks) sits in ``grid`` inside a border of blanks,
    its cell ``(r, c)`` at ``[r + 1, c + 1]``, and every other entry is
    blank, so clipping a pointer to the border reads what the scalar env
    observes.  Targets are padded with ``_NO_SYMBOL``.

    As a sequence it holds envs: indexing (and so iterating) gives back a
    reset ``TapeEnv`` equal to ``make_env(task, seed, length_range)``
    after ``reset()``, built without drawing again.  Like ``Env.clone``
    copies, envs given back share their latent but have no seed stream.
    """

    def __init__(self, task, env_type, seeds, length_ranges, grid, width, target, target_len):
        self.task, self.env_type = task, env_type
        self.seeds, self.length_ranges = seeds, length_ranges
        self.grid, self.width, self.target, self.target_len = grid, width, target, target_len
        self.step_limit = 4 * width + 4

    @classmethod
    def draw(cls, task, env_type, seeds, length_ranges) -> "TapeLatents":
        """Latent ``j`` drawn from its own ``PCG64(seeds[j])`` stream, in the
        order ``env_type._draw_latent`` draws it."""
        grids = []
        for seed, (lo, hi) in zip(seeds, length_ranges):
            stream = np.random.Generator(np.random.PCG64(seed))
            grids.append(env_type._draw_grid(stream, int(stream.integers(lo, hi + 1))))
        targets = [env_type._grid_target(grid) for grid in grids]
        shape = (len(grids), grids[0].shape[0] + 2, max(g.shape[1] for g in grids) + 2)
        padded = np.full(shape, env_type.base, dtype=np.int64)
        target_len = np.array([t.size for t in targets])
        target = np.full((len(targets), target_len.max() + 1), _NO_SYMBOL, dtype=np.int64)
        for j, (grid, tgt) in enumerate(zip(grids, targets)):
            padded[j, 1 : 1 + grid.shape[0], 1 : 1 + grid.shape[1]] = grid
            target[j, : tgt.size] = tgt
        width = np.array([g.shape[1] for g in grids])
        return cls(task, env_type, np.array(seeds, dtype=object), list(length_ranges), padded,
                   width, target, target_len)

    def repeat(self, k: int) -> "TapeLatents":
        """Each row ``k`` times in a row, in new arrays."""
        arrays = (np.repeat(a, k, axis=0)
                  for a in (self.grid, self.width, self.target, self.target_len))
        ranges = [r for r in self.length_ranges for _ in range(k)]
        return TapeLatents(self.task, self.env_type, np.repeat(self.seeds, k), ranges, *arrays)

    def __len__(self) -> int:
        return self.seeds.size

    def __getitem__(self, b: int) -> TapeEnv:
        env = self.env_type.__new__(self.env_type)
        vars(env).update(seed=self.seeds[b], task=self.task, _stream=None, _has_latent=True,
                         length_range=tuple(self.length_ranges[b]), done=False, steps=0)
        env._set_grid(self.grid[b, 1:-1, 1 : 1 + self.width[b]])
        env._begin()
        return env


class TapeLockstep:
    """B episodes of one tape task stepped together on array state.

    Each row follows ``TapeEnv.step`` exactly: same observations,
    rewards, termination causes and errors.  The ``TapeLatents`` given
    only supply their arrays, read in place; no env is built or stepped.
    """

    def __init__(self, latents: TapeLatents):
        self.grid = latents.grid
        self.target, self.target_len = latents.target, latents.target_len
        self.step_limit = latents.step_limit
        self.max_rewards = self.target_len.astype(float)
        self.seeds = latents.seeds
        self.task = latents.task
        self.base, self.n_moves = latents.env_type.base, latents.env_type.n_moves
        self.num_observations = self.base + 1
        self._max_row, self._max_col = self.grid.shape[1] - 1, self.grid.shape[2] - 1
        B = len(latents)
        # pointers are kept shifted by the border: cell (r, c) is at (r + 1, c + 1)
        self.row = np.ones(B, dtype=np.int64)
        self.col = np.ones(B, dtype=np.int64)
        self.emitted = np.zeros(B, dtype=np.int64)
        self.steps = np.zeros(B, dtype=np.int64)
        self.done = np.zeros(B, dtype=bool)
        self.first_obs = self.grid[:, 1, 1].copy()

    def step(self, rows, head_actions):
        """Step episodes ``rows`` with (move, write, symbol) ``head_actions``,
        or one joint index per row as ``decode_joint`` reads it; returns
        (obs, reward, done, cause) arrays over ``rows``."""
        if self.done[rows].any():
            raise EpisodeError("step() called on a finished episode")
        if head_actions.shape[1] == 1:
            move, write, symbol = decode_joint(head_actions[:, 0], self.base)
        else:
            move, write, symbol = head_actions.T
        if move.min() < 0 or move.max() >= self.n_moves:
            bad = move[(move < 0) | (move >= self.n_moves)][0]
            raise ValueError(f"move {bad} out of range for {self.task}")
        steps = self.steps[rows] + 1
        emitted = self.emitted[rows]
        writes = write != 0
        correct = writes & (symbol == self.target[rows, emitted])
        wrong = writes ^ correct
        emitted += correct
        completed = correct & (emitted == self.target_len[rows])
        # on booleans a > b is a and not b
        over = (steps >= self.step_limit[rows]) > (completed | wrong)
        cause = completed + 2 * wrong + 3 * over  # index into _CAUSES
        reward = _REWARDS[2 * cause + correct]
        done = cause != 0
        self.steps[rows] = steps
        self.emitted[rows] = emitted
        self.done[rows] = done
        col = self.col[rows] + _COL_SHIFT[move]
        self.col[rows] = col
        row = 1  # 1-D tapes: the pointer stays on the tape's row
        if self.n_moves > 2:  # up/down moves exist
            row = self.row[rows] + _ROW_SHIFT[move]
            self.row[rows] = row
            row = np.minimum(np.maximum(row, 0), self._max_row)
        obs = self.grid[rows, row, np.minimum(np.maximum(col, 0), self._max_col)]
        return obs, reward, done, _CAUSES[cause]


def repeat_envs(envs, k: int):
    """Each env of ``envs`` ``k`` times in a row, as a batch holds a group's samples."""
    if isinstance(envs, TapeLatents):
        return envs.repeat(k)
    return [env for env in envs for _ in range(k)]


def lockstep(envs):
    """Lockstep stepper for ``envs``: array state for drawn ``TapeLatents``,
    which hold one task, and each env's scalar ``step`` row by row for any
    other sequence of envs."""
    return TapeLockstep(envs) if isinstance(envs, TapeLatents) else RowStepper(envs)
