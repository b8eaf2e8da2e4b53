"""Pointer-on-a-tape emission tasks.

Four of the tasks read a one-dimensional symbol tape through a movable
pointer; the addition task reads a 2 x n digit grid.  Every action is a
``(move, write, symbol)`` triple: the write is scored against the next
expected output symbol, then the pointer moves, then the new cell (or a
blank, outside the written region) is observed.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np

from .base import (COMPLETED, STEP_LIMIT, WRONG_EMISSION, Env, EpisodeError,
                   RowStepper, StepResult)

MOVE_LEFT, MOVE_RIGHT, MOVE_UP, MOVE_DOWN = 0, 1, 2, 3
_MOVE_NAMES = ("left", "right", "up", "down")
_ROW_SHIFT = np.array([0, 0, -1, 1])  # indexed by move
_COL_SHIFT = np.array([-1, 1, 0, 0])


class TapeAction(NamedTuple):
    move: int
    write: int  # 0 or 1
    symbol: int  # ignored by the env when write is 0


class TapeEnv(Env):
    """Common emission/reward/step-limit logic for all tape tasks."""

    n_moves = 2

    def __init__(self, seed: int, length_range: tuple[int, int], base: int = 5):
        super().__init__(seed)
        lo, hi = int(length_range[0]), int(length_range[1])
        if lo < 2 or hi < lo:
            raise ValueError(f"bad length range {length_range!r}")
        self.length_range = (lo, hi)
        self.base = int(base)
        self.num_observations = self.base + 1  # symbols plus blank
        self.action_heads = (("move", self.n_moves), ("write", 2), ("out", self.base))

    @property
    def blank(self) -> int:
        return self.base

    # -- latent -------------------------------------------------------------
    def _draw_latent(self, stream):
        lo, hi = self.length_range
        self.input_length = int(stream.integers(lo, hi + 1))
        self._make_tape(stream)
        self.target = self._make_target()
        self.step_limit = 4 * self.input_length + 4

    def _make_tape(self, stream):
        self.tape = tuple(int(s) for s in stream.integers(0, self.base, size=self.input_length))

    def _make_target(self) -> tuple:
        raise NotImplementedError

    def max_total_reward(self) -> float:
        return float(len(self.target))

    # -- episode -------------------------------------------------------------
    def _begin(self) -> int:
        self.pos = 0
        self.emitted = 0
        return self._observe()

    def _observe(self) -> int:
        pos = self.pos
        if 0 <= pos < len(self.tape):
            return self.tape[pos]
        return self.blank

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
        self._move(move)
        return StepResult(self._observe(), reward, self.done, cause)

    def _move(self, move: int) -> None:
        self.pos += 1 if move == MOVE_RIGHT else -1

    # -- formatting ------------------------------------------------------------
    def action_str(self, action) -> str:
        move, write, symbol = action
        out = str(symbol) if write else "."
        return f"{_MOVE_NAMES[move]},{'w' if write else '-'},{out}"

    def obs_str(self, obs: int) -> str:
        return "_" if obs == self.blank else str(obs)


class CopyEnv(TapeEnv):
    def _make_target(self):
        return self.tape


class DuplicatedInputEnv(TapeEnv):
    """Tape holds each hidden symbol twice; the target is one copy of each."""

    duplication = 2

    def _make_tape(self, stream):
        groups = max(1, self.input_length // self.duplication)
        symbols = stream.integers(0, self.base, size=groups)
        self.tape = tuple(int(s) for s in symbols for _ in range(self.duplication))
        self.input_length = len(self.tape)

    def _make_target(self):
        return self.tape[:: self.duplication]


class RepeatCopyEnv(TapeEnv):
    def _make_target(self):
        return self.tape + self.tape[::-1] + self.tape


class ReverseEnv(TapeEnv):
    def _make_target(self):
        return self.tape[::-1]


class ReversedAdditionEnv(TapeEnv):
    """2 x n grid of base-3 digits; target is the little-endian digit sum."""

    n_moves = 4

    def __init__(self, seed, length_range, base: int = 3):
        super().__init__(seed, length_range, base=base)

    def _make_tape(self, stream):
        self.grid = tuple(
            tuple(int(d) for d in stream.integers(0, self.base, size=self.input_length))
            for _ in range(2)
        )

    def _make_target(self):
        digits = []
        carry = 0
        for a, b in zip(*self.grid):
            s = a + b + carry
            digits.append(s % self.base)
            carry = s // self.base
        if carry:
            digits.append(carry)
        return tuple(digits)

    def _begin(self) -> int:
        self.row = 0
        self.col = 0
        self.emitted = 0
        return self._observe()

    def _observe(self) -> int:
        if 0 <= self.row < 2 and 0 <= self.col < self.input_length:
            return self.grid[self.row][self.col]
        return self.blank

    def _move(self, move: int) -> None:
        if move == MOVE_LEFT:
            self.col -= 1
        elif move == MOVE_RIGHT:
            self.col += 1
        elif move == MOVE_UP:
            self.row -= 1
        else:
            self.row += 1


TAPE_ENV_TYPES = (CopyEnv, DuplicatedInputEnv, RepeatCopyEnv, ReverseEnv, ReversedAdditionEnv)

_CAUSES = np.array([None, COMPLETED, WRONG_EMISSION, STEP_LIMIT], dtype=object)


def _padded(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Int sequences as one zero-padded (len(seqs), longest) array, plus their lengths."""
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    out = np.zeros((len(seqs), int(lengths.max())), dtype=np.int64)
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(seqs), dtype=np.int64, count=int(lengths.sum()))
    return out, lengths


class TapeLockstep:
    """B tape-task episodes stepped together on array state.

    Each row follows ``TapeEnv.step`` exactly: same observations,
    rewards, termination causes and errors.  A row's tape is stored as
    its grid's rows laid end to end (one row for the 1-D tasks), read
    through a (row, col) pointer.  The envs only supply their latent
    state; they are neither restarted nor stepped.
    """

    def __init__(self, envs):
        if not all(env._has_latent for env in envs):
            raise EpisodeError("reset() must be called before restart()")
        # a batch passes each group env K times: build each distinct env's arrays once
        ids = np.fromiter(map(id, envs), dtype=np.int64, count=len(envs))
        _, first, owner = np.unique(ids, return_index=True, return_inverse=True)
        latents = [envs[b] for b in first.tolist()]
        grids = [env.grid if type(env) is ReversedAdditionEnv else (env.tape,) for env in latents]
        cells, _ = _padded([sum(grid, ()) for grid in grids])
        target, target_len = _padded([env.target for env in latents])
        self.cells, self.target, self.target_len = cells[owner], target[owner], target_len[owner]
        self.n_rows = np.array([len(grid) for grid in grids])[owner]
        self.width = np.array([len(grid[0]) for grid in grids])[owner]
        self.step_limit = np.array([env.step_limit for env in latents])[owner]
        self.blank = np.array([env.blank for env in latents])[owner]
        self.n_moves = np.array([env.n_moves for env in latents])[owner]
        self.envs = envs
        B = len(envs)
        self.row = np.zeros(B, dtype=np.int64)
        self.col = np.zeros(B, dtype=np.int64)
        self.emitted = np.zeros(B, dtype=np.int64)
        self.steps = np.zeros(B, dtype=np.int64)
        self.done = np.zeros(B, dtype=bool)
        self.first_obs = self._observe(np.arange(B))

    def _observe(self, rows):
        row, col, width = self.row[rows], self.col[rows], self.width[rows]
        inside = (row >= 0) & (row < self.n_rows[rows]) & (col >= 0) & (col < width)
        cell = np.where(inside, row * width + col, 0)
        return np.where(inside, self.cells[rows, cell], self.blank[rows])

    def step(self, rows, head_actions):
        """Step episodes ``rows`` with (move, write, symbol) ``head_actions``;
        returns (obs, reward, done, cause) arrays over ``rows``."""
        if self.done[rows].any():
            raise EpisodeError("step() called on a finished episode")
        move, write, symbol = head_actions[:, 0], head_actions[:, 1], head_actions[:, 2]
        bad = (move < 0) | (move >= self.n_moves[rows])
        if bad.any():
            first = int(np.argmax(bad))
            raise ValueError(f"move {move[first]} out of range for {self.envs[rows[first]].task}")
        steps = self.steps[rows] + 1
        emitted = self.emitted[rows]
        target_len = self.target_len[rows]
        expected = self.target[rows, np.minimum(emitted, self.target.shape[1] - 1)]
        writes = write != 0
        correct = writes & (emitted < target_len) & (symbol == expected)
        wrong = writes & ~correct
        emitted = emitted + correct
        completed = correct & (emitted == target_len)
        over = ~(completed | wrong) & (steps >= self.step_limit[rows])
        reward = np.where(correct, 1.0, np.where(wrong, -0.5, 0.0))
        reward[over] += -1.0
        cause = completed + 2 * wrong + 3 * over  # index into _CAUSES
        done = cause != 0
        self.steps[rows] = steps
        self.emitted[rows] = emitted
        self.done[rows] = done
        self.row[rows] += _ROW_SHIFT[move]
        self.col[rows] += _COL_SHIFT[move]
        return self._observe(rows), reward, done, _CAUSES[cause]


def lockstep(envs):
    """Lockstep stepper for ``envs``: array state when every env is one of
    the tape tasks, otherwise each env's scalar ``step`` row by row."""
    if envs and all(type(env) in TAPE_ENV_TYPES for env in envs):
        return TapeLockstep(envs)
    return RowStepper(envs)
