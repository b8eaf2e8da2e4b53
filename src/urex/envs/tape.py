"""Pointer-on-a-tape emission tasks.

Four of the tasks read a one-dimensional symbol tape through a movable
pointer; the addition task reads a 2 x n digit grid.  Every action is a
``(move, write, symbol)`` triple: the write is scored against the next
expected output symbol, then the pointer moves, then the new cell (or a
blank, outside the written region) is observed.
"""

from __future__ import annotations

import copy
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
    base = 5  # tape symbols

    def __init__(self, seed: int, length_range: tuple[int, int]):
        super().__init__(seed)
        lo, hi = int(length_range[0]), int(length_range[1])
        if lo < 2 or hi < lo:
            raise ValueError(f"bad length range {length_range!r}")
        self.length_range = (lo, hi)
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

    # array latents (``TapeLatents``); the scalar methods above are their reference
    @classmethod
    def _draw_grid(cls, stream, length: int) -> np.ndarray:
        """``_make_tape``'s draws as an (n_rows, input_length) array."""
        return stream.integers(0, cls.base, size=(1, length))

    @staticmethod
    def _grid_target(grid: np.ndarray) -> np.ndarray:
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

    @staticmethod
    def _grid_target(grid):
        return grid[0]


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

    @classmethod
    def _draw_grid(cls, stream, length):
        groups = max(1, length // cls.duplication)
        return np.repeat(stream.integers(0, cls.base, size=(1, groups)), cls.duplication, axis=1)

    @classmethod
    def _grid_target(cls, grid):
        return grid[0, :: cls.duplication]


class RepeatCopyEnv(TapeEnv):
    def _make_target(self):
        return self.tape + self.tape[::-1] + self.tape

    @staticmethod
    def _grid_target(grid):
        return np.concatenate((grid[0], grid[0, ::-1], grid[0]))


class ReverseEnv(TapeEnv):
    def _make_target(self):
        return self.tape[::-1]

    @staticmethod
    def _grid_target(grid):
        return grid[0, ::-1]


class ReversedAdditionEnv(TapeEnv):
    """2 x n grid of base-3 digits; target is the little-endian digit sum."""

    n_moves = 4
    base = 3

    def _make_tape(self, stream):
        self.grid = tuple(
            tuple(int(d) for d in stream.integers(0, self.base, size=self.input_length))
            for _ in range(2)
        )

    def _make_target(self):
        return self._digit_sum(*self.grid)

    @classmethod
    def _digit_sum(cls, a_digits, b_digits) -> tuple:
        digits = []
        carry = 0
        for a, b in zip(a_digits, b_digits):
            s = a + b + carry
            digits.append(s % cls.base)
            carry = s // cls.base
        if carry:
            digits.append(carry)
        return tuple(digits)

    @classmethod
    def _draw_grid(cls, stream, length):
        # one draw per row, as _make_tape makes them
        return np.stack([stream.integers(0, cls.base, size=length) for _ in range(2)])

    @classmethod
    def _grid_target(cls, grid):
        return np.array(cls._digit_sum(*grid.tolist()), dtype=np.int64)

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
# reward by 2 * cause + correct: a correct emission pays +1 (also when it
# completes), a wrong one -0.5, and the step limit -1 on top
_REWARDS = np.array([0.0, 1.0, np.nan, 1.0, -0.5, np.nan, -1.0, 1.0 + -1.0])
_NO_SYMBOL = -1  # pads targets: never equal to an emitted symbol


class TapeLatents:
    """Latent states of tape-task episodes, held in padded arrays.

    Row ``b`` reads latent ``rows[b]``.  A latent's grid (its tape as one
    row for the 1-D tasks) sits in ``grid`` inside a border of blanks,
    its cell ``(r, c)`` at ``[r + 1, c + 1]``, and every other entry is
    blank, so clipping a pointer to the border reads what the scalar env
    observes.  Targets are padded with ``_NO_SYMBOL``.

    As a sequence it holds envs: indexing or iterating gives back a
    reset ``TapeEnv`` equal to ``make_env(task, seed, length_range)``
    after ``reset()``, built without drawing again.  Like ``Env.clone``
    copies, envs given back share their latent but have no seed stream.
    Latents made ``from_envs`` give back the envs they were made from.
    """

    def __init__(self, grid, width, target, target_len, blank, n_moves, seeds, rows=None,
                 envs=None, env_type=None, task=None, length_ranges=None):
        self.grid, self.width, self.blank, self.n_moves = grid, width, blank, n_moves
        self.target, self.target_len, self.seeds = target, target_len, seeds
        self.rows = np.arange(len(seeds)) if rows is None else rows
        self.step_limit = 4 * width + 4
        self.num_observations = int(blank.max()) + 1
        self._envs = envs
        self._env_type, self._task, self._length_ranges = env_type, task, length_ranges
        self._init_vars = None
        self._env_vars = {}  # latent -> its envs' attributes, shared with repeats

    @classmethod
    def _from_grids(cls, grids, targets, blank, n_moves, seeds, **kw):
        shape = (len(grids), max(g.shape[0] for g in grids) + 2,
                 max(g.shape[1] for g in grids) + 2)
        padded = np.empty(shape, dtype=np.int64)
        padded[:] = blank[:, None, None]
        target_len = np.array([t.size for t in targets])
        target = np.full((len(targets), target_len.max() + 1), _NO_SYMBOL, dtype=np.int64)
        for j, (grid, tgt) in enumerate(zip(grids, targets)):
            padded[j, 1 : 1 + grid.shape[0], 1 : 1 + grid.shape[1]] = grid
            target[j, : tgt.size] = tgt
        width = np.array([g.shape[1] for g in grids])
        return cls(padded, width, target, target_len, blank, n_moves,
                   np.array(seeds, dtype=object), **kw)

    @classmethod
    def draw(cls, task, env_type, seeds, length_ranges) -> "TapeLatents":
        """Latent ``j`` drawn from its own ``PCG64(seeds[j])`` stream, in the
        order ``env_type._draw_latent`` draws it."""
        grids, targets = [], []
        for seed, (lo, hi) in zip(seeds, length_ranges):
            stream = np.random.Generator(np.random.PCG64(seed))
            grids.append(env_type._draw_grid(stream, int(stream.integers(lo, hi + 1))))
            targets.append(env_type._grid_target(grids[-1]))
        n = len(grids)
        return cls._from_grids(grids, targets, np.full(n, env_type.base),
                               np.full(n, env_type.n_moves), seeds, env_type=env_type,
                               task=task, length_ranges=list(length_ranges))

    @classmethod
    def from_envs(cls, envs) -> "TapeLatents":
        """The latents of reset tape envs, which may repeat: each distinct
        env object's arrays are built once."""
        ids = np.fromiter(map(id, envs), dtype=np.int64, count=len(envs))
        _, first, owner = np.unique(ids, return_index=True, return_inverse=True)
        distinct = [envs[b] for b in first.tolist()]
        if not all(env._has_latent for env in distinct):
            raise EpisodeError("reset() must be called before restart()")
        grids = [np.array(env.grid if type(env) is ReversedAdditionEnv else (env.tape,))
                 for env in distinct]
        targets = [np.array(env.target, dtype=np.int64) for env in distinct]
        return cls._from_grids(grids, targets, np.array([env.blank for env in distinct]),
                               np.array([env.n_moves for env in distinct]),
                               [env.seed for env in distinct], rows=owner, envs=distinct)

    def repeat(self, k: int) -> "TapeLatents":
        """Each row ``k`` times in a row; the arrays are shared, not copied."""
        other = copy.copy(self)
        other.rows = np.repeat(self.rows, k)
        return other

    def __len__(self) -> int:
        return self.rows.size

    def __getitem__(self, b: int) -> TapeEnv:
        j = int(self.rows[b])
        if self._envs is not None:
            return self._envs[j]
        if j not in self._env_vars:
            self._env_vars[j] = self._vars_of(j)
        env = self._env_type.__new__(self._env_type)
        vars(env).update(self._env_vars[j])
        env._begin()
        return env

    def _vars_of(self, j: int) -> dict:
        """The attributes of latent ``j``'s envs, before ``_begin``."""
        if self._init_vars is None:  # what TapeEnv.__init__ sets; the same for every env
            self._init_vars = vars(self._env_type(self.seeds[0], self._length_ranges[0]))
        width = int(self.width[j])
        cells = self.grid[j, 1:-1, 1 : 1 + width].tolist()
        latent = (dict(grid=tuple(map(tuple, cells))) if self._env_type is ReversedAdditionEnv
                  else dict(tape=tuple(cells[0])))
        return dict(self._init_vars, **latent, seed=self.seeds[j], task=self._task,
                    _stream=None, _has_latent=True, length_range=tuple(self._length_ranges[j]),
                    input_length=width, step_limit=int(self.step_limit[j]),
                    target=tuple(self.target[j, : self.target_len[j]].tolist()))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


class TapeLockstep:
    """B tape-task episodes stepped together on array state.

    Each row follows ``TapeEnv.step`` exactly: same observations,
    rewards, termination causes and errors.  ``envs`` is a
    ``TapeLatents`` or a list of reset tape envs, which only supply their
    latent state; they are neither restarted nor stepped.
    """

    def __init__(self, envs):
        latents = envs if isinstance(envs, TapeLatents) else TapeLatents.from_envs(envs)
        owner = latents.rows
        self.grid = latents.grid[owner]
        self.target, self.target_len = latents.target[owner], latents.target_len[owner]
        self.step_limit, self.n_moves = latents.step_limit[owner], latents.n_moves[owner]
        self.max_rewards = self.target_len.astype(float)
        self.seeds = latents.seeds[owner]
        self.num_observations = latents.num_observations
        self._max_row, self._max_col = self.grid.shape[1] - 1, self.grid.shape[2] - 1
        self._fewest_moves = int(self.n_moves.min())
        self._moves_rows = int(self.n_moves.max()) > 2  # up/down moves exist
        self.envs = envs
        B = len(envs)
        # pointers are kept shifted by the border: cell (r, c) is at (r + 1, c + 1)
        self.row = np.ones(B, dtype=np.int64)
        self.col = np.ones(B, dtype=np.int64)
        self.emitted = np.zeros(B, dtype=np.int64)
        self.steps = np.zeros(B, dtype=np.int64)
        self.done = np.zeros(B, dtype=bool)
        self.first_obs = self.grid[:, 1, 1].copy()

    def step(self, rows, head_actions):
        """Step episodes ``rows`` with (move, write, symbol) ``head_actions``;
        returns (obs, reward, done, cause) arrays over ``rows``."""
        if self.done[rows].any():
            raise EpisodeError("step() called on a finished episode")
        move, write, symbol = head_actions.T
        if move.min() < 0 or move.max() >= self._fewest_moves:
            bad = (move < 0) | (move >= self.n_moves[rows])
            if bad.any():
                first = int(np.argmax(bad))
                raise ValueError(f"move {move[first]} out of range for "
                                 f"{self.envs[int(rows[first])].task}")
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
        if self._moves_rows:
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
    """Lockstep stepper for ``envs``: array state when every env is one of
    the tape tasks, otherwise each env's scalar ``step`` row by row."""
    if isinstance(envs, TapeLatents) or (envs and all(type(env) in TAPE_ENV_TYPES
                                                      for env in envs)):
        return TapeLockstep(envs)
    return RowStepper(envs)
