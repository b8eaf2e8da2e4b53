"""Task registry: deterministic, seedable episodic environments.

Every environment is fully determined by ``(task, seed, length_range)``:
identical constructions replayed with identical action sequences produce
identical observation and reward sequences.
"""

from __future__ import annotations

import enum

from .bandit import BanditEnv, bandit_payoffs
from .base import (COMPLETED, FOUND_QUERY, STEP_LIMIT, WRONG_EMISSION, Env,
                   EpisodeError, RowStepper, StepResult, replay_trace,
                   trace_line)
from .oracles import oracle_rollout
from .search import (CMP_EQ, CMP_GT, CMP_LT, CMP_NONE, BinarySearchEnv,
                     SearchAction, action_from_index, action_index,
                     scripted_binary_search, scripted_linear_search)
from .tape import (TAPE_ENV_TYPES, CopyEnv, DuplicatedInputEnv, RepeatCopyEnv,
                   ReverseEnv, ReversedAdditionEnv, TapeAction, TapeEnv, TapeLatents,
                   TapeLockstep, lockstep, repeat_envs)


class TaskId(enum.Enum):
    COPY = "Copy"
    DUPLICATED_INPUT = "DuplicatedInput"
    REPEAT_COPY = "RepeatCopy"
    REVERSE = "Reverse"
    REVERSED_ADDITION = "ReversedAddition"
    BINARY_SEARCH = "BinarySearch"
    BANDIT = "Bandit"

    @classmethod
    def parse(cls, name: str) -> "TaskId":
        for task in cls:
            if task.value.lower() == name.lower() or task.name.lower() == name.lower():
                return task
        raise ValueError(f"unknown task {name!r}")


TAPE_TASKS = (
    TaskId.COPY,
    TaskId.DUPLICATED_INPUT,
    TaskId.REPEAT_COPY,
    TaskId.REVERSE,
    TaskId.REVERSED_ADDITION,
)

# Required average total reward over 100 evaluation episodes.  The tape
# task numbers are the upstream benchmark defaults, not values measured
# here; the search threshold is part of the task definition.
SUCCESS_THRESHOLDS = {
    TaskId.COPY: 25.0,
    TaskId.DUPLICATED_INPUT: 9.0,
    TaskId.REPEAT_COPY: 75.0,
    TaskId.REVERSE: 25.0,
    TaskId.REVERSED_ADDITION: 25.0,
    TaskId.BINARY_SEARCH: 9.0,
}

TRAIN_LENGTH_RANGE = (2, 33)
SEARCH_N_RANGE = (32, 512)

_TAPE_CLASSES = {
    TaskId.COPY: CopyEnv,
    TaskId.DUPLICATED_INPUT: DuplicatedInputEnv,
    TaskId.REPEAT_COPY: RepeatCopyEnv,
    TaskId.REVERSE: ReverseEnv,
    TaskId.REVERSED_ADDITION: ReversedAdditionEnv,
}


def make_env(task: TaskId, seed: int, length_range=None) -> Env:
    """Build an unreset environment for ``task``.

    ``length_range`` bounds the hidden input length for tape tasks (the
    training curriculum keeps it inside [2, 33]; evaluation may go
    longer) and the array size for the search task.
    """
    if task in _TAPE_CLASSES:
        env = _TAPE_CLASSES[task](seed, length_range or TRAIN_LENGTH_RANGE)
    elif task is TaskId.BINARY_SEARCH:
        env = BinarySearchEnv(seed, length_range or SEARCH_N_RANGE)
    elif task is TaskId.BANDIT:
        env = BanditEnv(seed)
    else:
        raise ValueError(f"unknown task {task!r}")
    env.task = task
    return env


def draw_latents(task: TaskId, seeds, length_ranges) -> TapeLatents:
    """The reset envs ``make_env(task, seed, length_range)`` gives for each
    seed and range of a tape task, drawn straight into arrays."""
    return TapeLatents.draw(task, _TAPE_CLASSES[task], seeds, length_ranges)
