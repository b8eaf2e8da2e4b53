"""Perfect-policy rollouts used as reward oracles in tests and traces."""

from __future__ import annotations

from ..types import Trajectory
from .base import Env, EpisodeError, play
from .search import (BinarySearchEnv, action_index, scripted_binary_search,
                     scripted_linear_search)
from .tape import (MOVE_LEFT, MOVE_RIGHT, CopyEnv, DuplicatedInputEnv,
                   RepeatCopyEnv, ReverseEnv, ReversedAdditionEnv, TapeAction,
                   TapeEnv)


def oracle_rollout(env: Env, strategy: str = "binary") -> Trajectory:
    """Run a scripted perfect policy on a fresh episode of ``env``.

    Tape tasks walk the pointer and emit the target directly; the search
    task runs the scripted linear or binary search.  The returned
    trajectory has ``log_prob`` 0 since no policy was involved.
    """
    if isinstance(env, BinarySearchEnv):
        searches = {"linear": scripted_linear_search, "binary": scripted_binary_search}
        if strategy not in searches:
            raise EpisodeError(f"unknown search strategy {strategy!r}")
        env.restart()
        actions, rewards, observations = searches[strategy](env)
        actions = [(action_index(a),) for a in actions]  # store head-index tuples
    elif isinstance(env, TapeEnv):
        actions = _tape_oracle_actions(env)
        steps = list(play(env, actions))
        if len(steps) != len(actions):
            raise EpisodeError("oracle script ended before its action list")
        observations = [obs for obs, _, _ in steps]
        rewards = [res.reward for _, _, res in steps]
    else:
        raise EpisodeError(f"no oracle for task {type(env).__name__}")
    return Trajectory(
        observations=observations,
        actions=[tuple(a) for a in actions],
        rewards=rewards,
        total_reward=float(sum(rewards)),
        log_prob=0.0,
        env_seed=env.seed,
        max_total_reward=env.max_total_reward(),
        cause=None,
    )


def _tape_oracle_actions(env) -> list[TapeAction]:
    if isinstance(env, ReversedAdditionEnv):
        # march right along the top row, writing one sum digit per step
        return [TapeAction(MOVE_RIGHT, 1, d) for d in env.target]
    tape = env.tape
    n = len(tape)
    if isinstance(env, CopyEnv):
        return [TapeAction(MOVE_RIGHT, 1, s) for s in tape]
    if isinstance(env, DuplicatedInputEnv):
        # write on even cells, skip odd ones; stop right after the last emission
        walk = [TapeAction(MOVE_RIGHT, 1 - (i % 2), tape[i]) for i in range(n)]
        return walk[: 2 * len(env.target) - 1]
    if isinstance(env, ReverseEnv):
        walk = [TapeAction(MOVE_RIGHT, 0, 0) for _ in range(n)]
        emit = [TapeAction(MOVE_LEFT, 1, tape[n - 1 - i]) for i in range(n)]
        return walk + emit
    if isinstance(env, RepeatCopyEnv):
        fwd = [TapeAction(MOVE_RIGHT, 1, tape[i]) for i in range(n)]
        back = [TapeAction(MOVE_LEFT, 1, tape[n - 1 - i]) for i in range(n)]
        return fwd + back + fwd
    raise EpisodeError(f"no tape oracle for {type(env).__name__}")
