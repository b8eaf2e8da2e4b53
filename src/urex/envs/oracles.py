"""Perfect-policy rollouts used as reward oracles in tests and traces."""

from __future__ import annotations

from ..types import Trajectory
from .base import Env, EpisodeError, play
from .search import BinarySearchEnv, _binary_script, _linear_script, action_index
from .tape import TapeEnv


def oracle_script(env: Env, strategy: str = "binary"):
    """The scripted perfect policy for a fresh episode of ``env``, as ``play`` takes
    it: a tape task's action list, or the search task's linear or binary script."""
    if isinstance(env, BinarySearchEnv):
        scripts = {"linear": _linear_script, "binary": _binary_script}
        if strategy not in scripts:
            raise EpisodeError(f"unknown search strategy {strategy!r}")
        return scripts[strategy](env)
    if isinstance(env, TapeEnv):
        return env._oracle_actions()
    raise EpisodeError(f"no oracle for task {type(env).__name__}")


def oracle_rollout(env: Env, strategy: str = "binary") -> Trajectory:
    """Play ``oracle_script(env, strategy)``; the trajectory's ``log_prob`` is 0."""
    script = oracle_script(env, strategy)
    observations, actions, results = play(env, script)
    if isinstance(env, BinarySearchEnv):
        actions = [(action_index(a),) for a in actions]  # store head-index tuples
    elif len(actions) != len(script):
        raise EpisodeError("oracle script ended before its action list")
    rewards = [res.reward for res in results]
    return Trajectory(
        observations=observations,
        actions=[tuple(a) for a in actions],
        rewards=rewards,
        total_reward=float(sum(rewards)),
        env_seed=env.seed,
        max_total_reward=env.max_total_reward(),
    )

