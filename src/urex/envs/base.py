"""Episodic environment plumbing shared by every task."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

COMPLETED = "completed"
WRONG_EMISSION = "wrong_emission"
STEP_LIMIT = "step_limit"
FOUND_QUERY = "found_query"


class StepResult(NamedTuple):
    obs: int
    reward: float
    done: bool
    cause: str | None


class EpisodeError(RuntimeError):
    """Raised on stepping a finished episode or malformed actions."""


class Env:
    """Base class for seeded episodic environments.

    Subclasses fill in ``_draw_latent`` (consume the seed stream),
    ``_begin`` (zero per-episode state, return the first observation)
    and ``step``.  The latent state changes only on ``reset``, so K
    rollouts can read one env.
    """

    task = None
    num_observations = 0
    action_heads: tuple = ()

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._stream = np.random.Generator(np.random.PCG64(self.seed))
        self._has_latent = False
        self.done = False
        self.steps = 0

    # -- episode lifecycle -------------------------------------------------
    def reset(self) -> int:
        """Draw the next latent state from the seed stream and start an episode."""
        if self._stream is None:
            raise EpisodeError("episode clones cannot reset(); use restart()")
        self._draw_latent(self._stream)
        self._has_latent = True
        return self.restart()

    def restart(self) -> int:
        """Start a fresh episode on the current latent state."""
        if not self._has_latent:
            raise EpisodeError("reset() must be called before restart()")
        self.done = False
        self.steps = 0
        return self._begin()

    def clone(self) -> "Env":
        """Fresh-episode copy sharing this env's latent state."""
        if not self._has_latent:
            raise EpisodeError("reset() must be called before clone()")
        other = self.__class__.__new__(self.__class__)
        other.__dict__.update(self.__dict__)
        other._stream = None  # clones share the latent but not the seed stream
        other.restart()
        return other

    def step(self, action) -> StepResult:
        raise NotImplementedError

    def decode_action(self, head_tuple):
        """Map a tuple of policy head indices to this env's native action."""
        return head_tuple

    def max_total_reward(self) -> float:
        raise NotImplementedError

    # -- hooks ---------------------------------------------------------------
    def _draw_latent(self, stream: np.random.Generator) -> None:
        raise NotImplementedError

    def _begin(self) -> int:
        raise NotImplementedError

    # -- formatting ------------------------------------------------------------
    def action_str(self, action) -> str:
        return str(action)

    def obs_str(self, obs: int) -> str:
        return str(obs)

    def _require_running(self) -> None:
        if self.done:
            raise EpisodeError("step() called on a finished episode")


class RowStepper:
    """Lockstep stepping of B envs through each env's own scalar ``step``.

    Each row steps its own clone, so the envs given are never mutated and
    may repeat; ``step(rows, head_actions)`` steps row ``rows[i]`` with
    the decoded ``head_actions[i]`` and returns (obs, reward, done, cause)
    arrays over ``rows``.
    """

    def __init__(self, envs):
        self.envs = [env.clone() for env in envs]
        self.first_obs = np.array([env.restart() for env in self.envs], dtype=np.int64)
        self.num_observations = max(env.num_observations for env in self.envs)
        self.max_rewards = np.array([env.max_total_reward() for env in self.envs], dtype=float)
        self.seeds = np.array([env.seed for env in self.envs], dtype=object)

    def step(self, rows, head_actions):
        envs = self.envs
        results = [envs[b].step(envs[b].decode_action(a))
                   for b, a in zip(rows.tolist(), map(tuple, head_actions.tolist()))]
        obs, reward, done, cause = zip(*results)
        return (np.array(obs, dtype=np.int64), np.array(reward, dtype=float),
                np.array(done, dtype=bool), np.array(cause, dtype=object))


def trace_line(t: int, obs: str, action: str, reward: float, done: bool) -> str:
    """One line of the plain-text episode dump: ``t, obs, action, reward, done``."""
    return f"{t}, {obs}, {action}, {reward:g}, {int(done)}"


def replay_trace(env: Env, actions) -> list[str]:
    """Restart ``env``, replay ``actions`` and return the per-step dump lines."""
    obs = env.restart()
    lines = []
    for t, action in enumerate(actions, start=1):
        res = env.step(action)
        lines.append(trace_line(t, env.obs_str(obs), env.action_str(action), res.reward, res.done))
        obs = res.obs
        if res.done:
            break
    return lines
