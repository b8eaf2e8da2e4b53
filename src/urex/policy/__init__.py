"""Policies: recurrent sequence policy and the linear bandit policy."""

from __future__ import annotations

from .gradcheck import finite_diff_check
from .linear import LinearBanditPolicy
from .params import ParamVector, load_checkpoint, save_checkpoint
from .recurrent import PolicyDivergence, RecurrentPolicy


def policy_for_env(env, hidden_size: int = 128) -> RecurrentPolicy:
    """Recurrent policy shaped to an environment's observation/action spaces."""
    return RecurrentPolicy(env.num_observations, env.action_heads, hidden_size)


def save_policy(path, policy) -> None:
    save_checkpoint(path, policy.params, policy.meta())


def load_policy(path):
    params, meta = load_checkpoint(path)
    try:
        policy = RecurrentPolicy.from_meta(meta)
        policy.params.flat[:] = params.flat
    except (KeyError, TypeError, ValueError) as err:  # meta or parameters of no recurrent net
        raise ValueError(f"{path}: not a policy checkpoint (meta {meta})") from err
    return policy
