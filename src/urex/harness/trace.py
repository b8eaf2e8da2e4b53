"""Human-readable execution traces for episodes."""

from __future__ import annotations

from ..envs import oracle_rollout
from ..envs.search import BinarySearchEnv
from ..envs.tape import ReversedAdditionEnv, TapeEnv
from ..policy.recurrent import RecurrentPolicy


def collect_actions(env, actor, strategy: str = "binary"):
    """Run ``actor`` on a fresh episode of ``env`` and return its env-native actions."""
    if actor == "oracle":
        traj = oracle_rollout(env, strategy)
    elif isinstance(actor, RecurrentPolicy):
        trajs, _ = actor.rollout([env], greedy=True)
        traj = trajs[0]
    else:
        raise ValueError(f"cannot trace actor {actor!r}")
    return [env.decode_action(a) for a in traj.actions]


def render_trace(env, actor="oracle", strategy: str = "binary") -> str:
    """Tabulate one episode: internal machine state, observation, action.

    For the search task the columns are the three registers, the
    comparison observation and the action; tape tasks show the pointer
    and pending emission index instead.
    """
    actions = collect_actions(env, actor, strategy)
    obs = env.restart()
    rows = []
    if isinstance(env, BinarySearchEnv):
        header = f"{'R0':>6} {'R1':>6} {'R2':>6}  {'s':>2}  a"
        for action in actions:
            r0, r1, r2 = env.registers
            rows.append(f"{r0:>6} {r1:>6} {r2:>6}  {env.obs_str(obs):>2}  {env.action_str(action)}")
            res = env.step(action)
            obs = res.obs
            if res.done:
                break
        r0, r1, r2 = env.registers
        rows.append(f"{r0:>6} {r1:>6} {r2:>6}  {env.obs_str(obs):>2}  --")
    elif isinstance(env, TapeEnv):
        header = f"{'t':>4} {'pos':>5} {'obs':>3}  {'action':<12} {'reward':>6}"
        for t, action in enumerate(actions, start=1):
            pos = (env.row, env.col) if isinstance(env, ReversedAdditionEnv) else env.col
            before = env.obs_str(obs)
            res = env.step(action)
            rows.append(f"{t:>4} {str(pos):>5} {before:>3}  {env.action_str(action):<12} {res.reward:>6.1f}")
            obs = res.obs
            if res.done:
                break
    else:
        raise ValueError(f"no trace layout for task {env.task}")
    return "\n".join([header] + rows)
