"""Episodes as text: the one module that spells out actions and observations."""

from __future__ import annotations

from ..envs import oracle_rollout
from ..envs.search import BinarySearchEnv
from ..envs.tape import ReversedAdditionEnv, TapeEnv
from ..policy.recurrent import RecurrentPolicy

_OP_NAMES = ("INC", "DIV", "AVG", "CMP")  # search ops
_OBS_SYMBOLS = ("-", "<", ">", "=")  # search comparisons
_MOVE_NAMES = ("left", "right", "up", "down")  # tape moves


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

    Search rows show the registers, the comparison (``<``) and the op
    (``AVG(2)``); tape rows the step, the pointer, the cell (``_`` is a
    blank), the action (``right,w,3``; ``right,-,.`` writes nothing) and the reward.
    """
    actions = collect_actions(env, actor, strategy)
    obs = env.restart()
    rows = []
    if isinstance(env, BinarySearchEnv):
        header = f"{'R0':>6} {'R1':>6} {'R2':>6}  {'s':>2}  a"
        for op, reg in actions:
            r0, r1, r2 = env.registers
            rows.append(f"{r0:>6} {r1:>6} {r2:>6}  {_OBS_SYMBOLS[obs]:>2}  {_OP_NAMES[op]}({reg})")
            res = env.step((op, reg))
            obs = res.obs
            if res.done:
                break
        r0, r1, r2 = env.registers
        rows.append(f"{r0:>6} {r1:>6} {r2:>6}  {_OBS_SYMBOLS[obs]:>2}  --")
    elif isinstance(env, TapeEnv):
        header = f"{'t':>4} {'pos':>5} {'obs':>3}  {'action':<12} {'reward':>6}"
        for t, (move, write, symbol) in enumerate(actions, start=1):
            pos = (env.row, env.col) if isinstance(env, ReversedAdditionEnv) else env.col
            before = "_" if obs == env.blank else str(obs)
            text = f"{_MOVE_NAMES[move]},{'w' if write else '-'},{symbol if write else '.'}"
            res = env.step((move, write, symbol))
            rows.append(f"{t:>4} {str(pos):>5} {before:>3}  {text:<12} {res.reward:>6.1f}")
            obs = res.obs
            if res.done:
                break
    else:
        raise ValueError(f"no trace layout for task {env.task}")
    return "\n".join([header] + rows)
