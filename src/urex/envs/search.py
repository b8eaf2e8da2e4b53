"""Register-machine search task plus the scripted reference searches.

The hidden state is a strictly ascending integer array of size n and a
query value x stored somewhere in it.  Three integer registers start at
(n, 0, 0) and are manipulated with INC / DIV / AVG; CMP probes the array
cell indexed by a register and reports how the query compares to it.
Probing the cell that holds x ends the episode with reward
``10 * (1 - t / (2n + 1))``; exceeding ``2n + 1`` steps ends it with 0.
"""

from __future__ import annotations

from typing import NamedTuple

from .base import FOUND_QUERY, STEP_LIMIT, Env, StepResult

OP_INC, OP_DIV, OP_AVG, OP_CMP = 0, 1, 2, 3
_OP_NAMES = ("INC", "DIV", "AVG", "CMP")

# observation encoding
CMP_NONE, CMP_LT, CMP_GT, CMP_EQ = 0, 1, 2, 3
_OBS_SYMBOLS = ("-", "<", ">", "=")


class SearchAction(NamedTuple):
    op: int
    reg: int


def action_index(action) -> int:
    """Flatten (op, reg) into the 12-way action index."""
    op, reg = action
    return op * 3 + reg


def action_from_index(idx: int) -> SearchAction:
    return SearchAction(idx // 3, idx % 3)


class BinarySearchEnv(Env):
    num_observations = 4
    action_heads = (("op_reg", 12),)

    def __init__(self, seed: int, n_range: tuple[int, int]):
        super().__init__(seed)
        lo, hi = int(n_range[0]), int(n_range[1])
        if lo < 1 or hi < lo:
            raise ValueError(f"bad n range {n_range!r}")
        self.n_range = (lo, hi)

    def _draw_latent(self, stream):
        lo, hi = self.n_range
        n = int(stream.integers(lo, hi + 1))
        # ascending distinct values via positive increments
        increments = stream.integers(1, 10, size=n)
        offset = int(stream.integers(0, 10))
        values = increments.cumsum() + offset
        self._install(tuple(values.tolist()), int(stream.integers(0, n)))

    def set_latent(self, n: int, query_pos: int) -> int:
        """Install a fixed latent state (for replay and trace tests)."""
        self._install(tuple(range(int(n))), query_pos)
        self._has_latent = True
        return self.restart()

    def _install(self, array: tuple, query_pos: int) -> None:
        self.n = len(array)
        self.array = array
        self.query_pos = int(query_pos)
        self.query = array[self.query_pos]
        self.step_limit = 2 * self.n + 1

    def _begin(self) -> int:
        self.registers = [self.n, 0, 0]
        return CMP_NONE

    def decode_action(self, head_tuple):
        return action_from_index(head_tuple[0])

    def max_total_reward(self) -> float:
        # success threshold proxy; the true optimum depends on the policy's step count
        return 9.0

    def step(self, action) -> StepResult:
        self._require_running()
        op, reg = action
        if not (0 <= op <= 3 and 0 <= reg <= 2):
            raise ValueError(f"bad search action {action!r}")
        self.steps += 1
        regs = self.registers
        obs = CMP_NONE
        reward = 0.0
        cause = None
        if op == OP_INC:
            regs[reg] += 1
        elif op == OP_DIV:
            regs[reg] //= 2
        elif op == OP_AVG:
            a, b = (regs[i] for i in range(3) if i != reg)
            regs[reg] = (a + b) // 2
        else:  # CMP
            idx = min(max(regs[reg], 0), self.n - 1)
            cell = self.array[idx]
            if self.query < cell:
                obs = CMP_LT
            elif self.query > cell:
                obs = CMP_GT
            else:
                obs = CMP_EQ
                self.done = True
                cause = FOUND_QUERY
                reward = 10.0 * (1.0 - self.steps / self.step_limit)
        if not self.done and self.steps >= self.step_limit:
            self.done = True
            cause = STEP_LIMIT
        return StepResult(obs, reward, self.done, cause)

    def action_str(self, action) -> str:
        op, reg = action
        return f"{_OP_NAMES[op]}({reg})"

    def obs_str(self, obs: int) -> str:
        return _OBS_SYMBOLS[obs]


def scripted_linear_search(env: BinarySearchEnv):
    """Probe positions 0, 1, 2, ... via CMP(2) / INC(2) until the query is hit.

    Returns (actions, rewards, observations); finding position p takes
    2p + 1 steps.
    """
    actions = []
    rewards = []
    observations = [CMP_NONE]
    step = env.step
    cmp2 = SearchAction(OP_CMP, 2)
    inc2 = SearchAction(OP_INC, 2)
    while True:
        res = step(cmp2)
        actions.append(cmp2)
        rewards.append(res.reward)
        if res.done:
            return actions, rewards, observations
        observations.append(res.obs)
        res = step(inc2)
        actions.append(inc2)
        rewards.append(res.reward)
        if res.done:
            return actions, rewards, observations
        observations.append(res.obs)


def scripted_binary_search(env: BinarySearchEnv):
    """Halve the candidate range with AVG/CMP, using DIV while the low end is 0.

    The three registers rotate through low / high / probe roles; a fresh
    probe costs one AVG and one CMP, so the query is found in roughly
    ``2 log2(n)`` steps plus the leading DIV halvings.
    Returns (actions, rewards, observations).
    """
    lo_reg, hi_reg, probe_reg = 1, 0, 2
    lo_val = 0
    actions = []
    rewards = []
    observations = []

    def do(action):
        observations.append(last_obs[0])
        res = env.step(action)
        actions.append(action)
        rewards.append(res.reward)
        last_obs[0] = res.obs
        return res

    last_obs = [CMP_NONE]
    while True:
        res = do(SearchAction(OP_AVG, probe_reg))
        if res.done:
            return actions, rewards, observations
        probe_val = env.registers[probe_reg]
        res = do(SearchAction(OP_CMP, probe_reg))
        if res.done:
            return actions, rewards, observations
        if res.obs == CMP_LT:
            if lo_val == 0:
                # high register halves straight onto the probe value
                res = do(SearchAction(OP_DIV, hi_reg))
                if res.done:
                    return actions, rewards, observations
            else:
                hi_reg, probe_reg = probe_reg, hi_reg
        else:  # CMP_GT
            lo_reg, probe_reg = probe_reg, lo_reg
            lo_val = probe_val
