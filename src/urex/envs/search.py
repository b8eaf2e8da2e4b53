"""Register-machine search task plus the scripted reference searches.

The hidden state is a strictly ascending integer array of size n and a
query value x stored somewhere in it.  Three integer registers start at
(n, 0, 0) and are manipulated with INC / DIV / AVG; CMP probes the array
cell indexed by a register and reports how the query compares to it.
Probing the cell that holds x ends the episode with reward
``10 * (1 - t / (2n + 1))``; exceeding ``2n + 1`` steps ends it with 0.
"""

from __future__ import annotations

from itertools import cycle
from typing import NamedTuple

from .base import FOUND_QUERY, STEP_LIMIT, Env, StepResult

OP_INC, OP_DIV, OP_AVG, OP_CMP = 0, 1, 2, 3

# observation encoding
CMP_NONE, CMP_LT, CMP_GT, CMP_EQ = 0, 1, 2, 3


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
        if op == OP_CMP:
            cell = self.array[min(max(regs[reg], 0), self.n - 1)]
            if self.query == cell:
                self.done = True
                return StepResult(CMP_EQ, 10.0 * (1.0 - self.steps / self.step_limit),
                                  True, FOUND_QUERY)
            obs = CMP_LT if self.query < cell else CMP_GT
        elif op == OP_INC:
            regs[reg] += 1
        elif op == OP_DIV:
            regs[reg] //= 2
        else:  # AVG of the other two registers
            regs[reg] = (regs[0] + regs[1] + regs[2] - regs[reg]) // 2
        if self.steps >= self.step_limit:
            self.done = True
            return StepResult(obs, 0.0, True, STEP_LIMIT)
        return StepResult(obs, 0.0, False, None)


def _linear_script(env: BinarySearchEnv):
    """Probe 0, 1, 2, ... with CMP(2), INC(2), ...: position p is found in 2p + 1 steps."""
    return cycle((SearchAction(OP_CMP, 2), SearchAction(OP_INC, 2)))


def _binary_script(env: BinarySearchEnv):
    """Halve the candidate range with AVG/CMP, using DIV while the low end is 0.

    The registers rotate through low / high / probe roles.  A probe costs one AVG
    and one CMP, whose observation it is sent: about ``2 log2(n)`` steps in all.
    """
    lo_reg, hi_reg, probe_reg = 1, 0, 2
    lo_val = 0
    while True:
        yield SearchAction(OP_AVG, probe_reg)
        probe_val = env.registers[probe_reg]
        obs = yield SearchAction(OP_CMP, probe_reg)
        if obs == CMP_LT:
            if lo_val == 0:
                # high register halves straight onto the probe value
                yield SearchAction(OP_DIV, hi_reg)
            else:
                hi_reg, probe_reg = probe_reg, hi_reg
        else:  # CMP_GT
            lo_reg, probe_reg = probe_reg, lo_reg
            lo_val = probe_val
