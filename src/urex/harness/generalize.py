"""Length-generalization sweeps: greedy-decode trained policies on inputs
far longer than anything seen in training."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..envs import TAPE_TASKS, TaskId, draw_latents, oracle_rollout

PROBE_LENGTHS = (30, 100, 500, 1000, 2000)


@dataclass
class GeneralizationRecord:
    task: TaskId
    episodes_per_length: int
    rows: list = field(default_factory=list)  # (length, correct_count)
    max_perfect_length: int = 0

    def to_csv(self) -> str:
        out = ["length,correct,episodes"]
        for length, correct in self.rows:
            out.append(f"{length},{correct},{self.episodes_per_length}")
        out.append(f"max,{self.max_perfect_length},")
        return "\n".join(out) + "\n"


def _count_correct(policy, task, length, episodes, seed_rng):
    seeds = [int(seed_rng.integers(0, 2**63)) for _ in range(episodes)]
    envs = draw_latents(task, seeds, [(length, length)] * episodes)
    if policy == "oracle":
        trajs = [oracle_rollout(env) for env in envs]
        return int(sum(t.total_reward >= t.max_total_reward for t in trajs))
    batch, _ = policy.rollout(envs, greedy=True)
    return int((batch.totals >= batch.max_rewards).sum())


def generalization_sweep(policy, task: TaskId, lengths=PROBE_LENGTHS,
                         episodes_per_length: int = 100, seed: int = 0) -> GeneralizationRecord:
    """Probe each length with fresh random instances, greedy decoding.

    Probing stops at the first length with any mistake, then bisects
    between the last perfect and first imperfect probe for the exact
    largest perfect length.  ``policy`` may be the string "oracle" to
    exercise the sweep with the scripted perfect policy.
    """
    if task not in TAPE_TASKS:
        raise ValueError(f"length sweeps probe tape tasks, not {task.value}")
    if not lengths:
        raise ValueError("a sweep needs at least one length to probe")
    seed_rng = np.random.Generator(np.random.PCG64(seed))
    record = GeneralizationRecord(task=task, episodes_per_length=episodes_per_length)
    last_perfect = 0
    first_imperfect = None
    for length in sorted(lengths):
        correct = _count_correct(policy, task, length, episodes_per_length, seed_rng)
        record.rows.append((length, correct))
        if correct == episodes_per_length:
            last_perfect = length
        else:
            first_imperfect = length
            break
    if first_imperfect is not None and last_perfect > 0:
        lo, hi = last_perfect, first_imperfect  # accuracy perfect at lo, not at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            correct = _count_correct(policy, task, mid, episodes_per_length, seed_rng)
            if correct == episodes_per_length:
                lo = mid
            else:
                hi = mid
        last_perfect = lo
    record.max_perfect_length = last_perfect
    return record
