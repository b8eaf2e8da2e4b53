"""Large-action bandit comparison between the two policy-gradient methods.

Each repeat draws a fresh payoff vector and feature matrix; within a
repeat every (method, eta, tau, restart) combination trains a linear
softmax policy from its own random initialization on the same instance.
The best hyper-parameters per method are chosen by final expected reward
aggregated over all repeats, and the per-repeat advantage is measured at
those settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..envs.bandit import BanditEnv
from ..policy.linear import LinearBanditPolicy
from ..trainers import AdamState, TrainConfig, update


@dataclass
class BanditExperimentConfig:
    num_actions: int = 1000
    dim: int = 30
    beta: float = 8.0
    repeats: int = 20
    restarts: int = 5
    steps: int = 400
    k: int = 10
    seed: int = 0
    # the protocol's fixed grid and training settings
    etas: ClassVar[tuple] = (0.1, 0.01)
    ment_taus: ClassVar[tuple] = (0.0, 0.01)
    urex_taus: ClassVar[tuple] = (0.1,)
    clip: ClassVar[float] = 10.0
    init_scale: ClassVar[float] = 0.1
    record_every: ClassVar[int] = 10

    def grid(self, method: str):
        taus = self.urex_taus if method == "urex" else self.ment_taus
        return [(eta, tau) for eta in self.etas for tau in taus]

    def record_steps(self) -> list:
        """The steps after which a run records its expected reward: every
        ``record_every``-th and the last."""
        return [step for step in range(1, self.steps + 1)
                if step % self.record_every == 0 or step == self.steps]


@dataclass
class BanditExperimentResult:
    config: BanditExperimentConfig
    best_settings: dict = field(default_factory=dict)  # method -> (eta, tau)
    final_rewards: dict = field(default_factory=dict)  # method -> (repeats,) array
    curves: dict = field(default_factory=dict)  # method -> (mean, std) over repeats
    record_steps: list = field(default_factory=list)

    @property
    def advantage_per_repeat(self) -> np.ndarray:
        return self.final_rewards["urex"] - self.final_rewards["ment"]

    def to_csv(self) -> str:
        lines = ["step,ment_mean,ment_std,urex_mean,urex_std"]
        m_mean, m_std = self.curves["ment"]
        u_mean, u_std = self.curves["urex"]
        for i, step in enumerate(self.record_steps):
            lines.append(f"{step},{m_mean[i]},{m_std[i]},{u_mean[i]},{u_std[i]}")
        return "\n".join(lines) + "\n"


def train_bandit_policy(env: BanditEnv, method: str, tau: float, eta: float,
                        cfg: BanditExperimentConfig, restart_seed: int) -> np.ndarray:
    """Train one linear policy on one fixed instance; returns the expected
    reward after each of ``cfg.record_steps()``."""
    rng = np.random.Generator(np.random.PCG64(restart_seed))
    policy = LinearBanditPolicy(cfg.dim)
    policy.init_params(rng, scale=cfg.init_scale)
    optim = AdamState.like(policy.params.flat)
    train_cfg = TrainConfig(method=method, tau=tau, learning_rate=eta,
                            clip_norm=cfg.clip, k=cfg.k, n=1)
    recorded = set(cfg.record_steps())
    trace = []
    for step in range(1, cfg.steps + 1):
        update(policy, optim, [env], train_cfg, rng)
        if step in recorded:
            trace.append(policy.expected_reward(env))
    return np.array(trace)


def run_bandit_experiment(cfg: BanditExperimentConfig) -> BanditExperimentResult:
    root = np.random.SeedSequence(cfg.seed)
    repeat_seeds = root.generate_state(cfg.repeats)
    restart_base = int(root.generate_state(1, dtype=np.uint64)[0] >> 1)
    envs = [BanditEnv(int(seed), num_actions=cfg.num_actions, beta=cfg.beta, dim=cfg.dim)
            for seed in repeat_seeds]
    for env in envs:
        env.reset()

    def runs(method, eta, tau) -> np.ndarray:
        """One setting's reward traces, (repeats, restarts, records); each run has its own seed."""
        return np.array([[train_bandit_policy(env, method, tau, eta, cfg,
                                              restart_base + rep * 1000 + restart)
                          for restart in range(cfg.restarts)]
                         for rep, env in enumerate(envs)])

    result = BanditExperimentResult(config=cfg, record_steps=cfg.record_steps())
    for method in ("ment", "urex"):
        traces = {setting: runs(method, *setting) for setting in cfg.grid(method)}
        # the first setting of the grid among those of equal final reward
        best = max(traces, key=lambda setting: traces[setting][:, :, -1].mean(axis=1).mean())
        repeat_curves = traces[best].mean(axis=1)
        result.best_settings[method] = best
        result.curves[method] = (repeat_curves.mean(axis=0), repeat_curves.std(axis=0))
        result.final_rewards[method] = repeat_curves[:, -1]
    return result
