"""Per-task defaults and the desk/full experiment profiles.

The full profile mirrors the published protocol: 128 hidden units, the
per-task step budgets below, training lengths 2..33, and success defined
as a 100-episode average reward above the task threshold.

The desk profile is a CPU-scale variant for CI: 32 hidden units, halved
step budgets, lengths capped at 10, and success defined as 100% greedy
accuracy (every evaluation episode perfect).  It runs all six tasks;
criterion 08 gates Copy and DuplicatedInput.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace

from ..curriculum import LENGTH_FLOOR
from ..envs import SUCCESS_THRESHOLDS, TRAIN_LENGTH_RANGE, TaskId

# stochastic-gradient step budgets per task (full profile)
FULL_MAX_STEPS = {
    TaskId.COPY: 2000,
    TaskId.DUPLICATED_INPUT: 500,
    TaskId.REPEAT_COPY: 50_000,
    TaskId.REVERSE: 5000,
    TaskId.REVERSED_ADDITION: 50_000,
    TaskId.BINARY_SEARCH: 2000,
}

# the easiest task trains on smaller batches
GROUPS_PER_BATCH = {task: 40 for task in FULL_MAX_STEPS}
GROUPS_PER_BATCH[TaskId.COPY] = 20

ETAS = (0.1, 0.01, 0.001)
CLIPS = (1.0, 10.0, 40.0, 100.0)
RESTARTS = 5
EVAL_EVERY, EVAL_EPISODES = 50, 100  # greedy evaluation: how often, how many episodes
# the least value of each spec field that run_trial can run
FLOORS = dict(max_steps=1, eval_every=1, eval_episodes=1, k=2, n=1, hidden_size=1,
              length_cap=LENGTH_FLOOR, restart_seed=0)


@dataclass
class Profile:
    name: str
    hidden_size: int
    length_cap: int
    success_rule: str  # "threshold" | "perfect"
    step_scale: float = 1.0

    def max_steps(self, task: TaskId) -> int:
        return max(1, int(FULL_MAX_STEPS[task] * self.step_scale))


FULL = Profile(name="full", hidden_size=128, length_cap=TRAIN_LENGTH_RANGE[1],
               success_rule="threshold")
DESK = Profile(name="desk", hidden_size=32, length_cap=10, success_rule="perfect",
               step_scale=0.5)

PROFILES = {profile.name: profile for profile in (FULL, DESK)}
DEFAULT_PROFILE = FULL.name
# the values of each string spec field that run_trial can run
CHOICES = dict(method=("ment", "urex", "qlearn"), success_rule=("perfect", "threshold"),
               profile=tuple(PROFILES))


@dataclass
class TrialSpec:
    """Everything needed to reproduce one training trial."""

    task: TaskId
    method: str  # ment | urex | qlearn
    tau: float
    eta: float
    clip: float
    restart_seed: int
    max_steps: int
    k: int = 10
    n: int = 40
    hidden_size: int = FULL.hidden_size
    length_cap: int = FULL.length_cap
    success_rule: str = FULL.success_rule
    success_threshold: float | None = None
    eval_every: int = EVAL_EVERY
    eval_episodes: int = EVAL_EPISODES
    profile: str = DEFAULT_PROFILE

    def __post_init__(self):  # Q-learning reads no tau, clip, k or n: one value each
        if self.method == "qlearn":
            self.tau, self.clip, self.k, self.n = 0.0, 10.0, 10, GROUPS_PER_BATCH[self.task]
        for name, floor in FLOORS.items():
            if getattr(self, name) < floor:
                raise ValueError(f"{name} must be >= {floor}, got {getattr(self, name)}")
        for name, values in CHOICES.items():
            if getattr(self, name) not in values:
                raise ValueError(f"{name} must be one of {values}, got {getattr(self, name)!r}")
        for name in ("tau", "eta", "clip"):  # finite and > 0, but a ment or qlearn tau may be 0
            value, zero_ok = getattr(self, name), name == "tau" and self.method != "urex"
            if not (0 < value < float("inf") or zero_ok and value == 0):
                raise ValueError(f"{name} must be finite and >{'=' * zero_ok} 0, got {value!r}")

    def key(self) -> str:
        return (
            f"{self.task.value}/{self.method}/tau{self.tau:g}/eta{self.eta:g}"
            f"/clip{self.clip:g}/seed{self.restart_seed}"
        )

    def record(self) -> dict:
        """Every field, with the task by name: what a manifest row records."""
        return {**asdict(self), "task": self.task.value}

    def stem(self) -> str:
        """File stem for the trial's outputs: the key, plus a short hash of
        the full spec, so specs that share a key never share files."""
        blob = json.dumps(self.record(), sort_keys=True).encode()
        return f"{self.key().replace('/', '_')}_{hashlib.sha256(blob).hexdigest()[:10]}"


def make_spec(task: TaskId, method: str, tau: float, eta: float = 0.01,
              clip: float = 10.0, restart_seed: int = 0, profile: str = DEFAULT_PROFILE,
              **overrides) -> TrialSpec:
    prof = PROFILES.get(profile, FULL)  # TrialSpec refuses a profile not in PROFILES
    spec = TrialSpec(
        task=task,
        method=method,
        tau=tau,
        eta=eta,
        clip=clip,
        restart_seed=restart_seed,
        max_steps=prof.max_steps(task),
        n=GROUPS_PER_BATCH.get(task, 40),
        hidden_size=prof.hidden_size,
        length_cap=prof.length_cap,
        success_rule=prof.success_rule,
        success_threshold=SUCCESS_THRESHOLDS.get(task),
        profile=profile,
    )
    return replace(spec, **overrides) if overrides else spec
