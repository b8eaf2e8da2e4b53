"""Hyper-parameter grid over learning rate and clip norm with random restarts.

Completed trials are appended to a JSONL manifest, each row with its full
trial spec, so an interrupted grid resumes without re-running finished work,
a row run under a different spec is never reused, and the success-count
table is always reconstructible from the manifest alone.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field

from ..envs import TaskId
from .profiles import CLIPS, DEFAULT_PROFILE, ETAS, RESTARTS, make_spec
from .trial import run_trial


@dataclass
class GridResult:
    task: TaskId
    method: str
    tau: float
    etas: tuple
    clips: tuple
    restarts: int
    counts: dict = field(default_factory=dict)  # (eta, clip) -> successes
    trials: list = field(default_factory=list)

    @property
    def total_trials(self) -> int:
        return len(self.etas) * len(self.clips) * self.restarts

    @property
    def success_percentage(self) -> float:
        return 100.0 * sum(self.counts.values()) / self.total_trials

    def table(self) -> str:
        """Success counts laid out as clip rows by learning-rate columns."""
        lines = ["clip\\eta " + " ".join(f"{eta:>7g}" for eta in self.etas)]
        for clip in self.clips:
            cells = " ".join(f"{self.counts.get((eta, clip), 0):>7d}" for eta in self.etas)
            lines.append(f"{clip:>8g} {cells}")
        lines.append(f"success: {self.success_percentage:.1f}% of {self.total_trials}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        rows = ["eta,clip,successes,restarts"]
        for eta in self.etas:
            for clip in self.clips:
                rows.append(f"{eta},{clip},{self.counts.get((eta, clip), 0)},{self.restarts}")
        return "\n".join(rows) + "\n"


def _load_manifest(path):
    """Completed rows by key.  A torn last line, as a kill mid-write leaves,
    is cut off with a warning so the next row starts on its own line; a
    malformed line before it raises."""
    done = {}
    if path and os.path.exists(path):
        with open(path, "r+b") as fh:
            lines = fh.readlines()
            for n, line in enumerate(lines, 1):
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    if n < len(lines):
                        raise
                    warnings.warn(f"{path}: dropping torn last line {n}", RuntimeWarning)
                    fh.truncate(sum(map(len, lines[:-1])))
                    break
                done[row["key"]] = row
            else:
                if lines and not lines[-1].endswith(b"\n"):
                    fh.write(b"\n")
    return done


def run_grid(task: TaskId, method: str, tau: float, *, etas=ETAS, clips=CLIPS,
             restarts: int = RESTARTS, profile: str = DEFAULT_PROFILE,
             manifest_path=None, spec_overrides=None) -> GridResult:
    """Run (or resume) the full eta x clip x restart grid for one method.
    A method that fixes the clip (Q-learning) runs one clip row."""
    clips = dict.fromkeys(make_spec(task, method, tau, clip=clip).clip for clip in clips)
    done = _load_manifest(manifest_path)
    result = GridResult(task=task, method=method, tau=tau, etas=tuple(etas),
                        clips=tuple(clips), restarts=restarts)
    sink = open(manifest_path, "a") if manifest_path else None
    try:
        for eta in etas:
            for clip in clips:
                for restart in range(restarts):
                    spec = make_spec(task, method, tau, eta=eta, clip=clip,
                                     restart_seed=restart, profile=profile,
                                     **(spec_overrides or {}))
                    recorded = spec.record()
                    row = done.get(spec.key())
                    if row is None or row.get("spec") != recorded:
                        row = {**run_trial(spec).record(), "spec": recorded}
                        if sink:
                            sink.write(json.dumps(row) + "\n")
                            sink.flush()
                    result.trials.append(row)
                    if row["success"]:
                        result.counts[(eta, clip)] = result.counts.get((eta, clip), 0) + 1
    finally:
        if sink:
            sink.close()
    return result
