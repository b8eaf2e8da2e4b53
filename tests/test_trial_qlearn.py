"""Q-learning through the trial runner."""

import json

import numpy as np

from urex.envs import TaskId
from urex.harness import TrialSpec, run_trial


def test_qlearn_trial_runs_and_is_deterministic(tmp_path):
    spec = TrialSpec(task=TaskId.COPY, method="qlearn", tau=0.0, eta=0.01,
                     clip=10.0, restart_seed=0, max_steps=30, hidden_size=8,
                     length_cap=2, success_rule="perfect", eval_every=15,
                     eval_episodes=5, profile="desk")
    path = tmp_path / "q.jsonl"
    a = run_trial(spec, metrics_path=path)
    b = run_trial(spec)
    assert a.steps_run == b.steps_run == 30 or a.success
    assert a.reward_curve == b.reward_curve
    assert len(a.eval_history) >= 1
    assert np.isfinite(a.final_expected_reward)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == a.steps_run
    for row in rows:
        assert {"step", "epsilon", "loss", "episode_reward", "episode_len"}.issubset(row)
    assert [row["episode_reward"] for row in rows] == a.reward_curve
