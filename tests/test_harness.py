"""Harness plumbing: trials, grid resumability, traces, sweeps, config."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from urex.envs import TaskId, make_env
from urex.harness import (GridResult, TrialSpec, evaluate_greedy,
                          generalization_sweep, make_spec, render_trace,
                          run_grid, run_trial)
from urex.harness import blas, grid
from urex.harness.config import load_config, merge_overrides, parse_value
from urex.harness.trace import collect_actions


def tiny_spec(**kw):
    base = dict(task=TaskId.COPY, method="ment", tau=0.0, eta=0.1, clip=10.0,
                restart_seed=0, max_steps=6, k=3, n=2, hidden_size=8,
                length_cap=3, success_rule="perfect", eval_every=3,
                eval_episodes=10, profile="desk")
    base.update(kw)
    return TrialSpec(**base)


def test_run_trial_deterministic_and_curves():
    a = run_trial(tiny_spec())
    b = run_trial(tiny_spec())
    assert a.reward_curve == b.reward_curve
    assert a.eval_history == b.eval_history
    assert a.steps_run == b.steps_run
    assert len(a.reward_curve) == a.steps_run
    assert np.isfinite(a.final_expected_reward)


# A desk DuplicatedInput/ment trial at criterion 08's hyper-parameters.
# Its 400-row weight-gradient GEMMs give different bits at 1 and 2
# OpenBLAS threads unless run_trial holds the count fixed.
_THREADED_TRIAL = """
import json
from urex.envs import TaskId
from urex.harness import make_spec, run_trial
spec = make_spec(TaskId.DUPLICATED_INPUT, "ment", 0.01, eta=0.1, clip=10.0, k=10, n=40,
                 restart_seed=0, profile="desk", max_steps=100)
result = run_trial(spec)
print(json.dumps({"curve": result.reward_curve, "params": result.policy.params.flat.tolist()}))
"""


def test_run_trial_bits_independent_of_blas_threads():
    runs = []
    for threads in ("1", "2"):
        # set before numpy is imported, so that OpenBLAS starts at this count
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        out = subprocess.run([sys.executable, "-c", _THREADED_TRIAL], env=env,
                             capture_output=True, text=True, timeout=600, check=True)
        runs.append(json.loads(out.stdout))
    assert len(runs[0]["curve"]) == 100
    assert runs[0]["curve"] == runs[1]["curve"]
    assert runs[0]["params"] == runs[1]["params"]


def test_blas_threads_restores_count_and_warns_without_control(monkeypatch):
    control = blas._thread_control()
    if control is not None:
        get, _ = control
        before = get()
        with blas.blas_threads(1):
            assert get() == 1
        assert get() == before
    monkeypatch.setattr(blas, "_thread_control", lambda: None)
    ran = []
    with pytest.warns(RuntimeWarning, match="no thread control"):
        with blas.blas_threads(1):
            ran.append(True)
    assert ran == [True]


def test_run_trial_final_reward_window():
    res = run_trial(tiny_spec(max_steps=12, eval_every=100))
    assert res.final_expected_reward == pytest.approx(
        float(np.mean(res.reward_curve[-10:])))


def test_run_trial_metrics_jsonl(tmp_path):
    path = tmp_path / "m.jsonl"
    res = run_trial(tiny_spec(method="urex", tau=0.1), metrics_path=path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == res.steps_run
    for row in rows:
        assert {"step", "method", "tau", "eta", "clip", "mean_reward",
                "grad_norm_pre", "grad_norm_post", "wall_ms", "max_len",
                "weight_variance"}.issubset(row)


def test_grid_manifest_resume(tmp_path):
    manifest = tmp_path / "grid.jsonl"
    kw = dict(etas=(0.1, 0.01), clips=(1.0,), restarts=2, profile="desk",
              manifest_path=str(manifest),
              spec_overrides=dict(max_steps=4, k=2, n=2, hidden_size=4,
                                  length_cap=2, eval_every=2, eval_episodes=4))
    first = run_grid(TaskId.COPY, "ment", 0.0, **kw)
    lines_after_first = manifest.read_text().splitlines()
    assert len(lines_after_first) == first.total_trials == 4
    # rerun: no new work, identical table
    second = run_grid(TaskId.COPY, "ment", 0.0, **kw)
    assert manifest.read_text().splitlines() == lines_after_first
    assert second.counts == first.counts
    assert second.table() == first.table()
    # every table cell is reconstructible from manifest rows
    rows = [json.loads(l) for l in lines_after_first]
    successes = sum(r["success"] for r in rows)
    assert successes == sum(first.counts.values())
    csv = first.to_csv()
    assert csv.count("\n") == 1 + len(kw["etas"]) * len(kw["clips"])


def test_grid_resumes_after_torn_manifest_line(tmp_path, monkeypatch):
    manifest = tmp_path / "grid.jsonl"
    kw = dict(etas=(0.1, 0.01), clips=(1.0,), restarts=2, profile="desk",
              manifest_path=str(manifest),
              spec_overrides=dict(max_steps=4, k=2, n=2, hidden_size=4,
                                  length_cap=2, eval_every=2, eval_episodes=4))
    first = run_grid(TaskId.COPY, "ment", 0.0, **kw)
    lines = manifest.read_text().splitlines()
    # a kill mid-write leaves the last row cut short, without its newline
    manifest.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
    rerun = []
    real_run_trial = grid.run_trial
    monkeypatch.setattr(grid, "run_trial",
                        lambda spec: rerun.append(spec.key()) or real_run_trial(spec))
    with pytest.warns(RuntimeWarning, match="torn last line"):
        second = run_grid(TaskId.COPY, "ment", 0.0, **kw)
    assert rerun == [json.loads(lines[-1])["key"]]
    after = manifest.read_text().splitlines()
    assert [json.loads(line) for line in after] == [json.loads(line) for line in lines]
    assert second.counts == first.counts


def test_grid_rerun_with_a_different_spec_reruns_every_trial(tmp_path, monkeypatch):
    manifest = tmp_path / "grid.jsonl"
    overrides = dict(max_steps=4, k=2, n=2, hidden_size=4, length_cap=2, eval_every=2,
                     eval_episodes=4)
    kw = dict(etas=(0.1, 0.01), clips=(1.0,), restarts=2, profile="desk",
              manifest_path=str(manifest))
    first = run_grid(TaskId.COPY, "ment", 0.0, spec_overrides=overrides, **kw)
    rerun = []
    real_run_trial = grid.run_trial
    monkeypatch.setattr(grid, "run_trial",
                        lambda spec: rerun.append(spec.key()) or real_run_trial(spec))
    second = run_grid(TaskId.COPY, "ment", 0.0, spec_overrides=dict(overrides, max_steps=3),
                      **kw)
    keys = [row["key"] for row in first.trials]
    assert rerun == keys
    assert [row["spec"]["max_steps"] for row in second.trials] == [3] * 4
    assert max(row["steps_run"] for row in second.trials) <= 3
    # rows that record no spec, as older manifests hold, rerun too
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    manifest.write_text("".join(json.dumps({k: v for k, v in row.items() if k != "spec"}) + "\n"
                                for row in rows))
    run_grid(TaskId.COPY, "ment", 0.0, spec_overrides=dict(overrides, max_steps=3), **kw)
    assert rerun == keys + keys


def test_manifest_ends_rows_on_their_own_line_and_rejects_inner_damage(tmp_path):
    path = tmp_path / "grid.jsonl"
    path.write_text('{"key": "a"}\n{"key": "b"}')  # complete row, newline not written
    assert sorted(grid._load_manifest(str(path))) == ["a", "b"]
    assert path.read_text() == '{"key": "a"}\n{"key": "b"}\n'
    path.write_text('{"key": "a"}\n{"key": \n{"key": "b"}\n')
    with pytest.raises(json.JSONDecodeError):
        grid._load_manifest(str(path))


def test_trace_golden_prefix():
    env = make_env(TaskId.BINARY_SEARCH, 0)
    env.reset()
    env.set_latent(512, 100)
    text = render_trace(env, "oracle", strategy="binary")
    lines = text.splitlines()
    assert lines[0].split() == ["R0", "R1", "R2", "s", "a"]
    assert lines[1].split() == ["512", "0", "0", "-", "AVG(2)"]
    assert lines[2].split() == ["512", "0", "256", "-", "CMP(2)"]
    assert lines[3].split() == ["512", "0", "256", "<", "DIV(0)"]
    assert lines[4].split() == ["256", "0", "256", "-", "AVG(2)"]
    assert lines[-1].split()[-1] == "--"
    assert lines[-1].split()[3] == "="


def test_trace_tape_layout():
    env = make_env(TaskId.COPY, 2, (2, 2))
    env.reset()
    text = render_trace(env, "oracle")
    lines = text.splitlines()
    assert len(lines) == 1 + 2  # header + two write steps
    assert lines[1].split()[-1] == "1.0"


def test_trace_replay_rewards_reproducible():
    env = make_env(TaskId.BINARY_SEARCH, 9)
    env.reset()
    actions = collect_actions(env, "oracle", "binary")
    env.restart()
    r1 = [env.step(a).reward for a in actions]
    env.restart()
    r2 = [env.step(a).reward for a in actions]
    assert r1 == r2


def test_generalization_oracle_perfect_everywhere():
    record = generalization_sweep("oracle", TaskId.COPY,
                                  lengths=(30, 100, 500, 1000, 2000),
                                  episodes_per_length=5, seed=1, refine=False)
    assert [correct for _, correct in record.rows] == [5] * 5
    assert record.max_perfect_length == 2000
    csv = record.to_csv()
    assert csv.startswith("length,correct,episodes")


def test_generalization_refinement_finds_exact_cutoff():
    class LengthCappedActor:
        """Greedy actor that is perfect up to a hidden cutoff length."""

        def __init__(self, cutoff):
            self.cutoff = cutoff

        def rollout(self, envs, greedy=True):
            trajs = []
            for env in envs:
                traj = make_traj(env, perfect=env.input_length <= self.cutoff)
                trajs.append(traj)
            return trajs, None

    def make_traj(env, perfect):
        from urex.envs import oracle_rollout
        from urex.types import Trajectory

        if perfect:
            return oracle_rollout(env)
        return Trajectory(observations=[0], actions=[(0, 0, 0)], rewards=[-0.5],
                          total_reward=-0.5, max_total_reward=env.max_total_reward())

    record = generalization_sweep(LengthCappedActor(73), TaskId.COPY,
                                  lengths=(30, 100), episodes_per_length=4,
                                  seed=2, refine=True)
    assert record.rows[0] == (30, 4)
    assert record.rows[1][1] < 4
    assert record.max_perfect_length == 73


def test_evaluate_greedy_scores_perfect_oracle_policy():
    # a trained-free sanity check: zero-param policy is far from perfect
    spec = tiny_spec()
    from urex.policy import RecurrentPolicy

    env = make_env(TaskId.COPY, 0, (2, 3))
    pol = RecurrentPolicy(env.num_observations, env.action_heads, 8)
    rng = np.random.Generator(np.random.PCG64(0))
    mean_reward, accuracy = evaluate_greedy(pol, spec, rng)
    assert accuracy < 1.0


def test_config_parsing(tmp_path):
    path = tmp_path / "conf"
    path.write_text("# comment\ntask = Copy\n eta=0.1\nsteps= 200 # inline\nflag=true\n")
    conf = load_config(path)
    assert conf == {"task": "Copy", "eta": 0.1, "steps": 200, "flag": True}
    merged = merge_overrides(conf, {"eta": None, "steps": 300})
    assert merged["eta"] == 0.1 and merged["steps"] == 300
    assert parse_value("1e-3") == 1e-3
    assert parse_value("urex") == "urex"


def test_cli_trace_runs(capsys):
    from urex.harness.cli import main

    main(["trace", "--task", "BinarySearch", "--seed", "3", "--strategy", "linear"])
    out = capsys.readouterr().out
    assert "R0" in out and "CMP" in out


def test_cli_run_writes_outputs(tmp_path, capsys):
    from urex.harness.cli import main

    conf = tmp_path / "desk.conf"
    conf.write_text("task=Copy\nmethod=ment\ntau=0.0\neta=0.1\nsteps=4\nprofile=desk\n")
    main(["run", "--config", str(conf), "--task", "Copy", "--method", "ment",
          "--tau", "0.0", "--out", str(tmp_path / "runs")])
    out = capsys.readouterr().out
    assert '"success"' in out
    files = os.listdir(tmp_path / "runs")
    assert any(f.endswith(".jsonl") for f in files)
    assert any(f.endswith(".ckpt") for f in files)


def test_cli_runs_that_differ_only_in_profile_keep_their_own_outputs(tmp_path, capsys):
    from urex.harness.cli import main

    for profile in ("desk", "full"):
        main(["run", "--task", "Copy", "--method", "ment", "--tau", "0.0", "--steps", "1",
              "--profile", profile, "--out", str(tmp_path)])
    files = os.listdir(tmp_path)
    assert len([f for f in files if f.endswith(".jsonl")]) == 2
    assert len([f for f in files if f.endswith(".ckpt")]) == 2


def test_cli_generalize_oracle(tmp_path, capsys):
    from urex.harness.cli import main

    main(["generalize", "--checkpoint", "oracle", "--task", "Reverse",
          "--max-len", "100", "--episodes", "3", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "length,correct,episodes" in out
    assert os.path.exists(tmp_path / "generalize_Reverse.csv")


def test_cli_bandit_small(tmp_path, capsys):
    from urex.harness.cli import main

    main(["bandit", "--actions", "50", "--dim", "5", "--beta", "2",
          "--repeats", "2", "--restarts", "1", "--steps", "20",
          "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "best settings" in out and "advantage>0" in out
    csv = (tmp_path / "bandit_curves.csv").read_text()
    assert csv.startswith("step,ment_mean,ment_std,urex_mean,urex_std")
