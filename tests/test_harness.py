"""Harness plumbing: trials, grid resumability, traces, sweeps, config."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from urex.envs import FOUND_QUERY, BanditEnv, TaskId, make_env
from urex.harness import (CLIPS, ETAS, RESTARTS, BanditExperimentConfig, GridResult,
                          TrialResult, TrialSpec, evaluate_greedy, generalization_sweep,
                          make_spec, render_trace, run_bandit_experiment, run_grid,
                          run_trial, train_bandit_policy)
from urex.harness import blas, grid, trial
from urex.harness.profiles import GROUPS_PER_BATCH
from urex.harness.trace import collect_actions
from urex.policy import ParamVector, load_policy, policy_for_env, save_checkpoint, save_policy
from urex.trainers import DoubleQLearner, PolicyGradientTrainer, QConfig
from urex.types import TrajectoryBatch

from fixed_latents import set_search_latent


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


@pytest.mark.parametrize("method", ["ment", "qlearn"])
def test_run_trial_returns_the_trained_parameters_without_a_work_block(method, monkeypatch):
    learner_name = "_q_learner" if method == "qlearn" else "_policy_gradient_learner"
    learner, trained = getattr(trial, learner_name), []

    def keeping_the_policy(*args):
        policy, step = learner(*args)
        trained.append(policy)
        return policy, step

    monkeypatch.setattr(trial, learner_name, keeping_the_policy)
    result = run_trial(tiny_spec(method=method))
    (policy,) = trained
    assert policy._work_rows > 0  # the trainer's policy kept its passes' work block
    assert result.policy is not policy and result.policy._work_rows == 0
    assert result.policy.meta() == policy.meta()
    assert result.policy.params.flat.tobytes() == policy.params.flat.tobytes()


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


def test_run_trial_stops_at_a_divergence_after_the_steps_before_it(tmp_path, monkeypatch):
    real_step = PolicyGradientTrainer.step

    def step(trainer):
        if trainer.step_count == 4:  # the fifth update's forward pass meets NaN weights
            trainer.policy.params.flat[:] = np.nan
        return real_step(trainer)

    evals = []
    real_evaluate = trial.evaluate_greedy
    monkeypatch.setattr(PolicyGradientTrainer, "step", step)
    monkeypatch.setattr(trial, "evaluate_greedy",
                        lambda *args: evals.append(args) or real_evaluate(*args))
    path = tmp_path / "m.jsonl"
    spec = tiny_spec(max_steps=12, eval_every=3, success_rule="threshold",
                     success_threshold=float("inf"))
    res = run_trial(spec, metrics_path=path)
    assert res.failure_cause == "divergence: non-finite recurrent state in the forward pass"
    assert res.steps_run == 4 and not res.success and res.success_step is None
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["step"] for row in rows] == [1, 2, 3, 4]
    assert [row["mean_reward"] for row in rows] == res.reward_curve
    assert res.final_expected_reward == pytest.approx(np.mean(res.reward_curve))
    assert len(evals) == 1 and [step for step, *_ in res.eval_history] == [3]


def test_binary_search_trial_trains_and_evaluates_on_lists_of_envs():
    spec = tiny_spec(task=TaskId.BINARY_SEARCH, method="urex", tau=0.1, max_steps=2,
                     eval_every=2, eval_episodes=3)
    res = run_trial(spec)
    assert res.steps_run == 2 and len(res.reward_curve) == 2
    assert len(res.weight_variance_curve) == 2

    def eval_stream():
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([spec.restart_seed, trial._EVAL_STREAM])))

    # the eval after the last step saw the final policy, drawing from a fresh eval stream
    (step, mean_reward, accuracy), = res.eval_history
    assert (step, mean_reward, accuracy) == (2, *evaluate_greedy(res.policy, spec, eval_stream()))
    # ... and scored each episode as a lone env's greedy rollout scores it
    eval_rng = eval_stream()
    totals, perfect = [], []
    for _ in range(spec.eval_episodes):
        env = make_env(TaskId.BINARY_SEARCH, int(eval_rng.integers(0, 2**63)))
        env.reset()
        (traj,), _ = res.policy.rollout([env], greedy=True)
        totals.append(traj.total_reward)
        perfect.append(traj.total_reward >= traj.max_total_reward)
    assert mean_reward == pytest.approx(np.mean(totals)) and accuracy == np.mean(perfect)
    assert run_trial(spec).reward_curve == res.reward_curve


def test_only_a_qlearn_spec_fixes_the_tau_clip_k_and_n_its_trial_never_reads():
    for method in ("qlearn", "ment", "urex"):
        base = make_spec(TaskId.COPY, method, 0.1, clip=1.0)
        others = [make_spec(TaskId.COPY, method, 0.5, clip=1.0),
                  make_spec(TaskId.COPY, method, 0.1, clip=40.0),
                  make_spec(TaskId.COPY, method, 0.1, clip=1.0, k=4),
                  make_spec(TaskId.COPY, method, 0.1, clip=1.0, n=7),
                  replace(base, tau=0.5), replace(base, clip=40.0), replace(base, k=4),
                  replace(base, n=7)]
        for other in others:
            if method == "qlearn":
                assert (other.key(), other.stem(), other.record()) == (
                    base.key(), base.stem(), base.record())
            else:
                assert other.stem() != base.stem() and other.record() != base.record()
    qlearn = make_spec(TaskId.COPY, "qlearn", 0.1, clip=1.0)
    assert (qlearn.tau, qlearn.clip, qlearn.k, qlearn.n) == (0.0, 10.0, 10,
                                                             GROUPS_PER_BATCH[TaskId.COPY])
    assert tiny_spec(method="qlearn", tau=3.0, clip=1.0) == tiny_spec(method="qlearn")


SPEC_REFUSALS = [  # field, a value the spec takes, one it refuses, the refusal; ment unless named
    *[(field, floor, floor - 1, f"must be >= {floor}, got {floor - 1}") for field, floor in [
        ("max_steps", 1), ("eval_every", 1), ("eval_episodes", 1), ("k", 2), ("n", 1),
        ("hidden_size", 1), ("length_cap", 2)]],
    ("method", "urex", "reinforce", "must be one of ('ment', 'urex', 'qlearn'), got 'reinforce'"),
    ("success_rule", "threshold", "perfekt",
     "must be one of ('perfect', 'threshold'), got 'perfekt'"),
    ("profile", "full", "nope", "must be one of ('full', 'desk'), got 'nope'"),
    ("tau", 0.0, -1.0, "must be finite and >= 0, got -1.0"),
    ("tau", 0.5, float("nan"), "must be finite and >= 0, got nan"),
    ("tau", 0.01, 0.0, "must be finite and > 0, got 0.0", "urex"),
    ("eta", 0.01, 0.0, "must be finite and > 0, got 0.0"),
    ("eta", 0.1, float("inf"), "must be finite and > 0, got inf"),
    ("clip", 10.0, -1.0, "must be finite and > 0, got -1.0"),
]


@pytest.mark.parametrize("field, good, bad, message, method",
                         [(*row, "ment")[:5] for row in SPEC_REFUSALS],
                         ids=[f"{field}-{good}" for field, good, *_ in SPEC_REFUSALS])
@pytest.mark.parametrize("build", ["make_spec", "replace", "direct"])
def test_a_spec_refuses_a_value_its_trial_cannot_run(field, good, bad, message, method, build):
    base = dict(task=TaskId.COPY, method=method, tau=0.01, profile="desk", max_steps=2)
    make = {"make_spec": lambda **kw: make_spec(**{**base, **kw}),
            "replace": lambda **kw: replace(make_spec(**base), **kw),
            "direct": lambda **kw: tiny_spec(**{**base, **kw})}[build]
    assert getattr(make(**{field: good}), field) == good
    with pytest.raises(ValueError, match=re.escape(f"{field} {message}")):
        make(**{field: bad})


def test_grid_refuses_a_spec_before_it_opens_the_manifest(tmp_path):
    manifest = tmp_path / "grid.jsonl"
    with pytest.raises(ValueError, match=re.escape("tau must be finite and > 0, got 0.0")):
        run_grid(TaskId.COPY, "urex", 0.0, manifest_path=str(manifest))
    assert not manifest.exists()


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
    set_search_latent(env, 512, 100)
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


# render_trace(env, "oracle") of make_env(task, seed) after reset(), as
# `urex trace --task T --seed S` prints it, recorded for seeds 0-2
GOLDEN_TAPE_TRACES = Path(__file__).with_name("golden_tape_traces.json")
TAPE_TASKS = [TaskId.COPY, TaskId.DUPLICATED_INPUT, TaskId.REPEAT_COPY, TaskId.REVERSE,
              TaskId.REVERSED_ADDITION]


@pytest.mark.parametrize("task", TAPE_TASKS)
@pytest.mark.parametrize("seed", range(3))
def test_oracle_tape_trace_matches_the_golden_text(task, seed):
    env = make_env(task, seed)
    env.reset()
    golden = json.loads(GOLDEN_TAPE_TRACES.read_text())
    assert render_trace(env, "oracle") == golden[f"{task.value}/{seed}"]


def test_trace_replay_rewards_reproducible():
    env = make_env(TaskId.BINARY_SEARCH, 9)
    env.reset()
    actions = collect_actions(env, "oracle", "binary")
    env.restart()
    r1 = [env.step(a).reward for a in actions]
    env.restart()
    r2 = [env.step(a).reward for a in actions]
    assert r1 == r2


# How a trace spells actions and observations, written out for the
# policy-actor traces below.
def tape_text(action):
    move, write, symbol = action
    written = f"w,{symbol}" if write else "-,."
    return f"{('left', 'right', 'up', 'down')[move]},{written}"


def search_text(action):
    op, reg = action
    return f"{('INC', 'DIV', 'AVG', 'CMP')[op]}({reg})"


def small_policy(env, seed):
    policy = policy_for_env(env, hidden_size=8)
    policy.init_params(np.random.Generator(np.random.PCG64(seed)))
    return policy


def greedy_episode_of(env, actor):
    trajs, _ = actor.rollout([env], greedy=True)
    traj = trajs[0]
    return traj, [env.decode_action(a) for a in traj.actions]


# the policy only moves; the Q-nets write, then hit the step limit (8) or
# emit a wrong symbol (14)
@pytest.mark.parametrize("actor, seed", [("policy", 34), ("qlearn", 8), ("qlearn", 14)])
def test_tape_trace_of_a_policy_prints_its_greedy_episode(actor, seed):
    env = make_env(TaskId.COPY, 7, (4, 4))
    env.reset()
    if actor == "policy":
        net = small_policy(env, seed)
    else:  # the Q-learner's online net: one joint head over (move, write, symbol)
        net = DoubleQLearner(env, QConfig(hidden_size=8, seed=seed)).online
        assert net.head_sizes == (2 * 2 * 5,)
    traj, actions = greedy_episode_of(env, net)
    rows = [line.split() for line in render_trace(env, net).splitlines()[1:]]
    assert [row[0] for row in rows] == [str(t) for t in range(1, len(actions) + 1)]
    cells = ["_" if obs == env.blank else str(obs) for obs in traj.observations]
    assert [row[2] for row in rows] == cells
    assert [row[3] for row in rows] == [tape_text(a) for a in actions]
    assert [row[4] for row in rows] == [f"{r:.1f}" for r in traj.rewards]


# a step-limit episode that compares, and one that finds the query
@pytest.mark.parametrize("env_seed, seed", [(4, 39), (5, 46)])
def test_search_trace_of_a_policy_prints_its_greedy_episode(env_seed, seed):
    env = make_env(TaskId.BINARY_SEARCH, env_seed, (32, 32))
    env.reset()
    policy = small_policy(env, seed)
    traj, actions = greedy_episode_of(env, policy)
    *rows, last = [line.split() for line in render_trace(env, policy).splitlines()[1:]]
    assert len(rows) == len(actions)
    assert [row[3] for row in rows] == ["-<>="[o] for o in traj.observations]
    assert [row[4] for row in rows] == [search_text(a) for a in actions]
    assert last[-1] == "--" and last[:3] == [str(r) for r in env.registers]
    assert (last[3] == "=") == (traj.cause == FOUND_QUERY)


def test_generalization_oracle_perfect_everywhere():
    record = generalization_sweep("oracle", TaskId.COPY,
                                  lengths=(30, 100, 500, 1000, 2000),
                                  episodes_per_length=5, seed=1)
    assert [correct for _, correct in record.rows] == [5] * 5
    assert record.max_perfect_length == 2000
    csv = record.to_csv()
    assert csv.startswith("length,correct,episodes")


def test_generalization_reports_a_perfect_probe_beyond_the_default_lengths():
    record = generalization_sweep("oracle", TaskId.COPY, lengths=(2500,), episodes_per_length=1)
    assert record.to_csv() == "length,correct,episodes\n2500,1,1\nmax,2500,\n"


def test_generalization_refuses_a_sweep_with_no_length():
    with pytest.raises(ValueError, match="at least one length"):
        generalization_sweep("oracle", TaskId.COPY, lengths=())


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
            return TrajectoryBatch.from_trajectories(trajs), None

    def make_traj(env, perfect):
        from urex.envs import oracle_rollout
        from urex.types import Trajectory

        if perfect:
            return oracle_rollout(env)
        return Trajectory(observations=[0], actions=[(0, 0, 0)], rewards=[-0.5],
                          total_reward=-0.5, max_total_reward=env.max_total_reward())

    record = generalization_sweep(LengthCappedActor(73), TaskId.COPY,
                                  lengths=(30, 100), episodes_per_length=4, seed=2)
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


class _Ran(Exception):
    """Stops ``urex run`` at its trial, carrying the spec it built."""


def _run_spec(monkeypatch, argv) -> TrialSpec:
    from urex.harness import cli

    def run_trial(spec, metrics_path=None):
        raise _Ran(spec)

    monkeypatch.setattr(cli, "run_trial", run_trial)
    with pytest.raises(_Ran) as ran:
        cli.main(argv)
    return ran.value.args[0]


def test_config_parsing(tmp_path, monkeypatch, capsys):
    from urex.harness.cli import main

    path = tmp_path / "conf"
    path.write_text("# comment\n\ntask = Copy\n method=ment\ntau= 0 # inline\neta=1e-3\n"
                    "steps = 200\n")
    spec = _run_spec(monkeypatch, ["run", "--config", str(path), "--steps", "300",
                                   "--out", str(tmp_path)])
    assert spec == make_spec(TaskId.COPY, "ment", 0.0, eta=1e-3, max_steps=300)
    path.write_text("task = Copy\nmethod ment\n")
    with pytest.raises(SystemExit) as exit:
        main(["run", "--config", str(path)])
    assert exit.value.code == 2
    assert f"{path}:2: expected KEY=value" in capsys.readouterr().err
    path.write_text("task = Copy\nmethod = qlearn\ntau = 0\nclip = 10\n")
    with pytest.raises(SystemExit) as exit:
        main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert exit.value.code == 2
    assert "error: argument --clip: --method qlearn takes no clip" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--task", "Copy", "--method", "ment", "--tau", "0", "--profile", "desk",
     "--steps", "1"],
    ["trace", "--task", "Copy"],
    ["generalize", "--checkpoint", "oracle", "--task", "Copy", "--max-len", "30",
     "--episodes", "1"]], ids=["run", "trace", "generalize"])
@pytest.mark.parametrize("key, value", [("profile", "bogus"), ("strategy", "bogus"),
                                        ("seed", "x"), ("stepz", "1")])
def test_cli_refuses_a_bad_config_value_as_it_refuses_the_flag(tmp_path, monkeypatch, capsys,
                                                               argv, key, value):
    from urex.harness.cli import main

    monkeypatch.chdir(tmp_path)
    path = tmp_path / "bad.conf"
    path.write_text(f"{key} = {value}\n")
    errors = []
    for given in (["--config", str(path)], [f"--{key}", value]):
        with pytest.raises(SystemExit) as exit:
            main([*argv, *given])
        assert exit.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "error:" in errors[0]


def test_cli_refuses_a_missing_config_file(tmp_path, capsys):
    from urex.harness.cli import main

    path = tmp_path / "nope.conf"
    with pytest.raises(SystemExit) as exit:
        main(["run", "--task", "Copy", "--method", "ment", "--tau", "0", "--config", str(path)])
    assert exit.value.code == 2
    assert f"cannot read {path}" in capsys.readouterr().err


@pytest.mark.parametrize("given, message", [
    (["--max-len", "20"], "below the first probe length 30"),
    (["--max-len", "29"], "below the first probe length 30"),
    (["--config", "<file>"], "below the first probe length 30"),
    (["--max-len", "x"], "error: argument --max-len: invalid int value: 'x'")],
    ids=["given0", "given1", "given2", "given3"])
def test_cli_refuses_a_max_len_below_the_first_probe_length(tmp_path, capsys, given, message):
    from urex.harness.cli import main

    path = tmp_path / "short.conf"
    path.write_text("max_len = 20\n")
    given = [str(path) if arg == "<file>" else arg for arg in given]
    with pytest.raises(SystemExit) as exit:
        main(["generalize", "--checkpoint", "oracle", "--task", "Copy", *given,
              "--out", str(tmp_path / "out")])
    assert exit.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, flag", [
    (["generalize", "--checkpoint", "oracle", "--task", "Copy"], "--episodes"),
    (["bandit"], "--repeats"), (["bandit"], "--restarts"), (["bandit"], "--steps"),
    (["bandit"], "--actions"), (["bandit"], "--dim")])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_refuses_a_count_below_one(tmp_path, capsys, argv, flag, value):
    from urex.harness.cli import main

    with pytest.raises(SystemExit) as exit:
        main([*argv, flag, value, "--out", str(tmp_path / "out")])
    assert exit.value.code == 2
    assert (f"error: argument {flag}: expected a positive integer, got {value!r}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


_RUN_MENT = ["run", "--task", "Copy", "--method", "ment", "--tau", "0.01", "--profile", "desk",
             "--steps", "1"]
_RUN_QLEARN = ["run", "--task", "Copy", "--method", "qlearn", "--tau", "0", "--profile", "desk",
               "--steps", "1"]


@pytest.mark.parametrize("argv, flag, value", [
    (_RUN_MENT, "--tau", "nan"), (_RUN_MENT, "--tau", "-1"),
    (["run", "--task", "Copy", "--method", "urex", "--profile", "desk"], "--tau", "0"),
    (["grid", "--task", "Copy", "--method", "urex", "--profile", "desk"], "--tau", "0"),
    (_RUN_MENT, "--eta", "0"),
    (_RUN_QLEARN, "--eta", "-1"), (_RUN_QLEARN, "--tau", "5"), (_RUN_QLEARN, "--clip", "10"),
    (_RUN_MENT, "--clip", "0"), (_RUN_MENT, "--clip", "inf"),
    (_RUN_MENT, "--seed", "-1"), (_RUN_MENT, "--steps", "-1"),
    (["generalize", "--checkpoint", "oracle", "--task", "Copy", "--max-len", "30",
      "--episodes", "1"], "--seed", "-1"),
    (["bandit", "--actions", "5", "--repeats", "1", "--restarts", "1", "--steps", "2"],
     "--seed", "-1"),
    (["bandit", "--actions", "5", "--repeats", "1", "--restarts", "1", "--steps", "2"],
     "--beta", "-1"),
    (["trace", "--task", "Copy"], "--seed", "-1")],
    ids=lambda arg: " ".join(arg) if isinstance(arg, list) else arg)
def test_cli_refuses_a_number_out_of_range_before_writing(tmp_path, capsys, argv, flag, value):
    from urex.harness.cli import main

    with pytest.raises(SystemExit) as exit:
        main([*argv, flag, value, "--out", str(tmp_path / "out")])
    assert exit.value.code == 2
    assert f"error: argument {flag}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_steps_zero_keeps_the_profile_budget(tmp_path, monkeypatch):
    spec = _run_spec(monkeypatch, [*_RUN_MENT[:-1], "0", "--out", str(tmp_path)])
    assert spec == make_spec(TaskId.COPY, "ment", 0.01, profile="desk")

def small_checkpoint(tmp_path, kind):
    """A freshly initialised net saved as ``<kind>.ckpt``: a recurrent policy
    for a task or the Copy Q-learner's online net ("qlearn")."""
    if kind == "qlearn":
        net = DoubleQLearner(make_env(TaskId.COPY, 0), QConfig(hidden_size=8)).online
    else:
        net = small_policy(make_env(TaskId(kind), 0), 0)
    path = tmp_path / f"{kind}.ckpt"
    save_policy(path, net)
    return str(path)


SWEEP = ["--max-len", "30", "--episodes", "3"]


@pytest.mark.parametrize("command, kind, task, spaces", [
    (["generalize", *SWEEP], "Copy", "ReversedAddition", ["(6, (2, 2, 5))", "(4, (4, 2, 3))"]),
    (["trace"], "Copy", "BinarySearch", ["(6, (2, 2, 5))", "(4, (12,))"]),
    (["trace"], "BinarySearch", "Copy", ["(4, (12,))", "(6, (2, 2, 5))"]),
    (["generalize", *SWEEP], "BinarySearch", "Copy", ["(4, (12,))", "(6, (2, 2, 5))"]),
    (["generalize", *SWEEP], "qlearn", "ReversedAddition", ["(6, (20,))", "(4, (4, 2, 3))"]),
], ids=["generalize-Copy-on-ReversedAddition", "trace-Copy-on-BinarySearch",
        "trace-BinarySearch-on-Copy", "generalize-BinarySearch-on-Copy",
        "generalize-qlearn-on-ReversedAddition"])
def test_cli_refuses_a_checkpoint_that_does_not_fit_the_task(tmp_path, capsys, command, kind,
                                                             task, spaces):
    from urex.harness.cli import main

    path = small_checkpoint(tmp_path, kind)
    with pytest.raises(SystemExit) as exit:
        main([command[0], "--checkpoint", path, "--task", task, *command[1:],
              "--out", str(tmp_path / "out")])
    assert exit.value.code == 2
    net, wanted = spaces
    assert (f"urex {command[0]}: error: checkpoint {path} is {net}, "
            f"not {task}'s (observations, heads) {wanted}") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def copy_checkpoint_bytes(path):
    return Path(small_checkpoint(path.parent, "Copy")).read_bytes()


@pytest.mark.parametrize("command", [["trace"], ["generalize", *SWEEP]], ids=lambda c: c[0])
@pytest.mark.parametrize("make, reason", [
    (lambda path: None, "No such file or directory"),
    (Path.mkdir, "Is a directory"),
    (lambda path: path.write_text("task = Copy\n"), "not a checkpoint file"),
    (lambda path: path.write_bytes(
        copy_checkpoint_bytes(path).replace(b'"version":1', b'"version":2')),
     "unsupported checkpoint version"),
    (lambda path: path.write_bytes(copy_checkpoint_bytes(path)[:-8]), "truncated checkpoint"),
    (lambda path: save_checkpoint(path, ParamVector([("w", (3,))]), {}),
     "not a policy checkpoint"),
    (lambda path: save_checkpoint(path, ParamVector([("w", (3,))]), {"kind": "linear"}),
     "not a policy checkpoint"),
    (lambda path: save_checkpoint(path, ParamVector([("theta", (30,))]),
                                  {"kind": "linear", "dim": 30}),
     "not a policy checkpoint"),
], ids=["missing", "directory", "text", "version", "truncated", "meta-of-no-net",
        "linear-without-dim", "linear"])
def test_cli_refuses_a_checkpoint_it_cannot_load(tmp_path, capsys, command, make, reason):
    from urex.harness.cli import main

    path = tmp_path / "policy.ckpt"
    make(path)
    with pytest.raises(SystemExit) as exit:
        main([command[0], "--task", "Copy", "--checkpoint", str(path), *command[1:],
              "--out", str(tmp_path / "out")])
    assert exit.value.code == 2
    err = capsys.readouterr().err
    assert f"urex {command[0]}: error: cannot load checkpoint: " in err
    assert str(path) in err and reason in err
    assert not (tmp_path / "out").exists()


TRIAL_TASKS = "Copy, DuplicatedInput, RepeatCopy, Reverse, ReversedAddition, BinarySearch"


@pytest.mark.parametrize("argv, tasks", [
    (["run", "--task", "Bandit", "--method", "ment", "--tau", "0"], TRIAL_TASKS),
    (["grid", "--task", "Bandit", "--method", "ment", "--tau", "0"], TRIAL_TASKS),
    (["trace", "--task", "Bandit"], TRIAL_TASKS),
    (["generalize", "--checkpoint", "oracle", "--task", "BinarySearch", "--max-len", "30"],
     "Copy, DuplicatedInput, RepeatCopy, Reverse, ReversedAddition"),
], ids=["run", "grid", "trace", "generalize"])
def test_cli_refuses_a_task_its_command_cannot_run(tmp_path, capsys, argv, tasks):
    from urex.harness.cli import main

    with pytest.raises(SystemExit) as exit:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exit.value.code == 2
    task = argv[argv.index("--task") + 1]
    assert (f"urex {argv[0]}: error: argument --task: invalid choice: {task!r} "
            f"(choose from {tasks})") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, task", [("copy", TaskId.COPY), ("COPY", TaskId.COPY),
                                        ("duplicated_input", TaskId.DUPLICATED_INPUT),
                                        ("binarysearch", TaskId.BINARY_SEARCH)])
def test_cli_reads_a_task_by_its_value_or_member_name_in_any_case(tmp_path, monkeypatch,
                                                                  name, task):
    spec = _run_spec(monkeypatch, ["run", "--task", name, "--method", "ment", "--tau", "0",
                                   "--out", str(tmp_path)])
    assert spec == make_spec(task, "ment", 0.0)


def fake_grid_trials(monkeypatch):
    """Stands a fake in for the grid's ``run_trial``: it succeeds at clip 10
    on the first restarts (two at eta 0.1, one otherwise) and lists every
    spec it is given.  Returns (that list, the fake)."""
    ran = []

    def fake_run_trial(spec):
        ran.append(spec)
        success = spec.clip == 10.0 and spec.restart_seed < (2 if spec.eta == 0.1 else 1)
        return TrialResult(spec_key=spec.key(), success=success, success_step=None,
                           final_expected_reward=0.5, steps_run=3)

    monkeypatch.setattr(grid, "run_trial", fake_run_trial)
    return ran, fake_run_trial


def test_grid_runs_each_distinct_trial_once(monkeypatch):
    ran, _ = fake_grid_trials(monkeypatch)
    for method, tau, clips in [("qlearn", 0.0, (10.0,)), ("ment", 0.0, CLIPS),
                               ("urex", 0.1, CLIPS)]:
        ran.clear()
        result = run_grid(TaskId.COPY, method, tau)
        trials = len(ETAS) * len(clips) * RESTARTS  # 15 for qlearn, 60 for the others
        assert len(ran) == len({spec.stem() for spec in ran}) == result.total_trials == trials
        assert result.clips == clips
        assert len(result.table().splitlines()) == 2 + len(clips)


def test_cli_grid_writes_its_table_csv_and_manifest_and_resumes(tmp_path, monkeypatch, capsys):
    from urex.harness.cli import main

    ran, fake_run_trial = fake_grid_trials(monkeypatch)
    argv = ["grid", "--task", "copy", "--method", "ment", "--tau", "0", "--profile", "desk",
            "--out", str(tmp_path)]
    main(argv)
    specs = [make_spec(TaskId.COPY, "ment", 0.0, eta=eta, clip=clip, restart_seed=restart,
                       profile="desk")
             for eta in ETAS for clip in CLIPS for restart in range(RESTARTS)]
    assert ran == specs
    stem = "grid_Copy_ment_tau0.0_desk"
    assert sorted(os.listdir(tmp_path)) == [f"{stem}.csv", f"{stem}.jsonl"]
    rows = [json.loads(line) for line in (tmp_path / f"{stem}.jsonl").read_text().splitlines()]
    assert rows == [{**fake_run_trial(spec).record(), "spec": spec.record()} for spec in specs]
    expected = GridResult(task=TaskId.COPY, method="ment", tau=0.0, etas=ETAS, clips=CLIPS,
                          restarts=RESTARTS, counts={(0.1, 10.0): 2, (0.01, 10.0): 1,
                                                     (0.001, 10.0): 1})
    csv = (tmp_path / f"{stem}.csv").read_text()
    assert csv == expected.to_csv() and "0.1,10.0,2,5" in csv
    table = capsys.readouterr().out
    assert table == expected.table() + "\n" and table.endswith("success: 6.7% of 60\n")
    files = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    ran.clear()
    main(argv)  # every trial is in the manifest, so none runs again
    assert ran == [] and capsys.readouterr().out == table
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == files


def test_cli_grid_runs_qlearn_once_per_eta_and_restart_under_runs_refusals(tmp_path, monkeypatch,
                                                                           capsys):
    from urex.harness.cli import main

    ran, fake_run_trial = fake_grid_trials(monkeypatch)
    main(["grid", "--task", "Copy", "--method", "qlearn", "--tau", "0", "--profile", "desk",
          "--out", str(tmp_path)])
    specs = [make_spec(TaskId.COPY, "qlearn", 0.0, eta=eta, restart_seed=restart,
                       profile="desk") for eta in ETAS for restart in range(RESTARTS)]
    assert ran == specs
    stem = "grid_Copy_qlearn_tau0.0_desk"
    assert sorted(os.listdir(tmp_path)) == [f"{stem}.csv", f"{stem}.jsonl"]
    rows = [json.loads(line) for line in (tmp_path / f"{stem}.jsonl").read_text().splitlines()]
    assert rows == [{**fake_run_trial(spec).record(), "spec": spec.record()} for spec in specs]
    expected = GridResult(task=TaskId.COPY, method="qlearn", tau=0.0, etas=ETAS, clips=(10.0,),
                          restarts=RESTARTS, counts={(0.1, 10.0): 2, (0.01, 10.0): 1,
                                                     (0.001, 10.0): 1})
    assert (tmp_path / f"{stem}.csv").read_text() == expected.to_csv()
    table = capsys.readouterr().out
    assert table == expected.table() + "\n" and table.endswith("success: 26.7% of 15\n")
    for given, message in [(["--tau", "5"], "argument --tau: --method qlearn needs tau 0"),
                           (["--tau", "0", "--clip", "10"], "unrecognized arguments: --clip 10")]:
        with pytest.raises(SystemExit) as exit:
            main(["grid", "--task", "Copy", "--method", "qlearn", *given,
                  "--out", str(tmp_path / "out")])
        assert exit.value.code == 2 and message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["Copy", "qlearn"])
def test_cli_traces_and_sweeps_a_checkpoint_on_a_task_of_its_spaces(tmp_path, capsys, kind):
    from urex.harness.cli import main

    path = small_checkpoint(tmp_path, kind)
    for task in ("Copy", "Reverse"):
        main(["trace", "--checkpoint", path, "--task", task, "--seed", "2"])
        env = make_env(TaskId(task), 2)
        env.reset()
        assert capsys.readouterr().out == render_trace(env, load_policy(path)) + "\n"
        main(["generalize", "--checkpoint", path, "--task", task, *SWEEP, "--out", str(tmp_path)])
        sweep = generalization_sweep(load_policy(path), TaskId(task), lengths=[30],
                                     episodes_per_length=3)
        assert capsys.readouterr().out == sweep.to_csv() + "\n"


def test_cli_run_writes_under_the_config_files_out(tmp_path, monkeypatch, capsys):
    from urex.harness.cli import main

    monkeypatch.chdir(tmp_path)
    path = tmp_path / "conf"
    path.write_text(f"out = {tmp_path / 'from_file'}\nsteps = 1\nprofile = desk\n")
    main(["run", "--task", "Copy", "--method", "ment", "--tau", "0", "--config", str(path)])
    stem = make_spec(TaskId.COPY, "ment", 0.0, profile="desk", max_steps=1).stem()
    assert sorted(os.listdir(tmp_path)) == ["conf", "from_file"]
    assert sorted(os.listdir(tmp_path / "from_file")) == [f"{stem}.ckpt", f"{stem}.jsonl"]


def test_cli_trace_runs(capsys):
    from urex.harness.cli import main

    main(["trace", "--task", "BinarySearch", "--seed", "3", "--strategy", "linear"])
    out = capsys.readouterr().out
    assert "R0" in out and "CMP" in out


def test_cli_trace_into_a_reader_that_closed_ends_without_a_traceback():
    """As ``urex trace --task copy | head -3`` does when head exits first."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.Popen([sys.executable, "-m", "urex.harness.cli", "trace", "--task", "copy"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    proc.stdout.close()  # before the command has written anything
    err = proc.communicate(timeout=120)[1]
    assert proc.returncode == 1 and err == ""


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


def test_cli_qlearn_run_writes_its_online_nets_checkpoint(tmp_path, capsys):
    from urex.harness.cli import main
    from urex.policy import load_policy

    main(["run", "--task", "Copy", "--method", "qlearn", "--tau", "0.0", "--steps", "5",
          "--profile", "desk", "--out", str(tmp_path)])
    (ckpt,) = [f for f in os.listdir(tmp_path) if f.endswith(".ckpt")]
    trained = run_trial(make_spec(TaskId.COPY, "qlearn", 0.0, profile="desk", max_steps=5))
    loaded = load_policy(tmp_path / ckpt)
    assert np.array_equal(loaded.params.flat, trained.policy.params.flat)


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
    cfg = BanditExperimentConfig(num_actions=50, dim=5, beta=2.0, repeats=2, restarts=1, steps=20)
    assert csv == run_bandit_experiment(cfg).to_csv()


def test_bandit_runs_record_every_tenth_step_and_the_last():
    cfg = BanditExperimentConfig(num_actions=20, dim=4, steps=95)
    assert cfg.record_steps() == [10, 20, 30, 40, 50, 60, 70, 80, 90, 95]
    env = BanditEnv(0, num_actions=cfg.num_actions, dim=cfg.dim)
    env.reset()
    trace = train_bandit_policy(env, "urex", 0.1, 0.01, cfg, restart_seed=0)
    assert trace.shape == (len(cfg.record_steps()),)


def test_cli_generalize_and_trace_take_their_options_from_a_config_file(tmp_path, capsys,
                                                                        monkeypatch):
    from urex.harness import cli

    def printed(argv, conf=None):
        if conf is not None:
            path = tmp_path / "options.conf"
            path.write_text(conf)
            argv = [*argv, "--config", str(path)]
        cli.main([*argv, "--out", str(tmp_path)])
        return capsys.readouterr().out

    sweeps = []
    sweep = cli.generalization_sweep
    monkeypatch.setattr(cli, "generalization_sweep",
                        lambda *args, **kw: sweeps.append(kw) or sweep(*args, **kw))
    generalize = ["generalize", "--checkpoint", "oracle", "--task", "Copy"]
    by_flags = printed([*generalize, "--max-len", "30", "--episodes", "2", "--seed", "5"])
    by_file = printed(generalize, "max_len = 30\nepisodes = 2\nseed = 5\n")
    assert by_file == by_flags == "length,correct,episodes\n30,2,2\nmax,30,\n\n"
    assert sweeps == [dict(lengths=[30], episodes_per_length=2, seed=5)] * 2

    trace = ["trace", "--task", "BinarySearch"]
    by_flags = printed([*trace, "--seed", "3", "--strategy", "linear"])
    assert printed(trace, "seed = 3\nstrategy = linear\n") == by_flags
    assert printed(trace) != by_flags  # seed 0 and binary search


def test_cli_run_names_its_files_by_the_spec_given_only_the_required_flags(tmp_path, capsys):
    from urex.harness.cli import main

    main(["run", "--task", "Copy", "--method", "urex", "--tau", "0.1", "--steps", "1",
          "--out", str(tmp_path)])
    stem = make_spec(TaskId.COPY, "urex", 0.1, max_steps=1).stem()
    assert sorted(os.listdir(tmp_path)) == [f"{stem}.ckpt", f"{stem}.jsonl"]


def test_cli_run_takes_a_zero_step_budget_as_the_profiles(tmp_path, monkeypatch):
    spec = _run_spec(monkeypatch, ["run", "--task", "Copy", "--method", "ment", "--tau", "0.0",
                                   "--steps", "0", "--profile", "desk", "--out", str(tmp_path)])
    assert spec == make_spec(TaskId.COPY, "ment", 0.0, profile="desk")
