"""Tests of the benchmark's own helpers: span self times, percentiles,
digests, entry-point wrapping and the run's refusal outside a checkout."""

import math
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import common
import layers
import run
import tracer
from conftest import BENCH


# -- self time from a span tree --------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    #  0 root [0, 10]
    #  1   a  [1, 4]
    #  2   b  [5, 9]
    #  3     c [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert tracer.self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_contexts_follow_the_nearest_marker():
    # codes: 0 eval, 1 rollout, 2 teacher-forced check, 3 replay, 4 step
    codes = [4, 0, 1, 2, 3, 1, 4]
    parent = [-1, -1, 1, 2, 3, 0, -1]
    ctx = tracer.contexts(codes, parent, [0, 2])
    assert ctx.tolist() == [-1, 0, 0, 1, 1, -1, -1]
    assert tracer.contexts(codes, parent, [9]).tolist() == [-1] * 7


# -- percentile with the sample-count rule ---------------------------------------------
def test_p90_needs_one_hundred_samples():
    samples = list(range(100))
    assert common.percentile(samples, 90) == pytest.approx(np.percentile(samples, 90))
    with pytest.raises(common.InsufficientSamples):
        common.percentile(samples[:99], 90)


def test_median_needs_twenty_samples():
    assert common.percentile(list(range(20)), 50) == pytest.approx(9.5)
    with pytest.raises(common.InsufficientSamples):
        common.percentile(list(range(19)), 50)


# -- digests ---------------------------------------------------------------------------------
def test_digest_sees_every_bit_and_the_shape():
    a = np.linspace(0.0, 1.0, 7)
    assert common.digest([a]) == common.digest([a.copy()])
    b = a.copy()
    b[3] = np.nextafter(b[3], 2.0)
    assert common.digest([b]) != common.digest([a])
    assert common.digest([a[:6], a[6:]]) != common.digest([a])


def test_compare_digests_names_each_differing_run():
    assert common.compare_digests(["x", "x", "x"]) == []
    problems = common.compare_digests(["x", "x", "y", "x", "z"])
    assert [p.split()[1] for p in problems] == ["2", "4"]
    assert common.compare_digests([]) == ["no digests to compare"]


def test_environments_with_other_blas_threads_are_not_comparable():
    env = {k: 1 for k in common.COMPARABLE_FIELDS}
    assert common.incomparable(env, dict(env)) == []
    other = dict(env, blas_threads=2)
    assert common.incomparable(env, other) == ["blas_threads: 1 vs 2"]


# -- wrapping entry points ------------------------------------------------------------
@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    class Thing:
        def method(self, x):
            return mod.outer(x)

    mod.inner, mod.outer, mod.Thing = inner, outer, Thing
    pkg.inner = inner  # a re-export: a second binding of the same function
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.mod", mod)
    return pkg, mod


def test_tracer_wraps_every_binding_and_restores_them(fake_package):
    pkg, mod = fake_package
    original_inner, original_method = mod.inner, mod.Thing.__dict__["method"]
    points = {"x.method": ["fakepkg.mod:Thing.method"], "x.outer": ["fakepkg.mod:outer"],
              "x.inner": ["fakepkg.mod:inner"]}
    tr = tracer.Tracer(update_span="x.method")
    with tr.installed(points, package="fakepkg"):
        assert pkg.inner is not original_inner and mod.inner is not original_inner
        assert mod.Thing().method(1) == 4
        assert pkg.inner(1) == 2
    assert pkg.inner is original_inner and mod.inner is original_inner
    assert mod.Thing.__dict__["method"] is original_method
    spans = tr.arrays()
    names = spans["names"][spans["name"]].tolist()
    assert names == ["x.method", "x.outer", "x.inner", "x.inner"]
    assert spans["parent"].tolist() == [-1, 0, 1, -1]
    assert spans["update"].tolist() == [1, 1, 1, 1]
    own = tracer.self_times(spans["start"], spans["end"], spans["parent"])
    assert np.all(own >= 0)
    assert own[:3].sum() == pytest.approx(spans["end"][0] - spans["start"][0])


def test_missing_entry_point_fails_loudly_and_patches_nothing(fake_package):
    _, mod = fake_package
    original = mod.inner
    points = {"x.inner": ["fakepkg.mod:inner"], "x.gone": ["fakepkg.mod:gone"]}
    with pytest.raises(tracer.MissingEntryPoint, match="gone"):
        with tracer.Tracer("x.inner").installed(points, package="fakepkg"):
            pass
    assert mod.inner is original
    with pytest.raises(tracer.MissingEntryPoint, match="not defined on Thing"):
        tracer.resolve("fakepkg.mod:Thing.gone")
    with pytest.raises(tracer.MissingEntryPoint, match="not importable"):
        tracer.resolve("fakepkg.nowhere:inner")


def test_every_library_entry_point_exists():
    for targets in tracer.ENTRY_POINTS.values():
        for target in targets:
            assert tracer.bindings(target), target


def test_each_workload_update_is_a_traced_entry_point():
    from workloads import WORKLOADS

    spans = {name: tracer.entry_point_name(*w.update_binding) for name, w in WORKLOADS.items()}
    assert spans == {"desk": "trainers.step", "full": "trainers.step",
                     "qlearn": "trainers.q_update", "bandit": "harness.train_bandit_policy"}
    with pytest.raises(tracer.MissingEntryPoint):
        tracer.entry_point_name(common, "percentile")


def test_traced_trial_passes_its_checks_and_reports_every_layer_metric():
    from urex.envs import TaskId
    from urex.harness import make_spec, run_trial

    spec = make_spec(TaskId.COPY, "urex", 0.1, eta=0.1, clip=1.0, restart_seed=3,
                     profile="desk", n=3, k=2, hidden_size=8, max_steps=4, eval_every=2,
                     eval_episodes=3, success_rule="threshold", success_threshold=math.inf)
    plain = run_trial(spec).reward_curve
    tr = tracer.Tracer("trainers.step")
    checks = layers.OutputChecks(tr)
    tr.hooks.update(checks.hooks())
    with tr.installed():
        traced = run_trial(spec).reward_curve
    assert traced == plain
    assert checks.problems == [] and checks.batches == 4
    metrics = layers.layer_metrics(tr.arrays(), 4, 1.0, checks)
    for name in run.metric_units(trace=True):
        if name not in ("traced_run_wall_s", "trace_overhead"):
            assert math.isfinite(metrics[name]), name
    assert metrics["trainers.coefficient_calls"] == 3  # one per group, N per step
    assert metrics["harness.eval_calls"] == 0.5
    assert metrics["curriculum.record_calls"] == 6


def test_log_prob_mismatch_is_reported():
    checks = layers.OutputChecks(tracer.Tracer("none"))
    checks._check_logprobs([0.0, -1.0], [0.0, -1.0 + 1e-6])
    assert len(checks.problems) == 1


# -- the command -------------------------------------------------------------------------
def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
