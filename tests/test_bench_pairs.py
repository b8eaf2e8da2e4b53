"""The pair summary of ``tools/bench_pairs.py`` on synthetic pairs."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def pairs_of(parent, change, name):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


def test_lower_is_better_summary():
    # parent 10, 11, 12, 13, 14: median 12, q1 11, q3 13; change ties pair 2
    pairs = pairs_of([10, 11, 12, 13, 14], [9, 11, 10, 14, 11], "step_ms_p50")
    s = bench_pairs.summarize(pairs, {"step_ms_p50": ("lower", 0.25)})["step_ms_p50"]
    assert s["parent"] == {"median": 12, "q1": 11, "q3": 13}
    assert s["change"] == {"median": 11, "q1": 10, "q3": 11}
    assert s["change_better_in"] == "3/5"  # the tie and the slower pair count for neither
    assert s["median_change"] == "-8.3%"
    assert s["parent_iqr"] == 2
    assert s["bound"] == 0.25 and s["worse_than_bound"] is False


def test_higher_is_better_and_the_bound():
    pairs = pairs_of([100.0, 100.0, 100.0, 100.0], [74.0, 80.0, 70.0, 76.0], "steps")
    s = bench_pairs.summarize(pairs, {"steps": ("higher", 0.25)})["steps"]
    assert s["change_better_in"] == "0/4"
    assert s["median_change"] == "-25.0%"
    assert s["parent_iqr"] == 0
    assert s["worse_than_bound"] is False  # exactly at the bound is not beyond it
    pairs[1]["change"]["steps"] = 70.0  # median 72: 28% fewer
    s = bench_pairs.summarize(pairs, {"steps": ("higher", 0.25)})["steps"]
    assert s["median_change"] == "-28.0%" and s["worse_than_bound"] is True


def test_a_slower_median_beyond_a_lower_is_better_bound():
    pairs = pairs_of([1.0, 1.0], [1.2, 1.4], "peak_rss_mb")
    s = bench_pairs.summarize(pairs, {"peak_rss_mb": ("lower", 0.1)})["peak_rss_mb"]
    assert s["change"]["median"] == pytest.approx(1.3)
    assert s["median_change"] == "+30.0%" and s["worse_than_bound"] is True


def test_paired_interval_of_two_pairs_spans_their_log_ratios():
    # a median of two resampled log-ratios is the lower one in 1/4 of the
    # resamples and the higher one in 1/4, so the 95% interval is both ends
    pairs = pairs_of([100.0, 100.0], [110.0, 120.0], "step_ms_p50")
    s = bench_pairs.summarize(pairs, {"step_ms_p50": ("lower", 0.25)})["step_ms_p50"]
    assert s["log_ratio_median"] == round(math.log(1.1 * 1.2) / 2, 4)
    assert s["log_ratio_ci95"] == [round(math.log(1.1), 4), round(math.log(1.2), 4)]
    assert s["paired_change"] == "+14.9% [+10.0%, +20.0%]"
    assert s["sign_test_p"] == 0.5  # 2 of 2 pairs slower: 2 * (1/2)^2
    assert s["moved"] is True and s["beyond_bound"] is False


def test_sign_test_and_a_rare_pair_left_out_of_the_interval():
    # nine pairs 20% faster and one 20% slower: a resample's median is the
    # faster ratio unless half of its 10 draws hit the slower pair (p < 0.2%)
    pairs = pairs_of([10.0] * 10, [8.0] * 9 + [12.0], "step_ms_p50")
    s = bench_pairs.summarize(pairs, {"step_ms_p50": ("lower", 0.25)})["step_ms_p50"]
    assert s["log_ratio_ci95"] == [round(math.log(0.8), 4)] * 2
    assert s["sign_test_p"] == round(2 * 11 / 2**10, 4)  # P(<= 1 of 10) twice
    assert s["change_better_in"] == "9/10" and s["moved"] is True
    assert s["beyond_bound"] is False  # moved, but the better way


def test_ties_leave_the_sign_test_and_an_unmoved_metric():
    pairs = pairs_of([1.0, 1.0, 1.0, 1.0], [1.0, 1.1, 0.9, 1.0], "peak_rss_mb")
    s = bench_pairs.summarize(pairs, {"peak_rss_mb": ("lower", 0.1)})["peak_rss_mb"]
    assert s["sign_test_p"] == 1.0  # one rise and one fall; the ties count for neither
    lo, hi = s["log_ratio_ci95"]
    assert lo < 0 < hi and s["moved"] is False and s["beyond_bound"] is False


def test_beyond_bound_needs_the_whole_interval_past_it():
    pairs = pairs_of([100.0] * 6, [70.0, 72.0, 69.0, 71.0, 70.0, 73.0], "train_steps_per_s")
    s = bench_pairs.summarize(pairs, {"train_steps_per_s": ("higher", 0.25)})["train_steps_per_s"]
    assert s["log_ratio_ci95"][1] < math.log(0.75) and s["beyond_bound"] is True
    pairs[0]["change"]["train_steps_per_s"] = 90.0
    pairs[1]["change"]["train_steps_per_s"] = 95.0
    pairs[2]["change"]["train_steps_per_s"] = 92.0
    s = bench_pairs.summarize(pairs, {"train_steps_per_s": ("higher", 0.25)})["train_steps_per_s"]
    assert s["moved"] is True and s["beyond_bound"] is False
