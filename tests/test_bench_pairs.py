"""The pair summary of ``tools/bench_pairs.py`` on synthetic pairs."""

import importlib.util
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
