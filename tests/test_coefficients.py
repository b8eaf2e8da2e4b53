"""Importance weights and per-trajectory coefficient math."""

import math

import numpy as np
import pytest

from urex.trainers import (importance_weights, ment_coefficients,
                           urex_coefficients, weight_variance)


def test_degenerate_single_sample():
    w = importance_weights([3.0], [-1.0], tau=0.5)
    assert w.shape == (1,) and w[0] == 1.0


def test_uniform_on_ties():
    w = importance_weights([2.0] * 6, [-1.5] * 6, tau=0.3)
    assert np.allclose(w, 1.0 / 6.0, atol=1e-15)


def test_weights_sum_to_one_and_shift_invariance():
    rng = np.random.default_rng(1)
    for _ in range(200):
        k = int(rng.integers(1, 12))
        r = rng.normal(size=k)
        lp = -rng.exponential(size=k)
        tau = float(rng.uniform(0.01, 2.0))
        w = importance_weights(r, lp, tau)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.allclose(w, importance_weights(r + 7.3, lp, tau), atol=1e-12)
        assert np.allclose(w, importance_weights(r, lp - 2.9, tau), atol=1e-12)


def test_two_sample_softmax_case():
    # r = [1, 0], log pi = [log .5, log .5], tau = 0.1 -> softmax(10, 0)
    w = importance_weights([1.0, 0.0], [math.log(0.5)] * 2, tau=0.1)
    expect_hi = 1.0 / (1.0 + math.exp(-10.0))
    assert abs(w[0] - expect_hi) < 1e-9
    assert abs(w[1] - (1.0 - expect_hi)) < 1e-9


def test_urex_coefficients_hand_case():
    c = urex_coefficients([1.0, 0.0], [math.log(0.5)] * 2, tau=0.1)
    w_hi = 1.0 / (1.0 + math.exp(-10.0))
    assert abs(c[0] - (0.25 + 0.1 * w_hi)) < 1e-12
    assert abs(c[1] - (-0.25 + 0.1 * (1 - w_hi))) < 1e-12


def test_urex_degenerate_group():
    c = urex_coefficients([2.0] * 4, [-3.0] * 4, tau=0.4)
    assert np.allclose(c, 0.4 / 4.0, atol=1e-15)


def test_urex_reward_shift_invariance():
    r = np.array([1.0, 0.2, -0.5])
    lp = np.array([-1.0, -2.0, -0.3])
    a = urex_coefficients(r, lp, tau=0.2)
    b = urex_coefficients(r + 5.0, lp, tau=0.2)
    assert np.allclose(a, b, atol=1e-12)


def test_urex_group_scaling():
    r, lp = [1.0, 0.0], [-1.0, -1.0]
    one = urex_coefficients(r, lp, tau=0.1, num_groups=1)
    four = urex_coefficients(r, lp, tau=0.1, num_groups=4)
    assert np.allclose(one / 4.0, four)


def test_ment_hand_case():
    # raw = r - tau*logp - tau = (2.0, 0.2); centered and halved
    c = ment_coefficients([2.0, 0.0], [-1.0, -3.0], tau=0.1, num_groups=1)
    assert np.allclose(c, [0.45, -0.45], atol=1e-12)


def test_ment_tau_zero_is_centered_reinforce():
    rng = np.random.default_rng(2)
    r = rng.normal(size=10)
    lp = -rng.exponential(size=10)
    c = ment_coefficients(r, lp, tau=0.0, num_groups=3)
    expect = (r - r.mean()) / (3 * 10)
    assert np.allclose(c, expect, atol=1e-15)


def test_ment_identical_trajectories_zero():
    c = ment_coefficients([1.5] * 5, [-2.0] * 5, tau=0.7)
    assert np.allclose(c, 0.0, atol=1e-15)


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        importance_weights([np.nan, 1.0], [-1.0, -1.0], tau=0.1)
    with pytest.raises(ValueError):
        ment_coefficients([1.0, np.inf], [-1.0, -1.0], tau=0.1)
    with pytest.raises(ValueError):
        importance_weights([1.0], [-1.0], tau=0.0)


def test_weight_variance_values():
    assert weight_variance([0.25] * 4) == 0.0
    one_hot = np.zeros(10)
    one_hot[3] = 1.0
    # (1/K) * [ (1-1/K)^2 + (K-1)(1/K)^2 ] = 0.09 for K = 10
    assert abs(weight_variance(one_hot) - 0.09) < 1e-15
    rng = np.random.default_rng(3)
    for k in (2, 5, 10, 33):
        w = rng.dirichlet(np.ones(k))
        v = weight_variance(w)
        hot = np.zeros(k)
        hot[0] = 1.0
        assert 0.0 <= v <= weight_variance(hot) + 1e-15


@pytest.mark.parametrize("k", [2, 7, 10, 33])
@pytest.mark.parametrize("fn", [
    lambda r, lp: importance_weights(r, lp, 0.1),
    lambda r, lp: urex_coefficients(r, lp, 0.1, num_groups=20),
    lambda r, lp: ment_coefficients(r, lp, 0.01, num_groups=20),
    lambda r, lp: weight_variance(importance_weights(r, lp, 0.5)),
], ids=["importance_weights", "urex", "ment", "weight_variance"])
def test_group_axis_matches_per_group_calls(fn, k):
    # one (N, K) call gives each group's 1-D result bit for bit
    rng = np.random.default_rng(k)
    rewards = rng.normal(size=(20, k)).round(1)
    log_probs = -rng.exponential(scale=5.0, size=(20, k))
    per_group = [fn(r, lp) for r, lp in zip(rewards, log_probs)]
    assert np.array_equal(fn(rewards, log_probs), per_group)
