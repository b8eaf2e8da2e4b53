"""Exhaustive estimator expectations on an enumerable single-step task.

With three actions and two samples per group, every (a1, a2) pair can be
enumerated, so the expectation of the stochastic coefficient-weighted
gradient is computable exactly through the production gradient and
importance weights, and can be compared against directly-evaluated
formulas that never touch them.  The coefficients are taken without the
group-mean baseline, whose small finite-K bias would obscure the
comparison; the last test measures that bias.
"""

import itertools

import numpy as np

from urex.policy import LinearBanditPolicy
from urex.trainers import importance_weights, ment_coefficients
from urex.types import Trajectory, TrajectoryBatch

from fixed_latents import FixedBanditEnv

REWARDS = np.array([0.9, 0.4, 0.1])
TAU = 0.2


def tabular_setup(theta):
    env = FixedBanditEnv(0, payoffs=REWARDS, features=np.eye(3))
    env.reset()
    pol = LinearBanditPolicy(3)
    pol.params.flat[:] = theta
    return env, pol


def traj_for(env, pol, arm):
    logp = pol.log_probs(env)
    return Trajectory(observations=[0], actions=[(arm,)], rewards=[REWARDS[arm]],
                      total_reward=float(REWARDS[arm]), log_prob=float(logp[arm]))


def estimator_expectation(method, theta):
    """E over all K=2 tuples of the production estimator."""
    env, pol = tabular_setup(theta)
    probs = pol.probs(env)
    total = np.zeros(3)
    for a1, a2 in itertools.product(range(3), repeat=2):
        trajs = [traj_for(env, pol, a1), traj_for(env, pol, a2)]
        rewards = np.array([t.total_reward for t in trajs])
        logps = np.array([t.log_prob for t in trajs])
        if method == "ment":
            coeffs = (rewards - TAU * logps - TAU) / len(rewards)
        else:
            coeffs = rewards / len(rewards) + TAU * importance_weights(rewards, logps, TAU)
        grad = pol.weighted_grad(TrajectoryBatch.from_trajectories(trajs), coeffs, env)
        total += probs[a1] * probs[a2] * grad
    return total


def softmax(z):
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def test_ment_estimator_expectation_matches_exact_gradient():
    rng = np.random.default_rng(0)
    for _ in range(5):
        theta = rng.normal(size=3)
        pi = softmax(theta)
        score = np.eye(3) - pi  # score[a] = d log pi(a) / d theta
        bracket = REWARDS - TAU * np.log(pi) - TAU
        exact = (pi * bracket) @ score
        est = estimator_expectation("ment", theta)
        assert np.abs(est - exact).max() <= 1e-8


def test_urex_estimator_expectation_matches_enumerated_surrogate():
    rng = np.random.default_rng(1)
    for _ in range(5):
        theta = rng.normal(size=3)
        pi = softmax(theta)
        score = np.eye(3) - pi
        # expected-reward part is exact
        reward_part = (pi * REWARDS) @ score
        # importance-weighted part enumerated with constant-weight semantics
        log_w = REWARDS / TAU - np.log(pi)
        tau_part = np.zeros(3)
        for a1, a2 in itertools.product(range(3), repeat=2):
            m = max(log_w[a1], log_w[a2])
            w1, w2 = np.exp(log_w[a1] - m), np.exp(log_w[a2] - m)
            z = w1 + w2
            contrib = TAU * (w1 / z * score[a1] + w2 / z * score[a2])
            tau_part += pi[a1] * pi[a2] * contrib
        est = estimator_expectation("urex", theta)
        assert np.abs(est - (reward_part + tau_part)).max() <= 1e-8


def test_centered_estimator_keeps_direction_but_shrinks():
    # the group-mean baseline scales the reward term by (K-1)/K; with K=2
    # the uncentered and centered expectations differ by exactly half of
    # the reward part, which documents why the exactness test disables it
    theta = np.array([0.3, -0.2, 0.1])
    env, pol = tabular_setup(theta)
    probs = pol.probs(env)
    cent = np.zeros(3)
    for a1, a2 in itertools.product(range(3), repeat=2):
        trajs = [traj_for(env, pol, a1), traj_for(env, pol, a2)]
        rewards = [t.total_reward for t in trajs]
        logps = [t.log_prob for t in trajs]
        coeffs = ment_coefficients(rewards, logps, 0.0)
        batch = TrajectoryBatch.from_trajectories(trajs)
        cent += probs[a1] * probs[a2] * pol.weighted_grad(batch, coeffs, env)
    pi = softmax(theta)
    score = np.eye(3) - pi
    exact = (pi * REWARDS) @ score
    assert np.allclose(cent, 0.5 * exact, atol=1e-10)
