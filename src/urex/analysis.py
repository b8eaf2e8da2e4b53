"""Closed-form and brute-force verification tools for the training
objectives on small enumerable action sets.

Everything here treats one latent state with an explicit reward vector,
so objectives, optimal policies and identities can be evaluated exactly
and compared against the stochastic estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALPHA_TOL, ALPHA_MAX_ITER = 1e-13, 200  # optimal_policy_urex's bisection for alpha


@dataclass
class SmallProblem:
    """Reward vector over an enumerable action set plus a temperature."""

    rewards: np.ndarray
    tau: float

    def __post_init__(self):
        self.rewards = np.asarray(self.rewards, dtype=float)
        if self.rewards.size < 1 or not np.all(np.isfinite(self.rewards)):
            raise ValueError("rewards must be a non-empty finite vector")
        if self.tau <= 0:
            raise ValueError("tau must be positive")


@dataclass
class AlphaSolution:
    """Normalizing multiplier and the induced policy for the combined objective."""

    alpha: float
    policy: np.ndarray

    def __post_init__(self):
        assert np.all(self.policy > 0)
        assert abs(self.policy.sum() - 1.0) < 1e-12


PROB_FLOOR = 1e-300  # probabilities are never materialized below this


def optimal_policy_rl(p: SmallProblem) -> np.ndarray:
    """softmax(r / tau): the maximizer of the entropy-regularized expected reward.

    Entries that underflow double precision are floored at ``PROB_FLOOR``
    and renormalized, keeping the policy strictly positive; exact cases
    (ties, moderate temperature) are untouched.
    """
    z = p.rewards / p.tau
    z = z - z.max()
    w = np.exp(z)
    pi = w / w.sum()
    if pi.min() < PROB_FLOOR:
        pi = np.maximum(pi, PROB_FLOOR)
        pi = pi / pi.sum()
    return pi


def entropy_regularized_return(p: SmallProblem, policy) -> float:
    """Expected reward plus tau times entropy for one latent state."""
    policy = np.asarray(policy, dtype=float)
    return float(np.sum(policy * (p.rewards - p.tau * np.log(policy))))


def optimal_policy_urex(p: SmallProblem) -> AlphaSolution:
    """Solve for the maximizer of the combined objective.

    The optimum has the form ``tau * pi_star / (alpha - r)`` with the
    multiplier alpha above max(r) chosen so the policy normalizes.  The
    normalization sum is strictly decreasing in alpha, diverges as alpha
    approaches max(r) and is provably <= 1 at ``max(r) + tau``, so
    bisection on that bracket always converges.
    """
    r = p.rewards
    tau = p.tau
    pstar = optimal_policy_rl(p)
    rmax = float(r.max())

    def total(alpha: float) -> float:
        return float(np.sum(tau * pstar / (alpha - r)))

    lo = rmax  # sum diverges here; never evaluated
    hi = rmax + tau
    while total(hi) > 1.0:  # safety net; cannot trigger for a true softmax pstar
        hi = rmax + 2.0 * (hi - rmax)
    for _ in range(ALPHA_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval collapsed to adjacent floats
            break
        if total(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if abs(total(hi) - 1.0) <= ALPHA_TOL:
            break
    alpha = hi
    if abs(total(alpha) - 1.0) > 1e-10:
        raise ArithmeticError(f"normalization residual {total(alpha) - 1.0:g} too large")
    assert alpha > rmax
    policy = tau * pstar / (alpha - r)
    policy = policy / policy.sum()
    return AlphaSolution(alpha=alpha, policy=policy)


def urex_objective(p: SmallProblem, policy) -> float:
    """Expected reward plus tau-weighted cross-entropy against softmax(r / tau)."""
    policy = np.asarray(policy, dtype=float)
    if np.any(policy <= 0):
        raise ValueError("policy must be strictly positive")
    pstar = optimal_policy_rl(p)
    return float(np.sum(policy * p.rewards + p.tau * pstar * np.log(policy)))


def kl_divergence(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.sum(a * (np.log(a) - np.log(b))))


def kl_identity_gap(p: SmallProblem, policy_a, policy_b) -> float:
    """Difference-form check that the regularized return is -tau * KL to
    softmax(r / tau) up to a policy-independent constant.

    Returns ``|[O(a) - O(b)] - (-tau)[KL(a||pi*) - KL(b||pi*)]|``; the
    difference cancels the constant, so the gap should vanish.
    """
    pstar = optimal_policy_rl(p)
    obj_gap = entropy_regularized_return(p, policy_a) - entropy_regularized_return(p, policy_b)
    kl_gap = kl_divergence(policy_a, pstar) - kl_divergence(policy_b, pstar)
    return abs(obj_gap + p.tau * kl_gap)


def temperature_bounds(gamma: float, action_count: float) -> tuple[float, float]:
    """Largest useful temperatures for a gamma-dominant gradient coefficient.

    Returns ``(1 / (gamma * ln A), 1 / (ln gamma + ln A))``: the first
    applies to entropy-regularized REINFORCE, the second to the
    importance-weighted method, which tolerates far larger temperatures.
    """
    if gamma <= 1:
        raise ValueError("gamma must exceed 1")
    if action_count < 2:
        raise ValueError("need at least two actions")
    ment = 1.0 / (gamma * np.log(action_count))
    urex = 1.0 / (np.log(gamma) + np.log(action_count))
    return float(ment), float(urex)

