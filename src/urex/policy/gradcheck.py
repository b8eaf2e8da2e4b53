"""Central finite-difference oracle for the analytic gradients."""

from __future__ import annotations

import numpy as np

MAX_CHECK_PARAMS = 5000
EPSILON = 1e-5  # central-difference step


def finite_diff_check(policy, batch, coefficients, env=None) -> float:
    """Max relative error between analytic and central-difference gradients
    of ``sum_j coeff_j * log pi(trajectory_j)`` over a TrajectoryBatch.

    Perturbs every coordinate, so the parameter count must stay small.
    ``env`` is required for the linear bandit policy (features live there).
    Relative error is measured against a floor of 1e-3 times the gradient
    scale so near-zero coordinates do not dominate.
    """
    if policy.params.size > MAX_CHECK_PARAMS:
        raise ValueError(f"too many parameters to perturb ({policy.params.size})")

    features = () if env is None else (env,)
    analytic = policy.weighted_grad(batch, coefficients, *features)
    flat = policy.params.flat
    fd = np.zeros_like(flat)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + EPSILON
        up = policy.weighted_logprob(batch, coefficients, *features)
        flat[idx] = orig - EPSILON
        down = policy.weighted_logprob(batch, coefficients, *features)
        flat[idx] = orig
        fd[idx] = (up - down) / (2.0 * EPSILON)

    floor = 1e-3 * max(1.0, float(np.abs(fd).max()))
    denom = np.maximum(floor, np.maximum(np.abs(fd), np.abs(analytic)))
    return float((np.abs(analytic - fd) / denom).max())
