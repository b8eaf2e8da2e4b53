"""Per-trajectory gradient coefficients for the two policy-gradient methods.

Both methods weight the score-function term of each sampled trajectory;
the weights differ:

* maximum-entropy REINFORCE: ``reward - tau * log_prob - tau``, centered
  within the sample group and scaled by 1/(N*K);
* under-appreciated reward exploration: ``r_hat / K + tau * w_hat`` scaled
  by 1/N, where ``r_hat`` is the group-mean-centered reward and ``w_hat``
  the self-normalized importance weights ``softmax(r / tau - log_prob)``
  (deliberately not mean-centered).

Every function takes one group as 1-D arrays of K values, or N groups at
once as (N, K) arrays, and works along the last axis; each row of an
(N, K) result equals the 1-D result for that group.
"""

from __future__ import annotations

import numpy as np


def _check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite {name}")


def importance_weights(rewards, log_probs, tau: float) -> np.ndarray:
    """Normalized weights softmax(r / tau - log pi), max-subtracted.

    Invariant under adding a constant to all rewards or to all log-probs;
    sums to 1.
    """
    if tau <= 0:
        raise ValueError("tau must be positive for importance weighting")
    rewards = np.asarray(rewards, dtype=float)
    log_probs = np.asarray(log_probs, dtype=float)
    _check_finite("rewards", rewards)
    _check_finite("log_probs", log_probs)
    z = rewards / tau - log_probs
    z -= z.max(axis=-1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=-1, keepdims=True)


def urex_coefficients(rewards, log_probs, tau: float, *,
                      num_groups: int = 1) -> np.ndarray:
    """Coefficients for groups of K trajectories, each sharing a latent state."""
    rewards = np.asarray(rewards, dtype=float)
    k = rewards.shape[-1]
    if k < 2:
        raise ValueError("reward centering needs K >= 2")
    r_hat = rewards - rewards.mean(axis=-1, keepdims=True)
    w_hat = importance_weights(rewards, log_probs, tau)
    return (r_hat / k + tau * w_hat) / num_groups


def ment_coefficients(rewards, log_probs, tau: float, *,
                      num_groups: int = 1) -> np.ndarray:
    """Entropy-regularized REINFORCE coefficients for groups of K trajectories.

    At tau=0 this is REINFORCE with a mean-reward baseline.
    """
    rewards = np.asarray(rewards, dtype=float)
    log_probs = np.asarray(log_probs, dtype=float)
    _check_finite("rewards", rewards)
    _check_finite("log_probs", log_probs)
    k = rewards.shape[-1]
    if k < 2:
        raise ValueError("centering needs K >= 2")
    raw = rewards - tau * log_probs - tau
    raw = raw - raw.mean(axis=-1, keepdims=True)
    return raw / (num_groups * k)


def weight_variance(weights):
    """Population variance of each group's normalized importance weights:
    a float for one group, an (N,) array for N groups."""
    var = np.var(np.asarray(weights, dtype=float), axis=-1)
    return float(var) if var.ndim == 0 else var
