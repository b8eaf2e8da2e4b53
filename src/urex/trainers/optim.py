"""Gradient clipping and the Adam ascent step."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def clip_gradient(grad: np.ndarray, max_norm: float) -> np.ndarray:
    """Rescale ``grad`` to L2 norm ``max_norm`` if it exceeds it; idempotent."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = float(np.linalg.norm(grad))
    if norm <= max_norm:
        return grad
    return grad * (max_norm / norm)


@dataclass
class AdamState:
    """First/second moment accumulators for one parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def like(cls, params: np.ndarray, **kw) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), **kw)


def adam_update(params: np.ndarray, grad: np.ndarray, state: AdamState,
                learning_rate: float) -> np.ndarray:
    """One Adam step ascending the objective; returns the updated params.

    ``state`` is updated in place; ``params`` is not mutated.
    """
    state.t += 1
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grad
    scratch = (1.0 - state.beta2) * grad
    scratch *= grad
    state.v *= state.beta2
    state.v += scratch
    step = np.divide(state.m, 1.0 - state.beta1**state.t)  # m_hat
    step *= learning_rate
    denom = np.divide(state.v, 1.0 - state.beta2**state.t, out=scratch)  # v_hat
    np.sqrt(denom, out=denom)
    denom += state.eps
    step /= denom
    step += params
    return step
