"""Deterministic policy-gradient training library for algorithmic tasks.

Exploration is driven by self-normalized importance weights that boost
action sequences whose log-probability under-estimates their reward,
alongside an entropy-regularized REINFORCE baseline and a one-step
double Q-learning baseline, all on the same recurrent policy network.
"""

from . import analysis, curriculum, envs, harness, policy, trainers
from .types import Trajectory

__all__ = [
    "analysis",
    "curriculum",
    "envs",
    "harness",
    "policy",
    "trainers",
    "Trajectory",
]

__version__ = "0.1.0"
