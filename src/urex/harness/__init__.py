"""Experiment orchestration: trials, grids, sweeps, traces, CLI."""

from .bandit_exp import (BanditExperimentConfig, BanditExperimentResult,
                         run_bandit_experiment, train_bandit_policy)
from .generalize import PROBE_LENGTHS, GeneralizationRecord, generalization_sweep
from .grid import GridResult, run_grid
from .profiles import (CLIPS, DESK, ETAS, FULL, FULL_MAX_STEPS, PROFILES,
                       RESTARTS, Profile, TrialSpec, make_spec)
from .trace import render_trace
from .trial import TrialResult, evaluate_greedy, run_trial
