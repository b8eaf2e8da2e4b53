"""Non-finite values surface as diagnostics, not silent corruption."""

import warnings

import numpy as np
import pytest

from urex.envs import TaskId, make_env
from urex.policy import PolicyDivergence, policy_for_env, sample_trajectory


def test_nan_logits_abort_rollout():
    env = make_env(TaskId.COPY, 1, (3, 3))
    env.reset()
    pol = policy_for_env(env, hidden_size=4)
    pol.params.view("lstm_wx")[:] = np.nan
    with pytest.raises(PolicyDivergence):
        sample_trajectory(pol, env.clone(), 0)


def test_nonfinite_gradient_names_segment():
    env = make_env(TaskId.COPY, 2, (3, 3))
    env.reset()
    pol = policy_for_env(env, hidden_size=4)
    pol.init_params(np.random.Generator(np.random.PCG64(0)))
    traj = sample_trajectory(pol, env.clone(), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf math precedes the raise
        with pytest.raises(PolicyDivergence, match="head_|lstm_"):
            pol.weighted_grad([traj], [np.inf])
