"""Non-finite values surface as diagnostics, not silent corruption."""

import warnings

import numpy as np
import pytest

from urex.envs import TaskId, draw_latents, make_env
from urex.policy import PolicyDivergence, policy_for_env
from urex.types import TrajectoryBatch

from sampling import sample_trajectory


def test_nan_logits_abort_rollout():
    env = make_env(TaskId.COPY, 1, (3, 3))
    env.reset()
    pol = policy_for_env(env, hidden_size=4)
    pol.params.view("lstm_wx")[:] = np.nan
    with pytest.raises(PolicyDivergence):
        sample_trajectory(pol, env.clone(), 0)


@pytest.mark.parametrize("segment", ["lstm_wx", "lstm_b"])
def test_nan_cell_weights_abort_a_batch_that_shares_first_observations(segment):
    envs = draw_latents(TaskId.COPY, list(range(4)), [(3, 5)] * 4).repeat(10)
    pol = policy_for_env(envs[0], hidden_size=8)
    pol.init_params(np.random.Generator(np.random.PCG64(0)))
    pol.params.view(segment)[:] = np.nan
    with pytest.raises(PolicyDivergence, match="forward pass"):
        pol.rollout(envs, rng=np.random.Generator(np.random.PCG64(1)))


def test_nonfinite_gradient_names_segment():
    env = make_env(TaskId.COPY, 2, (3, 3))
    env.reset()
    pol = policy_for_env(env, hidden_size=4)
    pol.init_params(np.random.Generator(np.random.PCG64(0)))
    traj = sample_trajectory(pol, env.clone(), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf math precedes the raise
        with pytest.raises(PolicyDivergence, match="head_|lstm_"):
            pol.weighted_grad(TrajectoryBatch.from_trajectories([traj]), [np.inf])
