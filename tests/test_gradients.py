"""Analytic gradients against the central finite-difference oracle."""

import numpy as np
import pytest

from urex.envs import TaskId, make_env
from urex.policy import LinearBanditPolicy, finite_diff_check, policy_for_env
from urex.types import TrajectoryBatch

from fixed_latents import FixedBanditEnv
from sampling import sample_trajectory


def test_recurrent_gradcheck_copy():
    rng = np.random.default_rng(0)
    for seed in range(5):
        env = make_env(TaskId.COPY, 50 + seed, (3, 3))
        env.reset()
        pol = policy_for_env(env, hidden_size=4)
        pol.init_params(np.random.Generator(np.random.PCG64(seed)))
        trajs = TrajectoryBatch.from_trajectories(
            sample_trajectory(pol, env.clone(), s) for s in range(3))
        coeffs = rng.normal(size=3)
        assert finite_diff_check(pol, trajs, coeffs) <= 1e-4


def test_recurrent_gradcheck_addition_grid():
    env = make_env(TaskId.REVERSED_ADDITION, 9, (3, 3))
    env.reset()
    pol = policy_for_env(env, hidden_size=4)
    pol.init_params(np.random.Generator(np.random.PCG64(1)))
    trajs = TrajectoryBatch.from_trajectories(
        sample_trajectory(pol, env.clone(), s) for s in range(2))
    assert finite_diff_check(pol, trajs, [1.0, -0.3]) <= 1e-4


def test_linear_gradcheck():
    rng = np.random.Generator(np.random.PCG64(2))
    env = FixedBanditEnv(0, payoffs=rng.random(50), features=rng.standard_normal((50, 30)))
    env.reset()
    pol = LinearBanditPolicy(30)
    pol.init_params(rng, scale=0.3)
    trajs = pol.sample(env, rng, k=6)
    coeffs = rng.normal(size=6)
    assert finite_diff_check(pol, trajs, coeffs, env=env) <= 1e-6


def test_zero_coefficients_zero_error():
    env = make_env(TaskId.COPY, 60, (3, 3))
    env.reset()
    pol = policy_for_env(env, hidden_size=4)
    pol.init_params(np.random.Generator(np.random.PCG64(3)))
    trajs = TrajectoryBatch.from_trajectories(
        sample_trajectory(pol, env.clone(), s) for s in range(2))
    assert finite_diff_check(pol, trajs, [0.0, 0.0]) == 0.0


def test_gradcheck_refuses_big_policies():
    env = make_env(TaskId.COPY, 61, (3, 3))
    env.reset()
    pol = policy_for_env(env, hidden_size=128)
    with pytest.raises(ValueError):
        finite_diff_check(pol, [], [])
