"""The linear bandit policy's sampling against a plain specification, bit
for bit.

The specification draws the arms as the policy does, then plays each arm
in its own episode: one clone of the env, restarted and stepped once per
arm, one ``Trajectory`` per step, and ``TrajectoryBatch.from_trajectories``
over them.  The policy under test builds its batch from arrays and
never steps the env; every field, every gradient and every materialised
``Trajectory`` must equal the specification's exactly.
"""

from dataclasses import fields

import numpy as np
import pytest

from urex.envs import BanditEnv, EpisodeError
from urex.policy import LinearBanditPolicy
from urex.types import Trajectory, TrajectoryBatch

CASES = [(seed, k) for seed in range(3) for k in (1, 10)]


def spec_sample(pol, env, rng, k):
    env.restart()
    logp = pol.log_probs(env)
    cdf = np.cumsum(np.exp(logp))
    arms = np.minimum(np.searchsorted(cdf, rng.random(k), side="right"), len(cdf) - 1)
    episode = env.clone()
    trajs = []
    for arm, arm_logp in zip(arms.tolist(), logp[arms].tolist()):
        episode.restart()
        res = episode.step(arm)
        trajs.append(Trajectory(observations=[0], actions=[(arm,)], rewards=[res.reward],
                                total_reward=res.reward, log_prob=arm_logp,
                                env_seed=env.seed, max_total_reward=env.max_total_reward(),
                                cause=res.cause))
    return trajs


def make_bandits(seed, groups):
    pol = LinearBanditPolicy(30)
    pol.init_params(np.random.Generator(np.random.PCG64(seed)), scale=0.5)
    envs = []
    for g in range(groups):
        env = BanditEnv(100 * seed + g, num_actions=1000, dim=30)
        env.reset()
        envs.append(env)
    return pol, envs


def same_field(a, b):
    if a.dtype == object:
        return b.dtype == object and a.shape == b.shape and all(
            type(x) is type(y) and x == y for x, y in zip(a.tolist(), b.tolist()))
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed,k", CASES)
def test_collect_matches_the_specification(seed, k):
    pol, (env,) = make_bandits(seed, 1)
    batch, grad_fn = pol.collect([env], k, np.random.Generator(np.random.PCG64(seed)))
    spec = TrajectoryBatch.from_trajectories(
        spec_sample(pol, env, np.random.Generator(np.random.PCG64(seed)), k))
    for f in fields(TrajectoryBatch):
        assert same_field(getattr(batch, f.name), getattr(spec, f.name)), f.name

    coeffs = np.random.Generator(np.random.PCG64(50 + seed)).normal(size=k)
    assert grad_fn(coeffs).tobytes() == pol.weighted_grad(spec, coeffs, env).tobytes()


@pytest.mark.parametrize("groups", [0, 2, 3])
def test_collect_refuses_any_number_of_instances_but_one(groups):
    pol, envs = make_bandits(0, groups)
    with pytest.raises(ValueError, match=f"one bandit instance, got {groups}"):
        pol.collect(envs, 10, np.random.Generator(np.random.PCG64(0)))


@pytest.mark.parametrize("seed,k", CASES)
def test_sampled_batch_iterates_as_the_specification(seed, k):
    pol, (env,) = make_bandits(seed, 1)
    batch = pol.sample(env, np.random.Generator(np.random.PCG64(seed)), k)
    spec = spec_sample(pol, env, np.random.Generator(np.random.PCG64(seed)), k)
    assert len(batch) == k
    assert list(batch) == spec
    assert [batch[b] for b in range(k)] == spec


def test_sampling_an_unreset_env_raises():
    pol = LinearBanditPolicy(30)
    with pytest.raises(EpisodeError):
        pol.sample(BanditEnv(0, num_actions=10), np.random.Generator(np.random.PCG64(0)))
