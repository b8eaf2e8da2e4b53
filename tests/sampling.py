"""One sampled episode of a recurrent policy, for tests that need a trajectory."""

import numpy as np


def sample_trajectory(policy, env, rng_seed: int):
    """Sample one episode; deterministic in (params, env latent, rng_seed)."""
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    trajs, _ = policy.rollout([env], rng=rng)
    return trajs[0]
