"""Recurrent and linear policy behavior: log-probs, sampling, decoding."""

import copy
import dataclasses
import math
import os

import numpy as np
import pytest

from urex.envs import (TAPE_TASKS, Env, EpisodeError, TapeLatents, TaskId, draw_latents,
                       make_env)
from urex.policy import (LinearBanditPolicy, ParamVector, RecurrentPolicy, load_policy,
                         policy_for_env, save_checkpoint, save_policy)
from urex.trainers import DoubleQLearner, QConfig
from urex.types import TrajectoryBatch

from fixed_latents import FixedBanditEnv
from joint_action import JointActionView
from sampling import sample_trajectory
from test_forward_spec import split_heads


def make_copy_policy(hidden=8, seed=0, length=4):
    env = make_env(TaskId.COPY, 100 + length, (length, length))
    env.reset()
    pol = policy_for_env(env, hidden_size=hidden)
    pol.init_params(np.random.Generator(np.random.PCG64(seed)))
    return env, pol


def test_sampling_deterministic_in_seed():
    env, pol = make_copy_policy()
    a = sample_trajectory(pol, env.clone(), 7)
    b = sample_trajectory(pol, env.clone(), 7)
    c = sample_trajectory(pol, env.clone(), 8)
    assert a.actions == b.actions and a.rewards == b.rewards
    assert a.log_prob == b.log_prob
    assert c.actions != a.actions or c.log_prob != a.log_prob


def test_recomputed_log_prob_matches_sampled():
    env, pol = make_copy_policy(hidden=16)
    for seed in range(20):
        traj = sample_trajectory(pol, env.clone(), seed)
        batch = TrajectoryBatch.from_trajectories([traj])
        assert pol.replay(batch)[0][0] == pytest.approx(traj.log_prob, abs=1e-9)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_caches(rolled, replayed):
    assert len(rolled) == len(replayed)
    for a, b in zip(rolled, replayed):
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, list):
                assert len(x) == len(y) and all(map(same_bits, x, y)), f.name
            else:
                assert same_bits(x, y), f.name


@pytest.mark.parametrize("mode", [{}, {"greedy": True}, {"eps": 0.3}],
                         ids=["sampled", "greedy", "eps_greedy"])
def test_rollout_and_replay_give_identical_bits(mode):
    # Copy has three action heads; mixed input lengths and an untrained
    # policy end the episodes of one batch at different steps
    envs = [make_env(TaskId.COPY, seed, (2, 6)) for seed in range(12)]
    for env in envs:
        env.reset()
    pol = policy_for_env(envs[0], hidden_size=16)
    pol.init_params(np.random.Generator(np.random.PCG64(0)))
    trajs, rolled = pol.rollout(envs, rng=np.random.Generator(np.random.PCG64(1)),
                                collect=True, **mode)
    assert len({len(t.actions) for t in trajs}) > 1
    logp, replayed = pol.replay(trajs, collect=True)
    assert same_bits(logp, [t.log_prob for t in trajs])
    assert_same_caches(rolled, replayed)
    coeffs = np.linspace(-1.0, 1.0, len(trajs))
    assert same_bits(pol.grad_weighted_logprob(rolled, coeffs),
                     pol.grad_weighted_logprob(replayed, coeffs))


@pytest.mark.parametrize("task", TAPE_TASKS)
def test_tape_rollout_rows_match_scalar_env_replay(task):
    envs = [make_env(task, seed, (2, 6)) for seed in range(16)]
    for env in envs:
        env.reset()
    pol = policy_for_env(envs[0], hidden_size=8)
    pol.init_params(np.random.Generator(np.random.PCG64(2)))
    batch, _ = pol.rollout(envs, rng=np.random.Generator(np.random.PCG64(3)))
    assert len(batch) == len(envs)
    for env, traj in zip(envs, batch):
        clone = env.clone()
        obs = clone.restart()
        observations, rewards = [], []
        for action in traj.actions:
            observations.append(obs)
            res = clone.step(action)
            rewards.append(res.reward)
            obs = res.obs
        assert res.done and res.cause == traj.cause
        assert traj.observations == observations and traj.rewards == rewards
        assert same_bits(traj.total_reward, float(sum(rewards)))
        assert traj.max_total_reward == env.max_total_reward()
        assert traj.env_seed == env.seed


@pytest.mark.parametrize("task", [TaskId.COPY, TaskId.BINARY_SEARCH])
def test_rollout_on_env_never_reset_raises(task):
    env = make_env(task, 3)
    pol = policy_for_env(env, hidden_size=4)
    with pytest.raises(EpisodeError):
        pol.rollout([env], greedy=True)


def env_state(env):
    """Deep copy of an env's attributes, with its seed stream as its state."""
    env = getattr(env, "_env", env)  # Q-learning's joint-action view
    state = {k: v for k, v in vars(env).items() if k != "_stream"}
    return copy.deepcopy(state), env._stream.bit_generator.state


@pytest.mark.parametrize("kind", ["Copy", "BinarySearch", "Copy-joint"])
def test_rollout_leaves_its_envs_untouched(kind):
    task = TaskId.BINARY_SEARCH if kind == "BinarySearch" else TaskId.COPY
    env = make_env(task, 5)
    env.reset()
    if kind == "Copy-joint":
        env = JointActionView(env)
    pol = policy_for_env(env, hidden_size=4)
    pol.init_params(np.random.Generator(np.random.PCG64(0)))
    before = env_state(env)
    pol.rollout([env, env], greedy=True)
    assert env_state(env) == before


@pytest.mark.parametrize("task", TAPE_TASKS)
def test_collect_on_tape_envs_makes_no_clone(task, monkeypatch):
    latents = draw_latents(task, list(range(20)), [(2, 5)] * 20)
    pol = policy_for_env(latents[0], hidden_size=4)
    pol.init_params(np.random.Generator(np.random.PCG64(0)))
    built = []
    real_clone, real_getitem = Env.clone, TapeLatents.__getitem__
    monkeypatch.setattr(Env, "clone", lambda env: built.append(env) or real_clone(env))
    monkeypatch.setattr(TapeLatents, "__getitem__",
                        lambda self, b: built.append(b) or real_getitem(self, b))
    batch, _ = pol.collect(latents, 10, np.random.Generator(np.random.PCG64(1)))
    assert len(batch) == 200 and built == []


@pytest.mark.parametrize("mode", [{}, {"greedy": True}, {"eps": 0.3}],
                         ids=["sampled", "greedy", "eps_greedy"])
@pytest.mark.parametrize("task", TAPE_TASKS)
def test_row_stepper_and_array_stepper_give_the_same_bits(task, mode):
    """``rollout(list(latents))`` steps the envs row by row, and
    ``rollout(latents)`` on arrays; the batches and caches are the same."""
    latents = draw_latents(task, list(range(6)), [(2, 8)] * 6).repeat(3)
    pol = policy_for_env(latents[0], hidden_size=8)
    pol.init_params(np.random.Generator(np.random.PCG64(2)))
    runs = [pol.rollout(envs, rng=np.random.Generator(np.random.PCG64(3)), collect=True, **mode)
            for envs in (list(latents), latents)]
    (rows, rows_cache), (arrays, arrays_cache) = runs
    assert len(set(rows.lengths.tolist())) > 1
    assert_same_batches(rows, arrays)
    assert_same_caches(rows_cache, arrays_cache)


def assert_same_batches(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if x.dtype == object:
            assert x.tolist() == y.tolist(), f.name
        else:
            assert same_bits(x, y), f.name


@pytest.mark.parametrize("task", [TaskId.DUPLICATED_INPUT, TaskId.BINARY_SEARCH])
def test_rollout_over_references_matches_rollout_over_clones(task):
    envs = [make_env(task, seed, (2, 6) if task in TAPE_TASKS else (8, 16)) for seed in range(3)]
    for env in envs:
        env.reset()
    pol = policy_for_env(envs[0], hidden_size=8)
    pol.init_params(np.random.Generator(np.random.PCG64(2)))
    k = 5
    runs = []
    for batch_envs in ([env for env in envs for _ in range(k)],
                       [env.clone() for env in envs for _ in range(k)]):
        runs.append(pol.rollout(batch_envs, rng=np.random.Generator(np.random.PCG64(3)),
                                collect=True))
    (refs, refs_cache), (clones, clones_cache) = runs
    assert len(set(refs.lengths.tolist())) > 1
    assert_same_batches(refs, clones)
    assert_same_caches(refs_cache, clones_cache)


def test_replay_of_batch_and_of_its_trajectories_agree():
    envs = [make_env(TaskId.REVERSED_ADDITION, seed, (2, 5)) for seed in range(10)]
    for env in envs:
        env.reset()
    pol = policy_for_env(envs[0], hidden_size=8)
    pol.init_params(np.random.Generator(np.random.PCG64(4)))
    batch, _ = pol.rollout(envs, rng=np.random.Generator(np.random.PCG64(5)), eps=0.5)
    logp_batch, cache_batch = pol.replay(batch, collect=True)
    logp_list, cache_list = pol.replay(TrajectoryBatch.from_trajectories(batch), collect=True)
    assert same_bits(logp_batch, logp_list)
    assert_same_caches(cache_batch, cache_list)


def test_a_batch_of_no_trajectories_is_refused_by_name():
    with pytest.raises(ValueError, match="at least one trajectory, got none"):
        TrajectoryBatch.from_trajectories([])


def pcg(seed):
    return np.random.Generator(np.random.PCG64(seed))


def duplicated_input_latents(first_seed, count):
    seeds = list(range(first_seed, first_seed + count))
    return draw_latents(TaskId.DUPLICATED_INPUT, seeds, [(2, 33)] * count)


def test_kept_work_block_never_leaks_between_passes():
    """A full-scale collect (B = 400, H = 128), then a greedy rollout at
    B = 100 and a replay of another batch, which write over the policy's
    kept work block, then the first batch's gradient: batch and gradient
    equal those of a twin that ran the collect alone."""
    groups = duplicated_input_latents(0, 40)
    pol = policy_for_env(groups[0], hidden_size=128)
    pol.init_params(pcg(3))
    twin = pol.spawn_like()
    batch, grad_fn = pol.collect(groups, 10, pcg(1))
    others = duplicated_input_latents(40, 100)
    pol.rollout(others, greedy=True)
    other_batch, _ = pol.rollout(others, rng=pcg(2))
    pol.replay(other_batch, collect=True)
    coeffs = np.linspace(-1.0, 1.5, len(batch))
    grad = grad_fn(coeffs)
    twin_batch, twin_grad_fn = twin.collect(groups, 10, pcg(1))
    assert_same_batches(batch, twin_batch)
    assert same_bits(grad, twin_grad_fn(coeffs))


def test_kept_work_block_never_leaks_on_the_q_learning_path():
    """After a first train step moves the online net off the target: an
    online rollout, a target replay, a greedy online rollout at B = 100
    over the same work block, then the online backward.  The gradient
    equals that of a twin learner without the greedy rollout, and so does
    the next train step after both nets ran a larger batch."""
    env = make_env(TaskId.COPY, 5, (3, 6))
    env.reset()
    others = [JointActionView(e) for e in draw_latents(TaskId.COPY, list(range(100)),
                                                        [(2, 10)] * 100)]
    runs = []
    for interleave in (True, False):
        learner = DoubleQLearner(env, QConfig(hidden_size=32, seed=2))
        train_env = make_env(TaskId.COPY, 6, (3, 6))  # train_step resets it
        records = [learner.train_step(train_env)]
        batch, cache = learner.online.rollout([JointActionView(env)], rng=pcg(4), eps=0.5,
                                              collect=True)
        assert batch.lengths[0] > 2
        _, target_cache = learner.target.replay(batch, collect=True)
        if interleave:
            learner.online.rollout(others, greedy=True)
        grad = learner.online.backward(
            cache, lambda t, st: target_cache[t].logits - st.logits)
        assert np.any(grad != 0.0)
        if interleave:
            learner.online.rollout(others, greedy=True)
            learner.target.rollout(others, greedy=True)
        records.append(learner.train_step(train_env))
        runs.append((grad, records, learner.online.params.flat))
    (grad, records, params), (twin_grad, twin_records, twin_params) = runs
    assert same_bits(grad, twin_grad)
    assert records == twin_records and same_bits(params, twin_params)


@pytest.mark.parametrize("hidden, bound", [(32, 1500), (128, 5400)])
def test_bptt_cache_keeps_each_value_once(hidden, bound):
    """A full-scale batch (40 DuplicatedInput latents, K = 10): the cached
    arrays' bytes per row-step stay within the layout that keeps, of the
    cell, only c, the gates and g (5H floats) beside the one-hot input's
    columns and the heads' values.  Caching x, h_prev, c_prev, tanh(c)
    and h as well took 2,349 B at H = 32 and 8,493 B at H = 128."""
    groups = duplicated_input_latents(0, 40)
    pol = policy_for_env(groups[0], hidden_size=hidden)
    pol.init_params(pcg(3))
    _, cache = pol.rollout(groups.repeat(10), rng=pcg(1), collect=True)
    cached = sum(a.nbytes for st in cache for a in vars(st).values()
                 if isinstance(a, np.ndarray))
    row_steps = sum(st.idx.size for st in cache)
    assert row_steps > 400 and cached / row_steps <= bound


def test_successive_updates_reuse_one_work_block():
    """Passes carve their work arrays from one block kept on the policy, so
    a steady update allocates none: two updates and a smaller evaluation
    use the same arrays, and only a larger batch grows the block."""
    groups = duplicated_input_latents(0, 20)
    pol = policy_for_env(groups[0], hidden_size=32)
    pol.init_params(pcg(0))
    rng = pcg(1)
    blocks = []
    for _ in range(2):
        batch, grad_fn = pol.collect(groups, 10, rng)
        grad_fn(np.ones(len(batch)))
        blocks.append(pol._work(1))
    pol.rollout(groups.repeat(5), greedy=True)
    blocks.append(pol._work(1))
    forward, backward = blocks[0]
    assert forward[0].shape == backward[0].shape[:1] + (4 * 32,) == (200, 128)
    assert np.shares_memory(forward[0], backward[0])  # forward and backward share it
    assert forward[0].base.size == 200 * 14 * 32  # backward's 14H per row, the widest
    for later in blocks[1:]:
        for a, b in zip(forward + backward, later[0] + later[1]):
            assert a is b and a.base is forward[0].base
    pol.collect(groups, 11, rng)
    grown = pol._work(1)
    assert grown[0][0].shape[0] == 220 and not np.shares_memory(grown[0][0], forward[0])
    other = pol.spawn_like()
    other.rollout(groups, greedy=True)
    assert not np.shares_memory(other._work(1)[0][0], grown[0][0])


def test_log_prob_additivity_small_case():
    # one step, factored heads: joint log-prob is the sum over heads
    env, pol = make_copy_policy(hidden=8)
    traj = sample_trajectory(pol, env.clone(), 3)
    logp, cache = pol.replay(TrajectoryBatch.from_trajectories([traj]), collect=True)
    total = 0.0
    for t, step in enumerate(cache):
        if t >= len(traj.actions):
            break
        for k in range(len(pol.heads)):
            total += math.log(split_heads(pol, step)[k][0, traj.actions[t][k]])
    assert total == pytest.approx(float(logp[0]), abs=1e-9)


def test_saturated_logits_act_greedily():
    env, pol = make_copy_policy(hidden=8)
    # drive one output head logit far above the others
    w = pol.params.view("head_move_b")
    w[:] = [0.0, 40.0]  # margin >= 30 saturates the softmax
    for seed in range(5):
        traj = sample_trajectory(pol, env.clone(), seed)
        assert all(a[0] == 1 for a in traj.actions)


def test_greedy_tie_breaks_to_lowest_index():
    env = make_env(TaskId.COPY, 5, (3, 3))
    env.reset()
    pol = policy_for_env(env, hidden_size=4)  # zero params: all logits equal
    (traj,), _ = pol.rollout([env], greedy=True)
    assert all(a == (0, 0, 0) for a in traj.actions)


def test_greedy_invariant_under_logit_rescaling():
    env, pol = make_copy_policy(hidden=8, seed=4)
    (base,), _ = pol.rollout([env], greedy=True)
    for name in ("move", "write", "out"):
        pol.params.view(f"head_{name}_w")[:] *= 3.0
        pol.params.view(f"head_{name}_b")[:] *= 3.0
    (scaled,), _ = pol.rollout([env], greedy=True)
    assert base.actions == scaled.actions


def test_sampling_frequencies_match_probabilities():
    env = FixedBanditEnv(0, payoffs=np.zeros(4))
    env.reset()
    pol = LinearBanditPolicy(4)  # zero weights: uniform over 4 arms
    rng = np.random.Generator(np.random.PCG64(9))
    trajs = pol.sample(env, rng, k=100_000)
    counts = np.bincount(trajs.actions[:, 0, 0], minlength=4)
    # three-sigma band around 1/4
    sigma = math.sqrt(100_000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 25_000) < 3 * sigma)


def test_recurrent_sampling_chi_square():
    env, pol = make_copy_policy(hidden=8, seed=2, length=2)
    rng = np.random.Generator(np.random.PCG64(0))
    # single-step marginal of the out head against its model probability
    n = 20_000
    envs = [env.clone() for _ in range(n)]
    trajs, cache = pol.rollout(envs, rng=rng, collect=True)
    probs = split_heads(pol, cache[0])[2][0]
    counts = np.bincount([t.actions[0][2] for t in trajs], minlength=probs.size)
    chi2 = float(np.sum((counts - n * probs) ** 2 / (n * probs)))
    # chi-square with 4 dof: p > 0.001 means chi2 below 18.47
    assert chi2 < 18.47


def test_weighted_grad_linearity_and_zero():
    env, pol = make_copy_policy(hidden=8)
    trajs = TrajectoryBatch.from_trajectories(
        sample_trajectory(pol, env.clone(), s) for s in range(4))
    zero = pol.weighted_grad(trajs, np.zeros(4))
    assert np.array_equal(zero, np.zeros(pol.params.size))
    c1 = np.array([0.5, -1.0, 2.0, 0.25])
    c2 = np.array([1.5, 0.5, -0.75, 1.0])
    g1 = pol.weighted_grad(trajs, c1)
    g2 = pol.weighted_grad(trajs, c2)
    g12 = pol.weighted_grad(trajs, c1 + c2)
    assert np.max(np.abs(g1 + g2 - g12)) < 1e-10


def test_checkpoint_roundtrip_byte_identical(tmp_path):
    env, pol = make_copy_policy(hidden=8, seed=11)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_policy(p1, pol)
    loaded = load_policy(p1)
    assert isinstance(loaded, RecurrentPolicy)
    assert np.array_equal(loaded.params.flat, pol.params.flat)
    assert loaded.heads == pol.heads and loaded.hidden_size == pol.hidden_size
    save_policy(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    # recomputation after the round trip is bit-identical
    batch = TrajectoryBatch.from_trajectories([sample_trajectory(pol, env.clone(), 0)])
    assert loaded.replay(batch)[0][0] == pol.replay(batch)[0][0]


def test_heads_of_mixed_widths_one_8_or_wider_are_refused_with_their_meta(tmp_path):
    # a 5-wide head padded to 8 would sum its padded row out of order
    heads = (("a", 5), ("b", 8))
    with pytest.raises(ValueError, match=r"widths \[5, 8\]"):
        RecurrentPolicy(6, heads, 4)
    meta = {"kind": "recurrent", "obs_dim": 6, "heads": [list(h) for h in heads],
            "hidden_size": 4}
    with pytest.raises(ValueError, match=r"widths \[5, 8\]"):
        RecurrentPolicy.from_meta(meta)
    path = tmp_path / "mixed.ckpt"
    save_checkpoint(path, ParamVector([("w", (3,))]), meta)
    with pytest.raises(ValueError, match="not a policy checkpoint"):
        load_policy(path)
    for fits in ((("a", 5), ("b", 7)), (("a", 8), ("b", 8)), (("q", 120),)):
        assert RecurrentPolicy(6, fits, 4).head_sizes == tuple(s for _, s in fits)


def test_linear_policy_log_prob_and_grad():
    rng = np.random.Generator(np.random.PCG64(3))
    env = FixedBanditEnv(0, payoffs=rng.random(6), features=rng.standard_normal((6, 4)))
    env.reset()
    pol = LinearBanditPolicy(4)
    pol.init_params(rng, scale=0.5)
    trajs = pol.sample(env, rng, k=3)
    for t in trajs:
        assert t.log_prob == pytest.approx(pol.log_probs(env)[t.actions[0][0]], abs=1e-12)
    # closed-form score: phi[a] - E_pi[phi]
    probs = pol.probs(env)
    grad = pol.weighted_grad(TrajectoryBatch.from_trajectories([trajs[0]]), [1.0], env)
    arm = trajs[0].actions[0][0]
    expect = env.features[arm] - probs @ env.features
    assert np.allclose(grad, expect, atol=1e-12)


def test_search_head_decoding_roundtrip():
    env = make_env(TaskId.BINARY_SEARCH, 12)
    env.reset()
    pol = policy_for_env(env, hidden_size=4)
    pol.init_params(np.random.Generator(np.random.PCG64(0)))
    traj = sample_trajectory(pol, env.clone(), 1)
    assert all(0 <= a[0] < 12 for a in traj.actions)
    op, reg = env.decode_action(traj.actions[0])
    assert 0 <= op < 4 and 0 <= reg < 3
