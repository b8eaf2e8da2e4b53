"""Scripted searches and the golden register-machine trace."""

import numpy as np

from urex.envs import TaskId, make_env, oracle_rollout, play
from urex.envs.search import (CMP_EQ, CMP_GT, CMP_LT, CMP_NONE, OP_AVG,
                              OP_CMP, OP_DIV, OP_INC, SearchAction,
                              scripted_binary_search, scripted_linear_search)

from fixed_latents import set_search_latent

# Golden episode: array size 512, query at position 100, replayed from the
# initial registers (512, 0, 0).  Each row is (registers-before, obs-before,
# action); the final comparison hits the query at step 32.
A = SearchAction
GOLDEN_ROWS = [
    ((512, 0, 0), CMP_NONE, A(OP_AVG, 2)),
    ((512, 0, 256), CMP_NONE, A(OP_CMP, 2)),
    ((512, 0, 256), CMP_LT, A(OP_DIV, 0)),
    ((256, 0, 256), CMP_NONE, A(OP_AVG, 2)),
    ((256, 0, 128), CMP_NONE, A(OP_CMP, 2)),
    ((256, 0, 128), CMP_LT, A(OP_DIV, 0)),
    ((128, 0, 128), CMP_NONE, A(OP_AVG, 2)),
    ((128, 0, 64), CMP_NONE, A(OP_CMP, 2)),
    ((128, 0, 64), CMP_GT, A(OP_AVG, 1)),
    ((128, 96, 64), CMP_NONE, A(OP_CMP, 1)),
    ((128, 96, 64), CMP_GT, A(OP_AVG, 2)),
    ((128, 96, 112), CMP_NONE, A(OP_CMP, 2)),
    ((128, 96, 112), CMP_LT, A(OP_AVG, 1)),
    ((128, 120, 112), CMP_NONE, A(OP_CMP, 2)),
    ((128, 120, 112), CMP_LT, A(OP_DIV, 1)),
    ((128, 60, 112), CMP_NONE, A(OP_AVG, 2)),
    ((128, 60, 94), CMP_NONE, A(OP_CMP, 2)),
    ((128, 60, 94), CMP_GT, A(OP_AVG, 1)),
    ((128, 111, 94), CMP_NONE, A(OP_CMP, 1)),
    ((128, 111, 94), CMP_LT, A(OP_INC, 1)),
    ((128, 112, 94), CMP_NONE, A(OP_INC, 2)),
    ((128, 112, 95), CMP_NONE, A(OP_CMP, 2)),
    ((128, 112, 95), CMP_GT, A(OP_INC, 2)),
    ((128, 112, 96), CMP_NONE, A(OP_CMP, 2)),
    ((128, 112, 96), CMP_GT, A(OP_INC, 2)),
    ((128, 112, 97), CMP_NONE, A(OP_CMP, 2)),
    ((128, 112, 97), CMP_GT, A(OP_INC, 2)),
    ((128, 112, 98), CMP_NONE, A(OP_CMP, 2)),
    ((128, 112, 98), CMP_GT, A(OP_INC, 2)),
    ((128, 112, 99), CMP_NONE, A(OP_CMP, 2)),
    ((128, 112, 99), CMP_GT, A(OP_INC, 2)),
    ((128, 112, 100), CMP_NONE, A(OP_CMP, 2)),
]
GOLDEN_FINAL = ((128, 112, 100), CMP_EQ)


def replay_golden(env):
    obs = set_search_latent(env, 512, 100)
    for regs, obs_expected, action in GOLDEN_ROWS:
        assert tuple(env.registers) == regs
        assert obs == obs_expected
        res = env.step(action)
        obs = res.obs
    return res, obs


def test_golden_trace_replay():
    env = make_env(TaskId.BINARY_SEARCH, 0)
    res, obs = replay_golden(env)
    assert tuple(env.registers) == GOLDEN_FINAL[0]
    assert obs == GOLDEN_FINAL[1]
    assert res.done and res.cause == "found_query"
    assert abs(res.reward - 10.0 * (1.0 - 32.0 / 1025.0)) < 1e-12


def test_scripted_binary_search_matches_golden_prefix():
    env = make_env(TaskId.BINARY_SEARCH, 0)
    set_search_latent(env, 512, 100)
    actions, rewards, _ = scripted_binary_search(env)
    golden_actions = [row[2] for row in GOLDEN_ROWS]
    # identical play until the golden agent leaves the pure halving pattern
    assert actions[:12] == golden_actions[:12]
    assert rewards[-1] > 0 and env.done


def test_scripted_linear_search_step_count():
    env = make_env(TaskId.BINARY_SEARCH, 0)
    for pos in (0, 1, 7, 31):
        set_search_latent(env, 64, pos)
        actions, rewards, _ = scripted_linear_search(env)
        assert len(actions) == 2 * pos + 1
        assert rewards[-1] == 10.0 * (1.0 - (2 * pos + 1) / 129.0)


def test_scripted_searches_always_succeed():
    env = make_env(TaskId.BINARY_SEARCH, 77)
    rng = np.random.default_rng(5)
    for _ in range(200):
        env.reset()
        traj = oracle_rollout(env, "binary")
        assert traj.total_reward > 0
        env.restart()
        actions, rewards, _ = scripted_linear_search(env)
        assert rewards[-1] > 0


def test_golden_episode_dump_lines():
    env = make_env(TaskId.BINARY_SEARCH, 0)
    set_search_latent(env, 512, 100)
    observations, actions, results = play(env, [row[2] for row in GOLDEN_ROWS])
    assert observations == [row[1] for row in GOLDEN_ROWS]
    assert actions == [row[2] for row in GOLDEN_ROWS]
    assert results[-1].obs == GOLDEN_FINAL[1]
    assert [res.reward for res in results] == [0.0] * 31 + [10 * (1 - 32 / 1025)]
    assert [res.done for res in results] == [False] * 31 + [True]


def test_scripted_search_mean_rewards_small_sample():
    # desk-size statistical check; the acceptance suite runs the full 1e5
    lin, binary = [], []
    env = make_env(TaskId.BINARY_SEARCH, 4242)
    for _ in range(3000):
        env.reset()
        binary.append(oracle_rollout(env, "binary").total_reward)
        env.restart()
        _, rewards, _ = scripted_linear_search(env)
        lin.append(sum(rewards))
    assert abs(np.mean(lin) - 5.0) < 0.2
    assert np.mean(binary) > 9.55
