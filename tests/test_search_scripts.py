"""Scripted searches and the golden register-machine trace."""

import numpy as np
import pytest

from urex.envs import (BanditEnv, EpisodeError, TaskId, make_env, oracle_rollout, oracle_script,
                       play)
from urex.envs.search import (CMP_EQ, CMP_GT, CMP_LT, CMP_NONE, OP_AVG,
                              OP_CMP, OP_DIV, OP_INC, SearchAction)

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


def test_binary_script_matches_golden_prefix():
    env = make_env(TaskId.BINARY_SEARCH, 0)
    set_search_latent(env, 512, 100)
    _, actions, results = play(env, oracle_script(env, "binary"))
    golden_actions = [row[2] for row in GOLDEN_ROWS]
    # identical play until the golden agent leaves the pure halving pattern
    assert actions[:12] == golden_actions[:12]
    assert results[-1].reward > 0 and env.done


def test_linear_script_step_count():
    env = make_env(TaskId.BINARY_SEARCH, 0)
    for pos in (0, 1, 7, 31):
        set_search_latent(env, 64, pos)
        _, actions, results = play(env, oracle_script(env, "linear"))
        assert len(actions) == 2 * pos + 1
        assert results[-1].reward == 10.0 * (1.0 - (2 * pos + 1) / 129.0)


def test_scripted_searches_always_succeed():
    env = make_env(TaskId.BINARY_SEARCH, 77)
    rng = np.random.default_rng(5)
    for _ in range(200):
        env.reset()
        traj = oracle_rollout(env, "binary")
        assert traj.total_reward > 0
        env.restart()
        _, _, results = play(env, oracle_script(env, "linear"))
        assert results[-1].reward > 0


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
        _, _, results = play(env, oracle_script(env, "linear"))
        lin.append(sum(res.reward for res in results))
    assert abs(np.mean(lin) - 5.0) < 0.2
    assert np.mean(binary) > 9.55


def test_oracle_script_is_what_play_takes_and_refuses_what_has_no_oracle():
    tape = make_env(TaskId.REVERSE, 3)
    tape.reset()
    script = oracle_script(tape)
    _, actions, results = play(tape, script)
    assert actions == script and results[-1].done
    assert sum(res.reward for res in results) == tape.max_total_reward()
    with pytest.raises(EpisodeError, match="unknown search strategy 'ternary'"):
        oracle_script(make_env(TaskId.BINARY_SEARCH, 0), "ternary")
    with pytest.raises(EpisodeError, match="no oracle for task BanditEnv"):
        oracle_script(BanditEnv(0, num_actions=3, beta=1.0, dim=2))
