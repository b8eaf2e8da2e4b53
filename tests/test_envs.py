"""Environment semantics: determinism, rewards, termination, latent shapes."""

import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import urex.envs as envs_module
from urex.envs import (COMPLETED, STEP_LIMIT, WRONG_EMISSION, BanditEnv, Env,
                       RowStepper, TapeEnv, TapeLockstep, TaskId, draw_latents, lockstep,
                       make_env, oracle_rollout, replay_trace)
from urex.envs.base import EpisodeError
from urex.envs.search import (CMP_EQ, CMP_GT, CMP_LT, CMP_NONE, OP_AVG,
                              OP_CMP, OP_DIV, OP_INC, SearchAction)
from urex.envs.tape import MOVE_LEFT, MOVE_RIGHT, TapeAction

TAPE_TASKS = [TaskId.COPY, TaskId.DUPLICATED_INPUT, TaskId.REPEAT_COPY,
              TaskId.REVERSE, TaskId.REVERSED_ADDITION]


def random_actions(env, rng, n):
    acts = []
    for _ in range(n):
        move = int(rng.integers(0, env.n_moves))
        write = int(rng.integers(0, 2))
        symbol = int(rng.integers(0, env.base))
        acts.append(TapeAction(move, write, symbol))
    return acts


@pytest.mark.parametrize("task", TAPE_TASKS + [TaskId.BINARY_SEARCH])
def test_identical_construction_identical_episodes(task):
    rng = np.random.default_rng(0)
    for seed in rng.integers(0, 2**31, size=5):
        a = make_env(task, int(seed))
        b = make_env(task, int(seed))
        obs_a, obs_b = a.reset(), b.reset()
        assert obs_a == obs_b
        if task is TaskId.BINARY_SEARCH:
            actions = [SearchAction(int(o), int(r))
                       for o, r in zip(rng.integers(0, 4, 30), rng.integers(0, 3, 30))]
        else:
            actions = random_actions(a, rng, 30)
        for act in actions:
            ra = a.step(act)
            rb = b.step(act)
            assert ra == rb
            if ra.done:
                break


@pytest.mark.parametrize("task", TAPE_TASKS)
def test_oracle_reward_equals_max_total_reward(task):
    # reward accounting across 1000 random seeds per task
    env = make_env(task, 20240101, (2, 15))
    for _ in range(1000):
        env.reset()
        traj = oracle_rollout(env)
        assert traj.total_reward == env.max_total_reward()
        assert env.done and abs(sum(traj.rewards) - traj.total_reward) < 1e-12


def test_copy_basics():
    env = make_env(TaskId.COPY, 7, (5, 5))
    env.reset()
    assert env.reset() is not None
    # first observation is the first tape symbol
    obs = env.restart()
    assert obs == env.tape[0]
    # correct full emission earns one reward per symbol
    total = 0.0
    for sym in env.tape:
        res = env.step(TapeAction(MOVE_RIGHT, 1, sym))
        total += res.reward
    assert total == len(env.tape) == env.max_total_reward()
    assert res.done and res.cause == COMPLETED


def test_wrong_emission_ends_episode():
    env = make_env(TaskId.COPY, 11, (4, 4))
    env.reset()
    wrong = (env.target[0] + 1) % env.base
    res = env.step(TapeAction(MOVE_RIGHT, 1, wrong))
    assert res.reward == -0.5 and res.done and res.cause == WRONG_EMISSION
    with pytest.raises(EpisodeError):
        env.step(TapeAction(MOVE_RIGHT, 0, 0))


def test_step_limit_penalty():
    env = make_env(TaskId.COPY, 13, (3, 3))
    env.reset()
    res = None
    for _ in range(env.step_limit):
        res = env.step(TapeAction(MOVE_LEFT, 0, 0))
    assert res.done and res.cause == STEP_LIMIT and res.reward == -1.0


def test_blank_observation_off_tape():
    env = make_env(TaskId.COPY, 17, (3, 3))
    env.reset()
    res = env.step(TapeAction(MOVE_LEFT, 0, 0))  # pointer to -1
    assert res.obs == env.blank


def test_duplicated_input_layout():
    env = make_env(TaskId.DUPLICATED_INPUT, 3, (6, 6))
    env.reset()
    assert len(env.tape) % 2 == 0
    assert env.tape[0::2] == env.tape[1::2]  # each symbol doubled
    assert env.target == env.tape[0::2]


def test_repeat_copy_target():
    env = make_env(TaskId.REPEAT_COPY, 5, (4, 4))
    env.reset()
    n = len(env.tape)
    assert env.max_total_reward() == 3 * n
    assert env.target == env.tape + env.tape[::-1] + env.tape


def test_reverse_small_case():
    env = make_env(TaskId.REVERSE, 23, (2, 2))
    env.reset()
    traj = oracle_rollout(env)
    assert traj.total_reward == 2.0
    assert env.target == env.tape[::-1]


def test_reversed_addition_grid():
    for seed in range(50):
        env = make_env(TaskId.REVERSED_ADDITION, seed, (2, 12))
        env.reset()
        assert len(env.grid) == 2
        assert all(d in (0, 1, 2) for row in env.grid for d in row)
        # little-endian sum matches integer addition
        n = env.input_length
        a = sum(d * 3**i for i, d in enumerate(env.grid[0]))
        b = sum(d * 3**i for i, d in enumerate(env.grid[1]))
        s = sum(d * 3**i for i, d in enumerate(env.target))
        assert a + b == s
        assert len(env.target) in (n, n + 1)


def test_binary_search_latent_and_registers():
    env = make_env(TaskId.BINARY_SEARCH, 99)
    for _ in range(50):
        env.reset()
        assert 32 <= env.n <= 512
        assert all(x < y for x, y in zip(env.array, env.array[1:]))
        assert env.array[env.query_pos] == env.query
        assert env.registers == [env.n, 0, 0]


def test_binary_search_register_ops():
    env = make_env(TaskId.BINARY_SEARCH, 1)
    env.set_latent(512, 100)
    env.step(SearchAction(OP_AVG, 2))
    assert env.registers == [512, 0, 256]
    res = env.step(SearchAction(OP_CMP, 2))
    assert res.obs == CMP_LT  # query at position 100 sits below cell 256
    env.step(SearchAction(OP_DIV, 0))
    assert env.registers == [256, 0, 256]
    env.step(SearchAction(OP_INC, 1))
    assert env.registers == [256, 1, 256]


def test_binary_search_found_reward_and_limit():
    env = make_env(TaskId.BINARY_SEARCH, 2)
    env.set_latent(40, 0)
    res = env.step(SearchAction(OP_CMP, 1))  # register 1 holds 0
    assert res.done and res.cause == "found_query"
    assert res.reward == 10.0 * (1.0 - 1.0 / 81.0)

    env.set_latent(40, 19)
    res = None
    for _ in range(2 * 40 + 1):
        res = env.step(SearchAction(OP_DIV, 2))  # never compares
    assert res.done and res.cause == STEP_LIMIT and res.reward == 0.0


def test_bandit_payoffs_shape_and_range():
    from urex.envs import bandit_payoffs

    r, phi = bandit_payoffs(4, num_actions=1000, beta=8.0, dim=30)
    assert r.shape == (1000,) and phi.shape == (1000, 30)
    assert r.min() >= 0.0 and r.max() < 1.0
    r2, phi2 = bandit_payoffs(4, num_actions=1000, beta=8.0, dim=30)
    assert np.array_equal(r, r2) and np.array_equal(phi, phi2)
    r1, _ = bandit_payoffs(4, num_actions=1000, beta=1.0, dim=3)
    # identity exponent keeps payoffs uniform on [0, 1)
    assert abs(r1.mean() - 0.5) < 0.05


def test_bandit_step():
    env = BanditEnv(8, num_actions=16)
    env.reset()
    res = env.step((3,))
    assert res.done and res.reward == env.payoffs[3]


def test_clone_shares_latent_fresh_episode():
    env = make_env(TaskId.COPY, 31, (4, 4))
    env.reset()
    env.step(TapeAction(MOVE_RIGHT, 0, 0))
    clone = env.clone()
    assert clone.tape == env.tape and clone.steps == 0 and not clone.done
    with pytest.raises(EpisodeError):
        clone.reset()


def test_trace_dump_format():
    env = make_env(TaskId.COPY, 41, (3, 3))
    env.reset()
    traj = oracle_rollout(env)
    lines = replay_trace(env, [env.decode_action(a) for a in traj.actions])
    assert len(lines) == len(traj.actions)
    first = lines[0].split(", ")
    assert first[0] == "1" and first[3] == "1" and first[4] == "0"
    assert lines[-1].endswith(", 1")  # done flag on the final step


# -- lockstep stepper against the scalar env ------------------------------------
# One planned step per row: (move, kind, symbol).  "silent" writes nothing,
# "correct" emits the next target symbol, "random" emits ``symbol``, "skip"
# leaves the row out of this lockstep step.  Rows past their plan walk
# right silently until the step limit ends them.
STEP_KINDS = ("silent", "correct", "random", "skip")
STEP_PLANS = st.lists(st.tuples(st.integers(-1, 4), st.sampled_from(STEP_KINDS), st.integers(0, 4)),
                      max_size=40)


@pytest.mark.parametrize("task", TAPE_TASKS)
@given(seed=st.integers(0, 2**32 - 1), plans=st.lists(STEP_PLANS, min_size=1, max_size=4))
@example(seed=0, plans=[[(3, "silent", 0)] * 40, [(1, "correct", 0)] * 40, [(2, "random", 4)] * 3])
@example(seed=1, plans=[[(0, "silent", 0)] * 4 + [(1, "correct", 0)] * 40, [(1, "skip", 0)] * 5])
def test_lockstep_matches_scalar_env(task, seed, plans):
    envs = [make_env(task, seed + i, (2, 5)) for i in range(len(plans))]
    for env in envs:
        env.reset()
    stepper = TapeLockstep(envs)
    scalar = [env.clone() for env in envs]
    assert stepper.first_obs.tolist() == [env.restart() for env in scalar]
    t = 0
    while not all(env.done for env in scalar):
        rows, actions = [], []
        for b, env in enumerate(scalar):
            move, kind, symbol = plans[b][t] if t < len(plans[b]) else (MOVE_RIGHT, "silent", 0)
            if env.done or kind == "skip":
                continue
            if kind == "correct":
                symbol = env.target[env.emitted]
            rows.append(b)
            actions.append(TapeAction(move % env.n_moves, int(kind != "silent"), symbol % env.base))
        t += 1
        if not rows:
            continue
        obs, reward, done, cause = stepper.step(np.array(rows), np.array(actions))
        for i, b in enumerate(rows):
            expect = scalar[b].step(actions[i])
            assert (obs[i], reward[i], done[i], cause[i]) == tuple(expect)
    assert stepper.done.all()
    with pytest.raises(EpisodeError):
        stepper.step(np.array([0]), np.array([TapeAction(MOVE_RIGHT, 0, 0)]))


@pytest.mark.parametrize("task", TAPE_TASKS)
def test_lockstep_rejects_out_of_range_move_like_scalar_env(task):
    envs = [make_env(task, seed, (3, 3)) for seed in range(3)]
    for env in envs:
        env.reset()
    for move in (-1, envs[1].n_moves):
        actions = np.array([TapeAction(MOVE_RIGHT, 0, 0), TapeAction(move, 0, 0),
                            TapeAction(MOVE_LEFT, 0, 0)])
        with pytest.raises(ValueError) as scalar_err:
            envs[1].clone().step(TapeAction(move, 0, 0))
        with pytest.raises(ValueError, match=re.escape(str(scalar_err.value))):
            TapeLockstep(envs).step(np.arange(3), actions)


@pytest.mark.parametrize("task", TAPE_TASKS)
def test_lockstep_correct_emission_on_the_limit_step(task):
    # the +1 of a correct, non-final emission and the -1 of the limit add up
    env = make_env(task, 5, (4, 4))
    env.reset()
    stepper, scalar = TapeLockstep([env]), env.clone()
    for t in range(env.step_limit):
        action = TapeAction(MOVE_RIGHT, int(t == env.step_limit - 1), env.target[0])
        expect = scalar.step(action)
        obs, reward, done, cause = stepper.step(np.array([0]), np.array([action]))
        assert (obs[0], reward[0], done[0], cause[0]) == tuple(expect)
    assert expect.reward == 0.0 and expect.cause == STEP_LIMIT


def test_lockstep_requires_reset_envs():
    env = make_env(TaskId.COPY, 3, (3, 3))
    with pytest.raises(EpisodeError):
        TapeLockstep([env])


def test_lockstep_uses_arrays_only_for_tape_envs():
    tape = [make_env(task, 1, (3, 3)) for task in TAPE_TASKS]
    search = make_env(TaskId.BINARY_SEARCH, 1)
    for env in tape + [search]:
        env.reset()
    assert isinstance(lockstep(tape), TapeLockstep)
    assert isinstance(lockstep(tape + [search]), RowStepper)


# -- array latents against make_env + reset --------------------------------------
LATENT_ROWS = st.lists(st.tuples(st.integers(0, 2**63 - 1), st.integers(2, 12), st.integers(0, 8)),
                       min_size=1, max_size=5)


def scalar_state(env):
    return {k: v for k, v in vars(env).items() if k != "_stream"}


@pytest.mark.parametrize("task", TAPE_TASKS)
@given(rows=LATENT_ROWS, action_seed=st.integers(0, 2**32 - 1))
def test_drawn_latents_match_make_env_then_reset(task, rows, action_seed):
    seeds = [seed for seed, _, _ in rows]
    ranges = [(lo, lo + span) for _, lo, span in rows]
    latents = draw_latents(task, seeds, ranges)
    envs = [make_env(task, seed, r) for seed, r in zip(seeds, ranges)]
    first = [env.reset() for env in envs]
    stepper = TapeLockstep(latents)
    for b, env in enumerate(envs):
        grid = env.grid if task is TaskId.REVERSED_ADDITION else (env.tape,)
        inside = latents.grid[b, 1 : 1 + len(grid), 1 : 1 + env.input_length]
        assert inside.tolist() == [list(r) for r in grid]
        assert (latents.grid[b] == env.blank).sum() == latents.grid[b].size - inside.size
        assert latents.width[b] == env.input_length
        assert latents.target[b, : latents.target_len[b]].tolist() == list(env.target)
        assert latents.step_limit[b] == env.step_limit
    assert stepper.max_rewards.tolist() == [env.max_total_reward() for env in envs]
    assert stepper.first_obs.tolist() == first
    assert stepper.seeds.tolist() == seeds
    assert stepper.num_observations == envs[0].num_observations
    # the envs given back equal the scalar ones, and they and the stepper step alike
    given_back = list(latents)
    assert [scalar_state(env) for env in given_back] == [scalar_state(env) for env in envs]
    rng = np.random.default_rng(action_seed)
    while not all(env.done for env in envs):
        live = np.array([b for b, env in enumerate(envs) if not env.done])
        # mostly the next target symbol, so episodes also complete and time out
        symbols = np.where(rng.random(live.size) < 0.8,
                           [envs[b].target[envs[b].emitted] for b in live],
                           rng.integers(0, envs[0].base, live.size))
        actions = np.stack([rng.integers(0, envs[0].n_moves, live.size),
                            rng.integers(0, 2, live.size), symbols], axis=1)
        got = stepper.step(live, actions)
        for i, b in enumerate(live.tolist()):
            expect = envs[b].step(TapeAction(*actions[i].tolist()))
            assert given_back[b].step(TapeAction(*actions[i].tolist())) == expect
            assert tuple(value[i] for value in got) == tuple(expect)


def test_drawn_latents_give_back_envs_without_drawing_or_resetting(monkeypatch):
    latents = draw_latents(TaskId.COPY, [1, 2, 3], [(2, 5)] * 3).repeat(2)

    def refuse(*args, **kwargs):
        raise AssertionError("drew or reset an env")

    monkeypatch.setattr(envs_module, "make_env", refuse)
    monkeypatch.setattr(Env, "reset", refuse)
    monkeypatch.setattr(TapeEnv, "_draw_latent", refuse)
    given_back = list(latents)
    monkeypatch.undo()
    assert [env.seed for env in given_back] == [1, 1, 2, 2, 3, 3]
    assert all(isinstance(env, TapeEnv) and env._has_latent and not env.done
               for env in given_back)
    assert given_back[0] is not given_back[1]
    with pytest.raises(EpisodeError):  # like Env.clone copies: no seed stream
        given_back[0].reset()
