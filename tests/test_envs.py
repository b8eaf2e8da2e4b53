"""Environment semantics: determinism, rewards, termination, latent shapes."""

import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import urex.envs as envs_module
from urex.envs import (COMPLETED, FOUND_QUERY, STEP_LIMIT, WRONG_EMISSION, BanditEnv, Env,
                       RowStepper, TapeEnv, TapeLockstep, TaskId, draw_latents, lockstep,
                       make_env, oracle_rollout, play)
from urex.envs.base import EpisodeError
from urex.envs.search import (CMP_EQ, CMP_GT, CMP_LT, CMP_NONE, OP_AVG,
                              OP_CMP, OP_DIV, OP_INC, SearchAction)
from urex.envs.tape import MOVE_LEFT, MOVE_RIGHT, TapeAction

import tape_spec
from fixed_latents import set_search_latent
from joint_action import JointActionView

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


@pytest.mark.parametrize("task", TAPE_TASKS)
@given(seed=st.integers(0, 2**63 - 1), lo=st.integers(2, 40), span=st.integers(0, 8))
def test_reset_draws_the_specified_latent(task, seed, lo, span):
    env = make_env(task, seed, (lo, lo + span))
    stream = np.random.Generator(np.random.PCG64(seed))
    for _ in range(3):  # each reset draws the next latent from the seed stream
        first = env.reset()
        grid, target, input_length, step_limit = tape_spec.draw(task, stream, (lo, lo + span))
        assert (env.grid if task is TaskId.REVERSED_ADDITION else (env.tape,)) == grid
        assert env.target == target
        assert env.input_length == input_length and env.step_limit == step_limit
        assert first == grid[0][0]


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
    set_search_latent(env, 512, 100)
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
    set_search_latent(env, 40, 0)
    res = env.step(SearchAction(OP_CMP, 1))  # register 1 holds 0
    assert res.done and res.cause == "found_query"
    assert res.reward == 10.0 * (1.0 - 1.0 / 81.0)

    set_search_latent(env, 40, 19)
    res = None
    for _ in range(2 * 40 + 1):
        res = env.step(SearchAction(OP_DIV, 2))  # never compares
    assert res.done and res.cause == STEP_LIMIT and res.reward == 0.0


def spec_search_step(env, action):
    """The register machine's rules written plainly, read from ``env``
    before the step: (registers after, obs, reward, done, cause)."""
    op, reg = action
    regs, steps = list(env.registers), env.steps + 1
    obs, reward, cause = CMP_NONE, 0.0, None
    if op == OP_INC:
        regs[reg] += 1
    elif op == OP_DIV:
        regs[reg] //= 2
    elif op == OP_AVG:
        a, b = (regs[i] for i in range(3) if i != reg)
        regs[reg] = (a + b) // 2
    else:
        cell = env.array[min(max(regs[reg], 0), env.n - 1)]
        if env.query < cell:
            obs = CMP_LT
        elif env.query > cell:
            obs = CMP_GT
        else:
            obs, reward, cause = CMP_EQ, 10.0 * (1.0 - steps / env.step_limit), FOUND_QUERY
    if cause is None and steps >= env.step_limit:
        cause = STEP_LIMIT
    return regs, obs, reward, cause is not None, cause


@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), max_size=60))
def test_search_step_follows_the_plain_rules(seed, actions):
    env = make_env(TaskId.BINARY_SEARCH, seed, (1, 12))
    env.reset()
    for action in actions:
        if env.done:
            break
        if action[0] > 3 or action[1] > 2:
            with pytest.raises(ValueError, match=re.escape(f"bad search action {action!r}")):
                env.step(action)
            continue
        regs, *expected = spec_search_step(env, action)
        res = env.step(SearchAction(*action))
        assert (env.registers, *res) == (regs, *expected)
        assert env.done == res.done


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
    actions = [env.decode_action(a) for a in traj.actions]
    observations, played, results = play(env, actions)
    assert played == actions and observations == traj.observations
    assert [res.reward for res in results] == traj.rewards and results[0].reward == 1
    # done flag on the final step only
    assert [res.done for res in results] == [False] * (len(actions) - 1) + [True]


# -- play: the one driver of scripted episodes -----------------------------------

def test_play_sends_a_generator_script_each_observation():
    env = make_env(TaskId.BINARY_SEARCH, 0)
    set_search_latent(env, 64, 5)
    sent = []

    def script():  # a linear search that keeps what it is sent
        while True:
            sent.append((yield SearchAction(OP_CMP, 2)))
            sent.append((yield SearchAction(OP_INC, 2)))

    observations, actions, results = play(env, script())
    assert len(actions) == len(results) == 11 and results[-1].cause == FOUND_QUERY
    assert sent == [res.obs for res in results[:-1]]  # not resumed once the episode ended
    assert observations == [CMP_NONE, *sent]
    assert CMP_GT in sent and CMP_NONE in sent


def test_play_stops_when_a_list_script_runs_out():
    env = make_env(TaskId.COPY, 3, (5, 5))
    env.reset()
    script = [TapeAction(MOVE_RIGHT, 1, s) for s in env.tape[:2]]
    observations, actions, results = play(env, script)
    assert actions == script and [res.reward for res in results] == [1.0, 1.0]
    assert observations == [env.tape[0], env.tape[1]]
    assert not env.done and env.steps == 2
    assert play(env, []) == ([], [], []) and env.steps == 0  # restarted, never stepped


# -- lockstep stepper against the scalar env ------------------------------------
# One planned step per row: (move, kind, symbol).  "silent" writes nothing,
# "correct" emits the next target symbol, "random" emits ``symbol``, "skip"
# leaves the row out of this lockstep step.  Rows past their plan walk
# right silently until the step limit ends them.
STEP_KINDS = ("silent", "correct", "random", "skip")
STEP_PLANS = st.lists(st.tuples(st.integers(-1, 4), st.sampled_from(STEP_KINDS), st.integers(0, 4)),
                      max_size=40)


def reset_envs(task, seeds, length_range):
    """``make_env`` + ``reset`` envs: what ``draw_latents`` draws for the
    same seeds and range."""
    envs = [make_env(task, seed, length_range) for seed in seeds]
    for env in envs:
        env.reset()
    return envs


@pytest.mark.parametrize("task", TAPE_TASKS)
@given(seed=st.integers(0, 2**32 - 1), plans=st.lists(STEP_PLANS, min_size=1, max_size=4))
@example(seed=0, plans=[[(3, "silent", 0)] * 40, [(1, "correct", 0)] * 40, [(2, "random", 4)] * 3])
@example(seed=1, plans=[[(0, "silent", 0)] * 4 + [(1, "correct", 0)] * 40, [(1, "skip", 0)] * 5])
def test_lockstep_matches_scalar_env(task, seed, plans):
    seeds = [seed + i for i in range(len(plans))]
    stepper = TapeLockstep(draw_latents(task, seeds, [(2, 5)] * len(plans)))
    scalar = reset_envs(task, seeds, (2, 5))
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
    env = reset_envs(task, [1], (3, 3))[0]
    for move in (-1, env.n_moves):
        actions = np.array([TapeAction(MOVE_RIGHT, 0, 0), TapeAction(move, 0, 0),
                            TapeAction(MOVE_LEFT, 0, 0)])
        with pytest.raises(ValueError) as scalar_err:
            env.clone().step(TapeAction(move, 0, 0))
        with pytest.raises(ValueError, match=re.escape(str(scalar_err.value))):
            TapeLockstep(draw_latents(task, [0, 1, 2], [(3, 3)] * 3)).step(np.arange(3), actions)


@pytest.mark.parametrize("task", TAPE_TASKS)
def test_lockstep_correct_emission_on_the_limit_step(task):
    # the +1 of a correct, non-final emission and the -1 of the limit add up
    stepper = TapeLockstep(draw_latents(task, [5], [(4, 4)]))
    scalar = reset_envs(task, [5], (4, 4))[0]
    for t in range(scalar.step_limit):
        action = TapeAction(MOVE_RIGHT, int(t == scalar.step_limit - 1), scalar.target[0])
        expect = scalar.step(action)
        obs, reward, done, cause = stepper.step(np.array([0]), np.array([action]))
        assert (obs[0], reward[0], done[0], cause[0]) == tuple(expect)
    assert expect.reward == 0.0 and expect.cause == STEP_LIMIT


def test_lockstep_uses_arrays_only_for_tape_envs():
    latents = draw_latents(TaskId.COPY, [1, 2, 3], [(3, 3)] * 3)
    assert isinstance(lockstep(latents), TapeLockstep)
    assert isinstance(lockstep(latents.repeat(2)), TapeLockstep)
    tape = [make_env(task, 1, (3, 3)) for task in TAPE_TASKS]
    search = make_env(TaskId.BINARY_SEARCH, 1)
    for env in tape + [search]:
        env.reset()
    for envs in (list(latents), tape[:1] * 4, tape, tape[:1], tape + [search], [search] * 2):
        assert isinstance(lockstep(envs), RowStepper)


# -- Q-learning's joint action index ---------------------------------------------
@pytest.mark.parametrize("task", TAPE_TASKS)
def test_joint_index_decodes_as_the_joint_action_view(task):
    env = make_env(task, 4, (3, 6))
    env.reset()
    view = JointActionView(env)
    joint = range(view.num_actions)
    assert [env.decode_action((j,)) for j in joint] == [view.decode_action((j,)) for j in joint]
    assert env.decode_action((1, 0, 2)) == (1, 0, 2)


@pytest.mark.parametrize("task", TAPE_TASKS)
def test_lockstep_steps_joint_indices_as_their_decoded_actions(task):
    """Every joint index of the task in one batch, then random ones until
    every episode ends: one-column steps equal the decoded ones."""
    view = JointActionView(reset_envs(task, [4], (3, 6))[0])
    size = view.num_actions
    latents = draw_latents(task, [4], [(3, 6)]).repeat(size)
    joint = np.arange(size)
    one, three = TapeLockstep(latents), TapeLockstep(latents)
    rng = np.random.default_rng(0)
    while not one.done.all():
        live = np.flatnonzero(~one.done)
        decoded = np.array([view.decode_action((int(joint[b]),)) for b in live])
        got = one.step(live, joint[live, None])
        expect = three.step(live, decoded)
        for value, want in zip(got, expect):
            assert value.tolist() == want.tolist()
        joint = rng.integers(0, size, size)
    assert three.done.all()


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


@pytest.mark.parametrize("task", TAPE_TASKS)
def test_a_repeated_batch_is_its_seeds_drawn_in_turn(task):
    seeds, ranges, k = [7, 3, 11], [(2, 4), (5, 8), (3, 3)], 3
    repeated = draw_latents(task, seeds, ranges).repeat(k)
    in_turn = draw_latents(task, [seed for seed in seeds for _ in range(k)],
                           [r for r in ranges for _ in range(k)])
    assert len(repeated) == len(in_turn) == len(seeds) * k
    for got, want in zip(repeated, in_turn):
        assert ((got.grid, got.target, got.seed, got.length_range)
                == (want.grid, want.target, want.seed, want.length_range))
    got, want = TapeLockstep(repeated), TapeLockstep(in_turn)
    for name in ("first_obs", "target_len", "step_limit", "max_rewards"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist()


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
