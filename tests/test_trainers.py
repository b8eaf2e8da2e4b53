"""Training-step behavior: improvement on tiny problems, metrics schema,
and the double Q-learning baseline."""

import weakref

import numpy as np
import pytest

from urex.curriculum import LENGTH_FLOOR, CurriculumState
from urex.envs.base import COMPLETED, Env, RowStepper, StepResult
from urex.envs import TaskId, make_env
from urex.harness import make_spec
from urex.harness.trial import env_factory_for
from urex.policy import LinearBanditPolicy, policy_for_env
from urex.trainers import policy_gradient, qlearning
from urex.trainers import (AdamState, DoubleQLearner, PolicyGradientTrainer,
                           QConfig, TrainConfig, update)
from urex.types import Trajectory, TrajectoryBatch

from fixed_latents import FixedBanditEnv


class ChainEnv(Env):
    """Two-state deterministic chain: stop now for 1, or step on for 2."""

    num_observations = 2
    action_heads = (("act", 2),)

    def _draw_latent(self, stream):
        pass

    def _begin(self):
        self.state = 0
        return 0

    def max_total_reward(self):
        return 2.0

    def step(self, action):
        self._require_running()
        self.steps += 1
        a = action[0]
        if self.state == 0:
            if a == 0:
                self.done = True
                return StepResult(0, 1.0, True, COMPLETED)
            self.state = 1
            return StepResult(1, 0.0, False, None)
        self.done = True
        return StepResult(1, 2.0 if a == 0 else 0.0, True, COMPLETED)


class FixedBandit:
    """A trainer's env factory that gives every episode one fixed bandit."""

    def __init__(self, payoffs):
        self.payoffs = payoffs

    def latents(self, seeds, lengths):
        envs = [FixedBanditEnv(0, payoffs=self.payoffs) for _ in seeds]
        for env in envs:
            env.reset()
        return envs


def two_arm_env():
    env = FixedBanditEnv(0, payoffs=[1.0, 0.0])
    env.reset()
    return env


def train_two_arm(method, tau, seed, steps=30):
    env = two_arm_env()
    rng = np.random.Generator(np.random.PCG64(seed))
    pol = LinearBanditPolicy(2)
    pol.init_params(rng, scale=0.1)
    optim = AdamState.like(pol.params.flat)
    cfg = TrainConfig(method=method, tau=tau, learning_rate=0.05, clip_norm=10.0, k=10, n=1)
    start = pol.probs(env)[0]
    for _ in range(steps):
        update(pol, optim, [env], cfg, rng)
    return start, pol.probs(env)[0]


@pytest.mark.parametrize("method,tau", [("ment", 0.0), ("urex", 0.1)])
def test_two_arm_bandit_improves(method, tau):
    improved = 0
    for seed in range(50):
        start, end = train_two_arm(method, tau, seed)
        improved += end > start
    # one-sided sign test: 36+ of 50 rejects "no better than chance" at p < 0.01
    assert improved >= 36


def test_metrics_schema_every_step():
    env = FixedBanditEnv(0, payoffs=[0.8, 0.2, 0.1])
    cfg = TrainConfig(method="urex", tau=0.1, learning_rate=0.05, clip_norm=5.0,
                      k=8, n=1, seed=3)
    pol = LinearBanditPolicy(3)
    pol.init_params(np.random.Generator(np.random.PCG64(0)), scale=0.1)
    trainer = PolicyGradientTrainer(pol, FixedBandit([0.8, 0.2, 0.1]), cfg)
    required = {"step", "method", "tau", "eta", "clip", "mean_reward", "coef_mean",
                "coef_std", "grad_norm_pre", "grad_norm_post", "wall_ms",
                "weight_variance", "max_len"}
    for _ in range(5):
        row = trainer.step().record()
        assert required.issubset(row.keys())
    # entropy-regularized method has no weight variance field
    cfg2 = TrainConfig(method="ment", tau=0.01, learning_rate=0.05, clip_norm=5.0, k=8, n=1)
    pol2 = LinearBanditPolicy(3)
    trainer2 = PolicyGradientTrainer(pol2, FixedBandit([0.8, 0.2, 0.1]), cfg2)
    assert "weight_variance" not in trainer2.step().record()


def test_trainer_deterministic():
    def run():
        cfg = TrainConfig(method="urex", tau=0.1, learning_rate=0.05, clip_norm=5.0,
                          k=8, n=1, seed=11)
        pol = LinearBanditPolicy(3)
        pol.init_params(np.random.Generator(np.random.PCG64(1)), scale=0.1)
        trainer = PolicyGradientTrainer(pol, FixedBandit([0.8, 0.2, 0.1]), cfg)
        for _ in range(10):
            m = trainer.step()
        return pol.params.flat.copy(), m.mean_reward

    p1, r1 = run()
    p2, r2 = run()
    assert np.array_equal(p1, p2) and r1 == r2


def test_one_batch_advances_curriculum_at_most_one_level():
    # one arm paying 1: every episode of every batch is perfect
    cfg = TrainConfig(method="ment", tau=0.0, learning_rate=0.05, clip_norm=5.0,
                      k=40, n=1, seed=0)
    pol = LinearBanditPolicy(1)
    cur = CurriculumState(window=10)
    trainer = PolicyGradientTrainer(pol, FixedBandit([1.0]), cfg, cur)
    # all 40 episodes were sampled at level 2: the first ten raise it to 3,
    # and the other thirty, sampled below level 3, do not count
    assert trainer.step().max_len == 3
    assert len(cur.ratios) == 0
    assert trainer.step().max_len == 4


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(method="urex", tau=0.0, learning_rate=0.1, clip_norm=1.0)
    with pytest.raises(ValueError):
        TrainConfig(method="nope", tau=0.1, learning_rate=0.1, clip_norm=1.0)
    with pytest.raises(ValueError):
        TrainConfig(method="ment", tau=0.1, learning_rate=0.1, clip_norm=1.0, k=1)


@pytest.mark.parametrize("field", ["tau", "learning_rate", "clip_norm"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_train_config_refuses_a_non_finite_value(field, value):
    given = dict(method="ment", tau=0.01, learning_rate=0.1, clip_norm=1.0)
    with pytest.raises(ValueError, match="finite tau >= 0"):
        TrainConfig(**{**given, field: value})


def keep_weakrefs(policy, method, refs):
    """Wrap ``policy.<method>`` (rollout or replay) to append to ``refs`` a
    weak reference to the first record of each list of step records it
    returns, which the list keeps alive."""
    run = getattr(policy, method)

    def keeping_a_weakref(*args, **kwargs):
        out, steps = run(*args, **kwargs)
        refs.append(weakref.ref(steps[0]))
        return out, steps

    setattr(policy, method, keeping_a_weakref)


def dead_at_adam(monkeypatch, module, refs):
    """Patch ``module.adam_update`` to record, at each call, whether every
    cache in ``refs`` is unreachable; returns that record."""
    record, adam = [], module.adam_update

    def checking(*args, **kwargs):
        record.append(bool(refs) and all(ref() is None for ref in refs))
        return adam(*args, **kwargs)

    monkeypatch.setattr(module, "adam_update", checking)
    return record


def test_update_drops_the_rollout_cache_before_adam(monkeypatch):
    envs = [make_env(TaskId.COPY, seed, (2, 4)) for seed in range(4)]
    for env in envs:
        env.reset()
    pol = policy_for_env(envs[0], hidden_size=8)
    pol.init_params(np.random.Generator(np.random.PCG64(0)))
    refs = []
    keep_weakrefs(pol, "rollout", refs)
    record = dead_at_adam(monkeypatch, policy_gradient, refs)
    cfg = TrainConfig(method="urex", tau=0.1, learning_rate=0.05, clip_norm=1.0, k=3, n=4)
    rng = np.random.Generator(np.random.PCG64(1))
    update(pol, AdamState.like(pol.params.flat), envs, cfg, rng)
    assert len(refs) == 1 and record == [True]


def test_q_train_step_drops_both_caches_before_adam(monkeypatch):
    learner = DoubleQLearner(ChainEnv(0), QConfig(hidden_size=8, seed=0))
    refs = []
    keep_weakrefs(learner.online, "rollout", refs)
    keep_weakrefs(learner.target, "replay", refs)
    record = dead_at_adam(monkeypatch, qlearning, refs)
    learner.train_step(ChainEnv(0))
    assert len(refs) == 2 and record == [True]


def online_q_values(learner, trajectory):
    """The online net's Q-values along a fixed episode: its replayed logits, (T, A)."""
    _, steps = learner.online.replay(TrajectoryBatch.from_trajectories([trajectory]), collect=True)
    return np.concatenate([st.logits for st in steps])


def chain_q_values(learner):
    probe = Trajectory(observations=[0, 1], actions=[(1,), (0,)],
                       rewards=[0.0, 2.0], total_reward=2.0)
    return online_q_values(learner, probe)


@pytest.mark.parametrize("field, value, message", [
    ("eps_start", 1.5, "epsilon must lie in"), ("eps_end", -0.1, "epsilon must lie in"),
    ("sync_every", 0, "sync_every must be >= 1"), ("eps_decay_steps", 0, "eps_decay_steps must be >= 1"),
    *[("learning_rate", value, "learning_rate must be finite and > 0")
      for value in (0.0, -0.01, np.nan, np.inf)]])
def test_q_config_refuses_a_value_out_of_range(field, value, message):
    with pytest.raises(ValueError, match=message):
        QConfig(**{field: value})


def test_q_learning_matches_value_iteration():
    # value iteration on the chain at discount 0.9:
    #   Q(s1, stop) = 2, Q(s1, other) = 0
    #   Q(s0, stop) = 1, Q(s0, on) = 0 + 0.9 * max(2, 0) = 1.8
    oracle = np.array([[1.0, 1.8], [2.0, 0.0]])
    cfg = QConfig(eps_start=1.0, eps_end=0.3, eps_decay_steps=600, sync_every=20,
                  learning_rate=0.01, discount=0.9, hidden_size=16, seed=0)
    learner = DoubleQLearner(ChainEnv(0), cfg)
    env = ChainEnv(0)
    for _ in range(2500):
        learner.train_step(env)
    assert np.abs(chain_q_values(learner) - oracle).max() < 1e-3


def test_q_terminal_target_is_reward():
    cfg = QConfig(eps_start=1.0, eps_end=1.0, sync_every=10, learning_rate=0.05,
                  discount=0.9, hidden_size=8, seed=1)
    env = FixedBanditEnv(0, payoffs=[1.0, 0.0])
    learner = DoubleQLearner(env, cfg)
    for _ in range(400):
        learner.train_step(env)
    traj = Trajectory(observations=[0], actions=[(0,)], rewards=[1.0], total_reward=1.0)
    q = online_q_values(learner, traj)[0]
    # terminal one-step targets regress Q toward the raw payoffs
    assert abs(q[0] - 1.0) < 0.05 and abs(q[1] - 0.0) < 0.05


def test_q_solves_two_arm_bandit_greedy():
    for seed in range(5):
        cfg = QConfig(eps_start=1.0, eps_end=0.1, eps_decay_steps=300, sync_every=10,
                      learning_rate=0.05, discount=0.99, hidden_size=8, seed=seed)
        env = FixedBanditEnv(0, payoffs=[1.0, 0.0])
        learner = DoubleQLearner(env, cfg)
        for _ in range(500):
            learner.train_step(env)
        env.reset()
        traj = learner.greedy_episode(env)
        assert traj.actions[0] == (0,) and traj.total_reward == 1.0


def test_q_full_exploration_uniform_actions():
    cfg = QConfig(eps_start=1.0, eps_end=1.0, sync_every=1000, learning_rate=1e-4,
                  hidden_size=8, seed=2)
    env = FixedBanditEnv(0, payoffs=np.zeros(4))
    learner = DoubleQLearner(env, cfg)
    counts = np.zeros(4)
    n = 4000
    for _ in range(n):
        m = learner.train_step(env)
    # replay the learner's own rng draws is awkward; sample fresh episodes instead
    rng = np.random.Generator(np.random.PCG64(5))
    from joint_action import JointActionView

    view = JointActionView(env)
    for _ in range(n):
        view.reset()
        trajs, _ = learner.online.rollout([view], rng=rng, eps=1.0)
        counts[trajs[0].actions[0][0]] += 1
    expected = n / 4.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 16.27  # 3 dof, p > 0.001


def test_q_target_sync_cadence():
    cfg = QConfig(sync_every=5, hidden_size=8, seed=3, eps_start=1.0, eps_end=1.0)
    env = FixedBanditEnv(0, payoffs=[0.5, 0.5])
    learner = DoubleQLearner(env, cfg)
    for i in range(1, 10):
        learner.train_step(env)
        synced = np.array_equal(learner.target.params.flat, learner.online.params.flat)
        assert synced == (i % 5 == 0)


def test_search_factory_makes_and_resets_each_env_and_draws_no_length():
    factory = env_factory_for(make_spec(TaskId.BINARY_SEARCH, "urex", 0.1, profile="desk"))
    seeds = [3, 11, 2**62 + 5]
    envs = factory.latents(seeds, [None] * len(seeds))
    expected = [make_env(TaskId.BINARY_SEARCH, seed) for seed in seeds]
    first = [env.reset() for env in expected]
    assert [(e.n, e.array, e.query_pos) for e in envs] == [
        (e.n, e.array, e.query_pos) for e in expected]
    assert RowStepper(envs).first_obs.tolist() == first
    rng = np.random.Generator(np.random.PCG64(7))
    state = rng.bit_generator.state
    assert factory.draw_length(rng) is None
    assert rng.bit_generator.state == state
    assert factory.curriculum() is None


def test_tape_factory_draws_lengths_by_the_curriculums_rule():
    factory = env_factory_for(make_spec(TaskId.COPY, "urex", 0.1, profile="desk"))
    curriculum = factory.curriculum()
    assert curriculum.length_cap == 10 and curriculum.current_max_length == LENGTH_FLOOR
    curriculum.current_max_length = curriculum.length_cap
    a, b = (np.random.Generator(np.random.PCG64(5)) for _ in range(2))
    drawn = [factory.draw_length(a) for _ in range(200)]
    assert drawn == [curriculum.sample_length(b) for _ in range(200)]
    assert set(drawn) == set(range(LENGTH_FLOOR, 11))
