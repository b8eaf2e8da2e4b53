"""Training-step behavior: improvement on tiny problems, metrics schema,
and the double Q-learning baseline."""

import numpy as np
import pytest

from urex.curriculum import CurriculumState
from urex.envs.base import COMPLETED, Env, StepResult
from urex.envs.bandit import BanditEnv
from urex.envs import TaskId
from urex.harness import make_spec
from urex.harness.trial import env_factory_for
from urex.policy import LinearBanditPolicy, policy_for_env
from urex.trainers import (AdamState, DoubleQLearner, PolicyGradientTrainer,
                           QConfig, TrainConfig, update)
from urex.types import Trajectory


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


def two_arm_env():
    env = BanditEnv(0, payoffs=[1.0, 0.0])
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
    env = BanditEnv(0, payoffs=[0.8, 0.2, 0.1])
    cfg = TrainConfig(method="urex", tau=0.1, learning_rate=0.05, clip_norm=5.0,
                      k=4, n=2, seed=3)
    pol = LinearBanditPolicy(3)
    pol.init_params(np.random.Generator(np.random.PCG64(0)), scale=0.1)
    trainer = PolicyGradientTrainer(pol, lambda seed, length: BanditEnv(0, payoffs=[0.8, 0.2, 0.1]), cfg)
    required = {"step", "method", "tau", "eta", "clip", "mean_reward", "coef_mean",
                "coef_std", "grad_norm_pre", "grad_norm_post", "wall_ms",
                "weight_variance", "max_len"}
    for _ in range(5):
        row = trainer.step().record()
        assert required.issubset(row.keys())
    # entropy-regularized method has no weight variance field
    cfg2 = TrainConfig(method="ment", tau=0.01, learning_rate=0.05, clip_norm=5.0, k=4, n=2)
    pol2 = LinearBanditPolicy(3)
    trainer2 = PolicyGradientTrainer(pol2, lambda s, l: BanditEnv(0, payoffs=[0.8, 0.2, 0.1]), cfg2)
    assert "weight_variance" not in trainer2.step().record()


def test_trainer_deterministic():
    def run():
        cfg = TrainConfig(method="urex", tau=0.1, learning_rate=0.05, clip_norm=5.0,
                          k=4, n=2, seed=11)
        pol = LinearBanditPolicy(3)
        pol.init_params(np.random.Generator(np.random.PCG64(1)), scale=0.1)
        trainer = PolicyGradientTrainer(
            pol, lambda s, l: BanditEnv(0, payoffs=[0.8, 0.2, 0.1]), cfg)
        for _ in range(10):
            m = trainer.step()
        return pol.params.flat.copy(), m.mean_reward

    p1, r1 = run()
    p2, r2 = run()
    assert np.array_equal(p1, p2) and r1 == r2


def test_one_batch_advances_curriculum_at_most_one_level():
    # one arm paying 1: every episode of every batch is perfect
    cfg = TrainConfig(method="ment", tau=0.0, learning_rate=0.05, clip_norm=5.0,
                      k=10, n=4, seed=0)
    pol = LinearBanditPolicy(1)
    cur = CurriculumState(window=10)
    trainer = PolicyGradientTrainer(pol, lambda s, l: BanditEnv(0, payoffs=[1.0]), cfg, cur)
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


def chain_q_values(learner):
    probe = Trajectory(observations=[0, 1], actions=[(1,), (0,)],
                       rewards=[0.0, 2.0], total_reward=2.0)
    return learner.q_values(probe)


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
    env = BanditEnv(0, payoffs=[1.0, 0.0])
    learner = DoubleQLearner(env, cfg)
    for _ in range(400):
        learner.train_step(env)
    traj = Trajectory(observations=[0], actions=[(0,)], rewards=[1.0], total_reward=1.0)
    q = learner.q_values(traj)[0]
    # terminal one-step targets regress Q toward the raw payoffs
    assert abs(q[0] - 1.0) < 0.05 and abs(q[1] - 0.0) < 0.05


def test_q_solves_two_arm_bandit_greedy():
    for seed in range(5):
        cfg = QConfig(eps_start=1.0, eps_end=0.1, eps_decay_steps=300, sync_every=10,
                      learning_rate=0.05, discount=0.99, hidden_size=8, seed=seed)
        env = BanditEnv(0, payoffs=[1.0, 0.0])
        learner = DoubleQLearner(env, cfg)
        for _ in range(500):
            learner.train_step(env)
        env.reset()
        traj = learner.greedy_episode(env)
        assert traj.actions[0] == (0,) and traj.total_reward == 1.0


def test_q_full_exploration_uniform_actions():
    cfg = QConfig(eps_start=1.0, eps_end=1.0, sync_every=1000, learning_rate=1e-4,
                  hidden_size=8, seed=2)
    env = BanditEnv(0, payoffs=np.zeros(4))
    learner = DoubleQLearner(env, cfg)
    counts = np.zeros(4)
    n = 4000
    for _ in range(n):
        m = learner.train_step(env)
    # replay the learner's own rng draws is awkward; sample fresh episodes instead
    rng = np.random.Generator(np.random.PCG64(5))
    from urex.trainers import JointActionView

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
    env = BanditEnv(0, payoffs=[0.5, 0.5])
    learner = DoubleQLearner(env, cfg)
    for i in range(1, 10):
        learner.train_step(env)
        synced = np.array_equal(learner.target.params.flat, learner.online.params.flat)
        assert synced == (i % 5 == 0)


@pytest.mark.parametrize("curriculum", [True, False], ids=["curriculum", "fixed_range"])
def test_trainer_draws_tape_latents_as_its_per_env_factory_makes_them(curriculum):
    # the spec's factory draws each batch into arrays; a plain lambda over
    # it makes and resets every env on its own
    spec = make_spec(TaskId.DUPLICATED_INPUT, "urex", 0.1, eta=0.1, profile="desk", n=4, k=3,
                     length_cap=6)
    factory = env_factory_for(spec)
    runs = []
    for env_factory in (factory, lambda seed, length: factory(seed, length)):
        policy = policy_for_env(factory(0, 2), hidden_size=8)
        policy.init_params(np.random.Generator(np.random.PCG64(3)))
        config = TrainConfig(method="urex", tau=0.1, learning_rate=0.1, k=3, n=4, seed=5)
        trainer = PolicyGradientTrainer(policy, env_factory, config,
                                        CurriculumState(length_cap=6) if curriculum else None)
        rows = [{k: v for k, v in trainer.step().record().items() if k != "wall_ms"}
                for _ in range(6)]
        runs.append((rows, policy.params.flat.copy()))
    (rows_a, params_a), (rows_b, params_b) = runs
    assert rows_a == rows_b
    assert np.array_equal(params_a, params_b)
