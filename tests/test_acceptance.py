"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one `criterion NN <name>: PASS/FAIL` line (run pytest
with -s to see them as they complete).  The desk-scale training runs are
shared between the training criterion and the weight-variance criterion
via a session fixture.
"""

import itertools
import math

import numpy as np
import pytest

from urex.analysis import (SmallProblem, optimal_policy_rl,
                           optimal_policy_urex, urex_objective)
from urex.curriculum import CurriculumState
from urex.envs import TaskId, make_env, oracle_rollout, oracle_script, play
from urex.harness import BanditExperimentConfig, make_spec, run_bandit_experiment, run_trial
from urex.policy import LinearBanditPolicy, finite_diff_check, policy_for_env
from urex.trainers import DoubleQLearner, QConfig, importance_weights
from urex.types import Trajectory, TrajectoryBatch

from fixed_latents import FixedBanditEnv, set_search_latent
from sampling import sample_trajectory


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number:02d} {name} failed: {detail}"


# -- 1. gradient correctness -------------------------------------------------

def test_criterion_01_gradient_correctness():
    worst_rnn = 0.0
    for seed in range(20):
        env = make_env(TaskId.COPY, 1000 + seed, (3, 3))
        env.reset()
        pol = policy_for_env(env, hidden_size=4)
        pol.init_params(np.random.Generator(np.random.PCG64(seed)))
        trajs = TrajectoryBatch.from_trajectories(
            sample_trajectory(pol, env.clone(), s) for s in range(3))
        coeffs = np.random.Generator(np.random.PCG64(500 + seed)).normal(size=3)
        worst_rnn = max(worst_rnn, finite_diff_check(pol, trajs, coeffs))

    worst_lin = 0.0
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(seed))
        env = FixedBanditEnv(0, payoffs=rng.random(40), features=rng.standard_normal((40, 30)))
        env.reset()
        pol = LinearBanditPolicy(30)
        pol.init_params(rng, scale=0.3)
        trajs = pol.sample(env, rng, k=5)
        worst_lin = max(worst_lin, finite_diff_check(pol, trajs, rng.normal(size=5), env=env))

    report(1, "gradient-correctness", worst_rnn <= 1e-4 and worst_lin <= 1e-6,
           f"recurrent max rel err {worst_rnn:.2e}, linear {worst_lin:.2e}")


# -- 2. importance weights ---------------------------------------------------

def test_criterion_02_importance_weight_suite():
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(500):
        k = int(rng.integers(1, 16))
        r = rng.normal(size=k) * rng.uniform(0.1, 5)
        lp = -rng.exponential(size=k) * rng.uniform(0.5, 10)
        tau = float(rng.uniform(0.01, 2.0))
        w = importance_weights(r, lp, tau)
        ok &= abs(w.sum() - 1.0) <= 1e-12
        shift_r = importance_weights(r + float(rng.normal()) * 3, lp, tau)
        shift_lp = importance_weights(r, lp + float(rng.normal()) * 3, tau)
        ok &= np.max(np.abs(w - shift_r)) <= 1e-12
        ok &= np.max(np.abs(w - shift_lp)) <= 1e-12
    ties = importance_weights(np.full(7, 1.3), np.full(7, -2.0), 0.5)
    ok &= np.max(np.abs(ties - 1.0 / 7.0)) <= 1e-15
    w2 = importance_weights([1.0, 0.0], [math.log(0.5)] * 2, 0.1)
    hi = 1.0 / (1.0 + math.exp(-10.0))
    case = max(abs(w2[0] - hi), abs(w2[1] - (1.0 - hi)))
    ok &= case <= 1e-9
    report(2, "importance-weights", ok, f"softmax(10,0) case err {case:.2e}")


# -- 3. combined-objective solver ---------------------------------------------

def test_criterion_03_alpha_solver():
    rng = np.random.default_rng(42)
    worst_res, worst_stat = 0.0, 0.0
    beaten = True
    for _ in range(200):
        size = int(rng.integers(2, 65))
        p = SmallProblem(rng.normal(size=size) * rng.uniform(0.2, 3),
                         float(rng.uniform(0.01, 1.0)))
        sol = optimal_policy_urex(p)
        pstar = optimal_policy_rl(p)
        worst_res = max(worst_res, abs(float(np.sum(p.tau * pstar / (sol.alpha - p.rewards))) - 1.0))
        worst_stat = max(worst_stat, float(np.max(np.abs(p.rewards + p.tau * pstar / sol.policy - sol.alpha))))
        best = urex_objective(p, sol.policy)
        for _ in range(1000):
            q = np.maximum(rng.dirichlet(np.ones(size)), 1e-12)
            q /= q.sum()
            if urex_objective(p, q) > best + 1e-12:
                beaten = False
                break
    p0 = SmallProblem(np.full(9, 1.7), 0.31)
    sol0 = optimal_policy_urex(p0)
    const_ok = abs(sol0.alpha - (1.7 + 0.31)) <= 1e-12 and np.ptp(sol0.policy) == 0.0
    report(3, "alpha-solver",
           worst_res <= 1e-12 and worst_stat <= 1e-8 and beaten and const_ok,
           f"residual {worst_res:.1e}, stationarity {worst_stat:.1e}, "
           f"random policies never beat the solution: {beaten}")


# -- 4. KL identity ------------------------------------------------------------

def test_criterion_04_kl_identity():
    from urex.analysis import kl_identity_gap

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        p = SmallProblem(rng.normal(size=16), float(rng.uniform(0.05, 1.0)))
        a = np.maximum(rng.dirichlet(np.ones(16)), 1e-9)
        b = np.maximum(rng.dirichlet(np.ones(16)), 1e-9)
        worst = max(worst, kl_identity_gap(p, a / a.sum(), b / b.sum()))
    report(4, "kl-identity", worst <= 1e-10, f"max gap {worst:.2e}")


# -- 5. estimator expectations --------------------------------------------------

def _softmax(z):
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def test_criterion_05_estimator_expectations():
    rewards = np.array([0.9, 0.4, 0.1])
    tau = 0.2
    rng = np.random.default_rng(3)
    worst_ment, worst_urex = 0.0, 0.0
    for _ in range(5):
        theta = rng.normal(size=3)
        env = FixedBanditEnv(0, payoffs=rewards, features=np.eye(3))
        env.reset()
        pol = LinearBanditPolicy(3)
        pol.params.flat[:] = theta
        pi = _softmax(theta)
        logp = np.log(pi)
        score = np.eye(3) - pi

        ment_est = np.zeros(3)
        urex_est = np.zeros(3)
        for a1, a2 in itertools.product(range(3), repeat=2):
            trajs = [Trajectory(observations=[0], actions=[(a,)], rewards=[rewards[a]],
                                total_reward=float(rewards[a]), log_prob=float(logp[a]))
                     for a in (a1, a2)]
            r = np.array([t.total_reward for t in trajs])
            lp = np.array([t.log_prob for t in trajs])
            w = pi[a1] * pi[a2]
            batch = TrajectoryBatch.from_trajectories(trajs)
            # the coefficients without the group-mean baseline, whose finite-K
            # bias would obscure the comparison with the exact gradient
            ment_coeffs = (r - tau * lp - tau) / len(r)
            urex_coeffs = r / len(r) + tau * importance_weights(r, lp, tau)
            ment_est += w * pol.weighted_grad(batch, ment_coeffs, env)
            urex_est += w * pol.weighted_grad(batch, urex_coeffs, env)

        exact_ment = (pi * (rewards - tau * logp - tau)) @ score
        worst_ment = max(worst_ment, float(np.max(np.abs(ment_est - exact_ment))))

        log_w = rewards / tau - logp
        surrogate = (pi * rewards) @ score
        for a1, a2 in itertools.product(range(3), repeat=2):
            m = max(log_w[a1], log_w[a2])
            w1, w2 = np.exp(log_w[a1] - m), np.exp(log_w[a2] - m)
            surrogate = surrogate + pi[a1] * pi[a2] * tau * (
                w1 / (w1 + w2) * score[a1] + w2 / (w1 + w2) * score[a2])
        worst_urex = max(worst_urex, float(np.max(np.abs(urex_est - surrogate))))
    report(5, "estimator-expectations", worst_ment <= 1e-8 and worst_urex <= 1e-8,
           f"ment err {worst_ment:.1e}, urex err {worst_urex:.1e}")


# -- 6. scripted search rewards -------------------------------------------------

def test_criterion_06_scripted_search_rewards():
    episodes = 100_000
    env = make_env(TaskId.BINARY_SEARCH, 20_240_601)
    linear_total = 0.0
    for _ in range(episodes):
        env.reset()
        _, _, results = play(env, oracle_script(env, "linear"))
        linear_total += results[-1].reward
    linear_mean = linear_total / episodes

    env = make_env(TaskId.BINARY_SEARCH, 20_240_602)
    binary_total = 0.0
    for _ in range(episodes):
        env.reset()
        binary_total += oracle_rollout(env, "binary").total_reward
    binary_mean = binary_total / episodes

    report(6, "scripted-search-rewards",
           abs(linear_mean - 5.0) <= 0.2 and binary_mean > 9.55,
           f"linear {linear_mean:.3f}, binary {binary_mean:.3f}")


# -- 7. desk-scale bandit --------------------------------------------------------

def test_criterion_07_desk_bandit():
    cfg = BanditExperimentConfig(num_actions=1000, dim=30, beta=8.0,
                                 repeats=20, restarts=5, steps=400, seed=0)
    result = run_bandit_experiment(cfg)
    ment = float(result.final_rewards["ment"].mean())
    urex = float(result.final_rewards["urex"].mean())
    frac = float((result.advantage_per_repeat > 0).mean())
    report(7, "desk-bandit", urex >= ment and frac >= 0.70,
           f"urex {urex:.4f} vs ment {ment:.4f}, positive advantage in {frac:.0%} of repeats")


# -- 8 & 10. desk-scale training ---------------------------------------------------

DESK_TRAINING = {
    (TaskId.COPY, "urex"): dict(tau=0.1, eta=0.1, clip=1.0, k=10, n=20, max_steps=2000),
    (TaskId.COPY, "ment"): dict(tau=0.01, eta=0.1, clip=10.0, k=10, n=20, max_steps=2000),
    (TaskId.DUPLICATED_INPUT, "urex"): dict(tau=0.1, eta=0.1, clip=1.0, k=20, n=20, max_steps=500),
    (TaskId.DUPLICATED_INPUT, "ment"): dict(tau=0.01, eta=0.1, clip=10.0, k=10, n=40, max_steps=500),
}
RESTARTS = 3


@pytest.fixture(scope="session")
def desk_runs():
    runs = {}
    for (task, method), kw in DESK_TRAINING.items():
        kw = dict(kw)
        tau = kw.pop("tau")
        results = []
        for seed in range(RESTARTS):
            spec = make_spec(task, method, tau, restart_seed=seed, profile="desk", **kw)
            results.append(run_trial(spec))
        runs[(task, method)] = results
    return runs


def test_criterion_08_desk_training(desk_runs):
    ok = True
    lines = []
    for (task, method), results in desk_runs.items():
        wins = sum(r.success for r in results)
        lines.append(f"{task.value}/{method}: {wins}/{RESTARTS}")
        ok &= wins >= 2
    report(8, "desk-training", ok, "; ".join(lines))


def test_criterion_10_weight_variance_decreases(desk_runs):
    results = [r for r in desk_runs[(TaskId.COPY, "urex")] if r.success]
    assert results, "no successful desk Copy run to analyze"
    curve = np.array(results[0].weight_variance_curve)
    tenth = max(1, len(curve) // 10)
    early = float(curve[:tenth].mean())
    late = float(curve[-tenth:].mean())
    report(10, "weight-variance-decreases", late < early,
           f"first-10% mean {early:.4f} -> final-10% mean {late:.4f}")


# -- 9. Q-learning sanity -----------------------------------------------------------

def test_criterion_09_q_learning():
    from test_trainers import ChainEnv, chain_q_values

    oracle = np.array([[1.0, 1.8], [2.0, 0.0]])
    cfg = QConfig(eps_start=1.0, eps_end=0.3, eps_decay_steps=600, sync_every=20,
                  learning_rate=0.01, discount=0.9, hidden_size=16, seed=0)
    learner = DoubleQLearner(ChainEnv(0), cfg)
    env = ChainEnv(0)
    for _ in range(2500):
        learner.train_step(env)
    chain_err = float(np.abs(chain_q_values(learner) - oracle).max())

    solved = 0
    for seed in range(5):
        qcfg = QConfig(eps_start=1.0, eps_end=0.1, eps_decay_steps=300, sync_every=10,
                       learning_rate=0.05, discount=0.99, hidden_size=8, seed=seed)
        benv = FixedBanditEnv(0, payoffs=[1.0, 0.0])
        qlearner = DoubleQLearner(benv, qcfg)
        for _ in range(500):
            qlearner.train_step(benv)
        benv.reset()
        traj = qlearner.greedy_episode(benv)
        solved += traj.actions[0] == (0,)
    report(9, "q-learning", chain_err < 1e-3 and solved == 5,
           f"chain error {chain_err:.1e}, greedy-optimal in {solved}/5 seeds")


# -- 11. trace conformance -----------------------------------------------------------

def test_criterion_11_trace_conformance():
    from test_search_scripts import GOLDEN_FINAL, GOLDEN_ROWS

    env = make_env(TaskId.BINARY_SEARCH, 0)
    obs = set_search_latent(env, 512, 100)
    ok = True
    res = None
    for regs, obs_expected, action in GOLDEN_ROWS:
        ok &= tuple(env.registers) == regs and obs == obs_expected
        res = env.step(action)
        obs = res.obs
    ok &= tuple(env.registers) == GOLDEN_FINAL[0] and obs == GOLDEN_FINAL[1]
    ok &= res.done and res.cause == "found_query"
    report(11, "trace-conformance", ok,
           f"{len(GOLDEN_ROWS)} actions replayed, final reward {res.reward:.4f}")
