"""Per-module metrics of a traced run, and the output checks made while tracing.

Every ``*_ms`` and ``*_calls`` value is per parameter update.  Spans the
benchmark opens itself (``bench.*``) are excluded from module self
times; they hold the teacher-forced replay made to check log-probs.
"""

from __future__ import annotations

import numpy as np

from tracer import MODULES, contexts, self_times

import urex

LOGPROB_TOLERANCE = 1e-9
REWARD_TOLERANCE = 1e-9
TEACHER_FORCED = "bench.teacher_forced"
EVAL = "harness.eval"


def reward_bounds(env) -> tuple[float, float]:
    """Lowest and highest total reward an episode of ``env`` can collect."""
    env = getattr(env, "_env", env)  # Q-learning's joint-action view
    if isinstance(env, urex.envs.BanditEnv):
        return 0.0, env.max_total_reward()
    if isinstance(env, urex.envs.TapeEnv):
        # each correct emission pays +1; the episode ends on a wrong
        # emission (-0.5) or at the step limit (-1)
        return -1.0, env.max_total_reward()
    raise TypeError(f"no reward bounds for {type(env).__name__}")


class OutputChecks:
    """Tracer hooks that check every training batch as it is sampled and
    count the forward work done on it."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.problems: list[str] = []
        self.batches = 0
        self.timesteps = 0
        self.rows = 0
        self.lockstep_rows = 0
        self.fwd_flop = 0.0
        self.max_len = None

    def hooks(self) -> dict:
        return {"policy.rollout": self.rollout, "policy.linear_sample": self.linear_sample,
                "curriculum.record": self.curriculum}

    def _check_rewards(self, trajs, envs) -> None:
        for traj, env in zip(trajs, envs):
            lo, hi = reward_bounds(env)
            if not lo - REWARD_TOLERANCE <= traj.total_reward <= hi + REWARD_TOLERANCE:
                self.problems.append(f"reward {traj.total_reward} outside [{lo}, {hi}]")
            if abs(sum(traj.rewards) - traj.total_reward) > REWARD_TOLERANCE:
                self.problems.append("total reward is not the sum of step rewards")

    def _check_logprobs(self, recorded, replayed) -> None:
        err = float(np.max(np.abs(np.asarray(recorded) - np.asarray(replayed))))
        if not err <= LOGPROB_TOLERANCE:
            self.problems.append(f"replayed log-probs differ from sampled ones by {err:.3g}")

    def rollout(self, args, kwargs, result) -> None:
        if kwargs.get("greedy"):
            return  # evaluation, not a training batch
        policy, envs = args[0], args[1]
        trajs, _ = result
        with self.tracer.span(TEACHER_FORCED):
            replayed, _ = policy.replay(trajs)
        self._check_logprobs([t.log_prob for t in trajs], replayed)
        self._check_rewards(trajs, envs)
        lengths = np.array([len(t.actions) for t in trajs])
        heads = sum(size for _, size in policy.heads)
        h, d = policy.hidden_size, policy.input_dim
        self.batches += 1
        self.timesteps += int(lengths.max())
        self.rows += int(lengths.sum())
        self.lockstep_rows += int(lengths.max()) * len(trajs)
        # gate pre-activations x Wx^T + h Wh^T plus the fused head logits
        self.fwd_flop += float(lengths.sum()) * (2 * 4 * h * (d + h) + 2 * h * heads)

    def linear_sample(self, args, kwargs, result) -> None:
        policy, env = args[0], args[1]
        with self.tracer.span(TEACHER_FORCED):
            logp = policy.log_probs(env)
        self._check_logprobs([t.log_prob for t in result], [logp[t.actions[0][0]] for t in result])
        self._check_rewards(result, [env] * len(result))
        self.batches += 1
        self.timesteps += 1
        self.rows += len(result)
        self.lockstep_rows += len(result)
        self.fwd_flop += 2.0 * env.features.size  # one features @ theta

    def curriculum(self, args, kwargs, result) -> None:
        self.max_len = args[0].current_max_length


def layer_metrics(spans: dict, updates: int, traced_wall_s: float, checks: OutputChecks) -> dict:
    """All per-module metrics of a traced run, keyed by metric name."""
    names = [str(n) for n in spans["names"]]
    codes = spans["name"]
    duration = spans["end"] - spans["start"]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    # a name no span has gets a code no span has
    markers = [names.index(n) if n in names else len(names) for n in (EVAL, TEACHER_FORCED)]
    ctx = contexts(codes, spans["parent"], markers)
    training, checking = ctx == -1, ctx == 1
    per = 1e3 / updates

    def pick(name, mask=None):
        """Spans of one name, or of every name starting with a "prefix."."""
        wanted = [i for i, n in enumerate(names)
                  if (n.startswith(name) if name.endswith(".") else n == name)]
        sel = np.isin(codes, wanted)
        return sel if mask is None else sel & mask

    def ms(name, mask=None, values=duration):
        return float(values[pick(name, mask)].sum()) * per

    def calls(name, mask=None):
        return int(pick(name, mask).sum()) / updates

    teacher_forced_s = float(duration[(pick("policy.replay") | pick("policy.linear_logits"))
                                      & checking].sum())
    program = ~checking & ~pick("bench.")
    top_level = spans["parent"] == -1
    m = {
        "envs.step_ms": ms("envs.step", training),
        "envs.step_calls": calls("envs.step", training),
        "envs.clone_ms": ms("envs.clone", training),
        "envs.clone_calls": calls("envs.clone", training),
        "envs.make_ms": ms("envs.make", training),
        "policy.rollout_self_ms": ms("policy.rollout", training, own)
                                  + ms("policy.linear_sample", training, own),
        "policy.teacher_forced_ms": teacher_forced_s * 1e3 / updates,
        "policy.backward_ms": ms("policy.backward", training) + ms("policy.linear_grad", training),
        "policy.replay_ms": ms("policy.replay", training),
        "policy.timesteps": checks.timesteps / updates,
        "policy.rows_computed": checks.rows / updates,
        "policy.alive_fraction": checks.rows / checks.lockstep_rows if checks.lockstep_rows else 0.0,
        "policy.fwd_gflop": checks.fwd_flop / 1e9 / updates,
        "policy.fwd_gflops_rate": checks.fwd_flop / 1e9 / teacher_forced_s if teacher_forced_s else 0.0,
        "policy.linear_collect_ms": ms("policy.linear_collect"),
        "policy.linear_grad_ms": ms("policy.linear_grad"),
        "policy.linear_eval_ms": ms("policy.linear_eval"),
        "trainers.coefficients_ms": ms("trainers.group_coefficients"),
        "trainers.coefficient_calls": calls("trainers.coefficients"),
        "trainers.clip_ms": ms("trainers.clip"),
        "trainers.adam_ms": ms("trainers.adam"),
        "trainers.step_self_ms": ms("trainers.step", None, own),
        "trainers.q_update_self_ms": ms("trainers.q_update", None, own),
        "curriculum.record_ms": ms("curriculum.record"),
        "curriculum.record_calls": calls("curriculum.record"),
        "curriculum.max_len": checks.max_len if checks.max_len is not None else 0,
        "harness.eval_ms": ms(EVAL),
        "harness.eval_calls": calls(EVAL),
        "harness.trial_self_ms": ms("harness.run_trial", None, own),
        "harness.bandit_self_ms": ms("harness.bandit_experiment", None, own)
                                  + ms("harness.train_bandit_policy", None, own),
        "unattributed_ms": (traced_wall_s - float(duration[top_level].sum())) * per,
    }
    for module in MODULES:
        m[f"{module}.self_ms"] = ms(module + ".", program, own)
        m[f"{module}.calls"] = calls(module + ".", program)
    return m
