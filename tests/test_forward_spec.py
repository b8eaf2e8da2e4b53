"""The recurrent policy's forward and backward passes against a plain
specification, bit for bit.

The specification holds the recurrent state of the full batch, runs one
log-softmax and one cumulative-sum draw per head, steps scalar env
clones row by row, and backpropagates with a full-batch state gradient.
The policy under test holds only the running rows, fuses its heads and
steps envs on array state; every output, every cached array and every
gradient must equal the specification's exactly.
"""

import numpy as np
import pytest

from urex.envs import TaskId, draw_latents, make_env
from urex.policy import policy_for_env
from urex.trainers import JointActionView


def _log_softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def head_slices(pol):
    ends = np.cumsum([size for _, size in pol.heads]).tolist()
    return [slice(end - size, end) for end, (_, size) in zip(ends, pol.heads)]


def stacked_heads(pol):
    p = pol.params
    w = np.concatenate([p.view(f"head_{n}_w") for n, _ in pol.heads], axis=0)
    b = np.concatenate([p.view(f"head_{n}_b") for n, _ in pol.heads])
    return w, b


def spec_forward(pol, first_obs, choose, advance):
    """Full-batch forward: every row's state lives in (B, H) arrays and the
    running rows ``idx`` are gathered from them and scattered back."""
    p, hs, B = pol.params, pol.hidden_size, first_obs.size
    h, c = np.zeros((B, hs)), np.zeros((B, hs))
    obs, prev = first_obs.copy(), None
    idx, logp_total, steps = np.arange(B), np.zeros(B), []
    w_all, b_all = stacked_heads(pol)
    t = 0
    while idx.size:
        rows = np.arange(idx.size)
        x = np.zeros((idx.size, pol.input_dim))
        x[rows, obs[idx]] = 1.0
        if prev is not None:
            offset = pol.obs_dim
            for k, (_, size) in enumerate(pol.heads):
                x[rows, offset + prev[idx, k]] = 1.0
                offset += size
        z = x @ p.view("lstm_wx").T + h[idx] @ p.view("lstm_wh").T + p.view("lstm_b")
        gates = 0.5 * np.tanh(0.5 * z[:, : 3 * hs]) + 0.5
        i, f, o = gates[:, :hs], gates[:, hs : 2 * hs], gates[:, 2 * hs :]
        g = np.tanh(z[:, 3 * hs :])
        c_new = f * c[idx] + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        logits_all = h_new @ w_all.T + b_all
        logits = [logits_all[:, cols] for cols in head_slices(pol)]
        logps = [_log_softmax(z) for z in logits]
        probs = [np.exp(lp) for lp in logps]
        actions = choose(t, idx, logits, probs)
        logp_step = np.zeros(idx.size)
        for k, lp in enumerate(logps):
            logp_step += lp[rows, actions[:, k]]
        logp_total[idx] += logp_step
        steps.append(dict(idx=idx, x=x, h_prev=h[idx], c_prev=c[idx], gates=gates, i=i, f=f,
                          o=o, g=g, tanh_c=tanh_c, h=h_new, logits=logits, probs=probs,
                          actions=actions))
        h[idx], c[idx] = h_new, c_new
        prev = np.zeros((B, len(pol.heads)), dtype=np.int64)
        prev[idx] = actions
        idx = advance(t, idx, actions, obs)
        t += 1
    return logp_total, steps


def spec_rollout(pol, envs, rng=None, greedy=False, eps=None):
    """Episodes through scalar env clones, stepped row by row; returns the
    log-probs, the steps and each row's (observations, actions, rewards,
    cause)."""
    B, K = len(envs), len(pol.heads)
    clones = [env.clone() for env in envs]
    first = np.array([env.restart() for env in clones], dtype=np.int64)
    episodes = [([], [], [], None) for _ in range(B)]

    def choose(t, idx, logits, probs):
        if greedy:
            return np.stack([z.argmax(axis=1) for z in logits], axis=1)
        u_all = rng.random((B, K))
        actions = np.zeros((idx.size, K), dtype=np.int64)
        for k, p in enumerate(probs):
            size = p.shape[1]
            if eps is not None:
                randa = rng.integers(0, size, size=B)
                actions[:, k] = np.where(u_all[idx, k] < eps, randa[idx],
                                         logits[k].argmax(axis=1))
            else:
                u = u_all[idx, k][:, None]
                actions[:, k] = np.minimum((np.cumsum(p, axis=1) < u).sum(axis=1), size - 1)
        return actions

    def advance(t, idx, actions, obs):
        alive = []
        for b, a in zip(idx.tolist(), actions.tolist()):
            res = clones[b].step(clones[b].decode_action(tuple(a)))
            observations, acts, rewards, _ = episodes[b]
            observations.append(int(obs[b]))
            acts.append(tuple(a))
            rewards.append(res.reward)
            episodes[b] = (observations, acts, rewards, res.cause)
            if not res.done:
                obs[b] = res.obs
                alive.append(b)
        return np.array(alive, dtype=np.int64)

    logp, steps = spec_forward(pol, first, choose, advance)
    return logp, steps, episodes


def spec_replay(pol, batch):
    lengths = batch.lengths

    def advance(t, idx, actions, obs):
        idx = np.flatnonzero(t + 1 < lengths)
        if idx.size:
            obs[idx] = batch.observations[idx, t + 1]
        return idx

    return spec_forward(pol, batch.observations[:, 0], lambda t, idx, logits, probs:
                        batch.actions[idx, t], advance)


def spec_backward(pol, steps, B, coefficients):
    """BPTT with full-batch state gradients and per-head logit gradients."""
    p, hs = pol.params, pol.hidden_size
    grads = {name: np.zeros(shape) for name, (_, shape) in p.segments.items()}
    w_all, _ = stacked_heads(pol)
    g_w_all, g_b_all = np.zeros((w_all.shape[0], hs)), np.zeros(w_all.shape[0])
    dh_next, dc_next = np.zeros((B, hs)), np.zeros((B, hs))
    for st in reversed(steps):
        idx = st["idx"]
        scale = coefficients[idx]
        rows = np.arange(idx.size)
        dl = np.concatenate(st["probs"], axis=1) * (-scale[:, None])
        off = 0
        for k, (_, size) in enumerate(pol.heads):
            dl[rows, off + st["actions"][:, k]] += scale
            off += size
        g_w_all += dl.T @ st["h"]
        g_b_all += dl.sum(axis=0)
        dh = dh_next[idx] + dl @ w_all
        i, f, o, g, tanh_c = st["i"], st["f"], st["o"], st["g"], st["tanh_c"]
        do = dh * tanh_c
        dc = dc_next[idx] + dh * o * (1.0 - tanh_c**2)
        di, df, dg = dc * g, dc * st["c_prev"], dc * i
        dz = np.empty((idx.size, 4 * hs))
        np.multiply(di * i, 1.0 - i, out=dz[:, :hs])
        np.multiply(df * f, 1.0 - f, out=dz[:, hs : 2 * hs])
        np.multiply(do * o, 1.0 - o, out=dz[:, 2 * hs : 3 * hs])
        np.multiply(dg, 1.0 - g**2, out=dz[:, 3 * hs :])
        grads["lstm_wx"] += dz.T @ st["x"]
        grads["lstm_wh"] += dz.T @ st["h_prev"]
        grads["lstm_b"] += dz.sum(axis=0)
        dh_next = np.zeros((B, hs))
        dh_next[idx] = dz @ p.view("lstm_wh")
        dc_next = np.zeros((B, hs))
        dc_next[idx] = dc * f
    off = 0
    for name, size in pol.heads:
        grads[f"head_{name}_w"] = g_w_all[off : off + size]
        grads[f"head_{name}_b"] = g_b_all[off : off + size]
        off += size
    return np.concatenate([grads[name].ravel() for name in p.segments])


def same_bits(a, b):
    """Equal dtype, shape and bytes: -0.0 and 0.0 differ, as in a digest."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_cache_matches(cache, steps, B):
    """The compact cache holds the specification's per-step arrays, and
    every cached array is C-contiguous."""
    assert cache.batch_size == B and len(cache.steps) == len(steps)
    for t, (st, spec) in enumerate(zip(cache.steps, steps)):
        for name, value in vars(st).items():
            if isinstance(value, np.ndarray):
                assert value.flags.c_contiguous, f"step {t}: {name} is not C-contiguous"
        for name in ("idx", "x", "h_prev", "c_prev", "gates", "g", "tanh_c", "h", "actions"):
            assert same_bits(getattr(st, name), np.ascontiguousarray(spec[name])), f"{t}: {name}"
        assert same_bits(st.logits, np.concatenate(spec["logits"], axis=1)), f"step {t}"
        for k, probs in enumerate(spec["probs"]):
            assert same_bits(np.ascontiguousarray(st.probs[k]), probs), f"step {t}: head {k}"
        following = steps[t + 1]["idx"] if t + 1 < len(steps) else np.array([], dtype=np.int64)
        assert np.array_equal(st.idx[st.kept], following), f"step {t}: kept rows"


def make_envs(kind):
    """Four latents, each listed three times, with mixed episode lengths."""
    if kind == "BinarySearch":
        group = [make_env(TaskId.BINARY_SEARCH, seed, (6, 12)) for seed in range(4)]
    else:
        task = TaskId.COPY if kind in ("Copy-joint", "Copy-latents") else TaskId.parse(kind)
        group = [make_env(task, seed, (2, 6)) for seed in range(4)]
    for env in group:
        env.reset()
    if kind == "Copy-joint":
        group = [JointActionView(env) for env in group]
    if kind == "Copy-latents":
        return draw_latents(TaskId.COPY, list(range(4)), [(2, 6)] * 4).repeat(3)
    return [env for env in group for _ in range(3)]


KINDS = ["Copy", "DuplicatedInput", "ReversedAddition", "BinarySearch", "Copy-joint",
         "Copy-latents"]
MODES = {"sampled": {}, "greedy": {"greedy": True}, "eps_greedy": {"eps": 0.3}}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", KINDS)
def test_rollout_replay_and_gradient_match_the_specification(kind, mode):
    envs = make_envs(kind)
    pol = policy_for_env(envs[0], hidden_size=8)
    pol.init_params(np.random.Generator(np.random.PCG64(7)))
    batch, cache = pol.rollout(envs, rng=np.random.Generator(np.random.PCG64(1)), collect=True,
                               **MODES[mode])
    logp, steps, episodes = spec_rollout(pol, list(envs),
                                         rng=np.random.Generator(np.random.PCG64(1)),
                                         **MODES[mode])
    B = len(envs)
    assert same_bits(batch.log_probs, logp)
    assert len(set(batch.lengths.tolist())) > 1
    for traj, env, (observations, actions, rewards, cause) in zip(batch, envs, episodes):
        assert (traj.observations, traj.actions, traj.rewards) == (observations, actions, rewards)
        assert traj.cause == cause and traj.env_seed == env.seed
        assert traj.total_reward == float(sum(rewards))
        assert traj.max_total_reward == env.max_total_reward()
    assert_cache_matches(cache, steps, B)
    coeffs = np.linspace(-1.0, 1.5, B)
    coeffs[3:6] = 0.0  # a group whose rewards tie
    assert same_bits(pol.grad_weighted_logprob(cache, coeffs),
                     spec_backward(pol, steps, B, coeffs))

    replayed, replay_cache = pol.replay(batch, collect=True)
    spec_logp, spec_steps = spec_replay(pol, batch)
    assert same_bits(replayed, spec_logp)
    assert_cache_matches(replay_cache, spec_steps, B)
    assert same_bits(pol.grad_weighted_logprob(replay_cache, coeffs),
                     spec_backward(pol, spec_steps, B, coeffs))
