"""The recurrent policy's forward and backward passes against a plain
specification, bit for bit.

The specification holds the recurrent state of the full batch, runs one
log-softmax and one cumulative-sum draw per head, steps scalar env
clones row by row, and backpropagates with a full-batch state gradient.
The policy under test holds only the running rows, runs the first
step's cell once per distinct first observation, fuses its heads, steps
drawn latents on array state (and lists of envs row by row) and stops
BPTT's first step once its input-weight gradients are in, and caches
only what BPTT cannot rebuild; every output, every cached array and
every gradient must equal the specification's exactly.
"""

import numpy as np
import pytest

from urex.envs import TaskId, draw_latents, lockstep, make_env
from urex.policy import policy_for_env

from joint_action import JointActionView


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
                          o=o, g=g, c=c_new, tanh_c=tanh_c, h=h_new, logits=logits, probs=probs,
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


def split_heads(pol, step):
    """A cached step's ``head_probs`` as one array per head of ``pol``."""
    return np.split(step.head_probs, np.cumsum(pol.head_sizes)[:-1], axis=1)


def assert_cache_matches(pol, cache, steps, B):
    """The compact cache holds the specification's per-step arrays, its
    one-hot input as the columns of its 1.0s, and every cached array is
    C-contiguous."""
    assert cache[0].idx.size == B and len(cache) == len(steps)  # every row runs step 0
    for t, (st, spec) in enumerate(zip(cache, steps)):
        for name, value in vars(st).items():
            if isinstance(value, np.ndarray):
                assert value.flags.c_contiguous, f"step {t}: {name} is not C-contiguous"
        x = np.zeros((st.idx.size, pol.input_dim))
        np.put_along_axis(x, st.cols, 1.0, axis=1)
        assert same_bits(x, spec["x"]), f"step {t}: x from cols"
        if st.shared is not None:  # step 0's gates, g and c, one row per distinct first input
            assert t == 0 and np.unique(st.cols).size == len(st.gates) < st.idx.size
        for name in ("idx", "gates", "g", "c", "actions"):
            value = getattr(st, name)
            if st.shared is not None and name in ("gates", "g", "c"):
                value = value[st.shared]  # through step 0's row map
            assert same_bits(value, np.ascontiguousarray(spec[name])), f"{t}: {name}"
        assert same_bits(st.logits, np.concatenate(spec["logits"], axis=1)), f"step {t}"
        for k, (probs, spec_probs) in enumerate(zip(split_heads(pol, st), spec["probs"],
                                                    strict=True)):
            assert same_bits(np.ascontiguousarray(probs), spec_probs), f"step {t}: head {k}"
        following = steps[t + 1]["idx"] if t + 1 < len(steps) else np.array([], dtype=np.int64)
        assert np.array_equal(st.idx[st.kept], following), f"step {t}: kept rows"


def make_envs(kind):
    """Four latents, each listed three times, with mixed episode lengths:
    a list of envs, stepped row by row, or for "-latents" kinds drawn
    latents, stepped on arrays."""
    name, _, form = kind.partition("-")
    task = TaskId(name)
    if form == "latents":
        return draw_latents(task, list(range(4)), [(2, 6)] * 4).repeat(3)
    length_range = (6, 12) if task is TaskId.BINARY_SEARCH else (2, 6)
    group = [make_env(task, seed, length_range) for seed in range(4)]
    for env in group:
        env.reset()
    if form == "joint":
        group = [JointActionView(env) for env in group]
    return [env for env in group for _ in range(3)]


KINDS = ["Copy", "DuplicatedInput", "ReversedAddition", "BinarySearch", "Copy-joint",
         "Copy-latents", "DuplicatedInput-latents", "ReversedAddition-latents"]
MODES = {"sampled": {}, "greedy": {"greedy": True}, "eps_greedy": {"eps": 0.3}}


def first_step_rows(pol):
    """Record the row count of each forward pass's first cell call."""
    rows, cell = [], pol._cell

    def spy(x, h_prev, c_prev, weights, scratch, first):
        if first:
            rows.append(x.shape[0])
        return cell(x, h_prev, c_prev, weights, scratch, first)

    pol._cell = spy
    return rows


def check_against_specification(envs, hidden_size, mode):
    """Rollout, replay and both gradients equal the specification's bits;
    returns the batch and the row counts of the two first cell calls."""
    pol = policy_for_env(envs[0], hidden_size=hidden_size)
    pol.init_params(np.random.Generator(np.random.PCG64(7)))
    cell_rows = first_step_rows(pol)
    batch, cache = pol.rollout(envs, rng=np.random.Generator(np.random.PCG64(1)), collect=True,
                               **MODES[mode])
    logp, steps, episodes = spec_rollout(pol, list(envs),
                                         rng=np.random.Generator(np.random.PCG64(1)),
                                         **MODES[mode])
    B = len(envs)
    assert same_bits(batch.log_probs, logp)
    for traj, env, (observations, actions, rewards, cause) in zip(batch, envs, episodes):
        assert (traj.observations, traj.actions, traj.rewards) == (observations, actions, rewards)
        assert traj.cause == cause and traj.env_seed == env.seed
        assert traj.total_reward == float(sum(rewards))
        assert traj.max_total_reward == env.max_total_reward()
    assert_cache_matches(pol, cache, steps, B)
    coeffs = np.linspace(-1.0, 1.5, B)
    coeffs[3:6] = 0.0  # a group whose rewards tie
    assert same_bits(pol.grad_weighted_logprob(cache, coeffs),
                     spec_backward(pol, steps, B, coeffs))

    replayed, replay_cache = pol.replay(batch, collect=True)
    spec_logp, spec_steps = spec_replay(pol, batch)
    assert same_bits(replayed, spec_logp)
    assert_cache_matches(pol, replay_cache, spec_steps, B)
    assert same_bits(pol.grad_weighted_logprob(replay_cache, coeffs),
                     spec_backward(pol, spec_steps, B, coeffs))
    return batch, cell_rows


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", KINDS)
def test_rollout_replay_and_gradient_match_the_specification(kind, mode):
    batch, _ = check_against_specification(make_envs(kind), 8, mode)
    assert len(set(batch.lengths.tolist())) > 1


def first_step_envs(case):
    """Batches at the desk trainer's shapes (H = 32): N drawn latents with
    K = 10 rows each (N = 20 for Copy, 40 for DuplicatedInput), which
    share first observations, and batches whose first observations are
    all distinct (seeds 0-4 start on 5 distinct symbols)."""
    task = TaskId.DUPLICATED_INPUT if case.startswith("DuplicatedInput") else TaskId.COPY
    if case.endswith("B=1"):
        env = make_env(task, 0, (2, 6))
        env.reset()
        return [env]
    if case.endswith("distinct"):
        return draw_latents(task, list(range(5)), [(2, 8)] * 5)
    n = 40 if task is TaskId.DUPLICATED_INPUT else 20
    return draw_latents(task, list(range(n)), [(2, 8)] * n).repeat(10)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", ["Copy-K=10", "DuplicatedInput-K=10", "Copy-B=1",
                                  "DuplicatedInput-B=1", "Copy-distinct"])
def test_first_step_runs_the_cell_once_per_distinct_first_observation(case, mode):
    envs = first_step_envs(case)
    first = lockstep(envs).first_obs
    distinct = np.unique(first).size
    assert (len(envs) >= 40 and distinct < len(envs)) if "K=10" in case else distinct == len(envs)
    _, cell_rows = check_against_specification(envs, 32, mode)
    assert cell_rows == [distinct, distinct]  # the rollout's and the replay's


@pytest.mark.parametrize("mode", ["sampled", "eps_greedy"])
def test_full_scale_batch_matches_the_specification(mode):
    """The full trainer's shapes, (B, H) = (400, 128): 40 drawn
    DuplicatedInput latents of lengths 2..33 with K = 10 rows each.  BPTT's
    first step takes the input-weight product over all 400 rows, and the
    longest episode runs its last steps on one row, where the recurrent
    weight product takes its one-row form."""
    envs = draw_latents(TaskId.DUPLICATED_INPUT, list(range(40)), [(2, 33)] * 40).repeat(10)
    batch, _ = check_against_specification(envs, 128, mode)
    lengths = batch.lengths
    assert lengths.size == 400
    assert np.count_nonzero(lengths == lengths.max()) == 1  # a one-row step


def test_first_step_caches_one_row_per_distinct_first_observation():
    """40 drawn DuplicatedInput latents with K = 10 rows each: step 0 keeps
    gates, g and c for its distinct first observations alone, beside the
    row map that gathers them to the rows, and the gradient read through
    that map is the specification's."""
    envs = draw_latents(TaskId.DUPLICATED_INPUT, list(range(40)), [(2, 8)] * 40).repeat(10)
    pol = policy_for_env(envs[0], hidden_size=32)
    pol.init_params(np.random.Generator(np.random.PCG64(7)))
    _, cache = pol.rollout(envs, rng=np.random.Generator(np.random.PCG64(1)), collect=True)
    _, steps, _ = spec_rollout(pol, list(envs), rng=np.random.Generator(np.random.PCG64(1)))
    first = lockstep(envs).first_obs
    distinct = np.unique(first).size
    step0 = cache[0]
    assert distinct <= 6 and len(first) == 400
    assert (step0.gates.shape, step0.g.shape, step0.c.shape) == ((distinct, 96), (distinct, 32),
                                                                 (distinct, 32))
    assert np.array_equal(np.unique(first)[step0.shared], first)
    assert all(st.shared is None for st in cache[1:])
    coeffs = np.linspace(-1.0, 1.5, 400)
    assert same_bits(pol.grad_weighted_logprob(cache, coeffs),
                     spec_backward(pol, steps, 400, coeffs))
