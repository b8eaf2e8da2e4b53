"""Recurrent sequence policy: gated memory cell, factored softmax heads,
ancestral sampling and analytic backpropagation through time.

The network consumes a one-hot of the current observation concatenated
with one-hots of the previous step's action factors (zeros on the first
step), runs one LSTM layer, and emits one categorical head per action
factor.  The joint action log-probability is the sum over heads; the
gradient of any coefficient-weighted sum of trajectory log-probabilities
is computed exactly by unrolling the cell backwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..envs import lockstep, repeat_envs
from ..types import Trajectory, TrajectoryBatch
from .params import ParamVector

INIT_SCALE = 0.08
FORGET_BIAS = 1.0


class PolicyDivergence(RuntimeError):
    """Raised when the forward pass produces non-finite activations."""


@dataclass
class _StepCache:
    """One time step of the rows still running; every array is C-contiguous."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    gates: np.ndarray  # (n_alive, 3 * hidden): input, forget and output gates
    g: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray
    logits: np.ndarray  # (n_alive, total head size): the heads side by side
    head_probs: np.ndarray  # (n_alive, total head size)
    head_sizes: tuple
    actions: np.ndarray  # (n_alive, n_heads) ints
    idx: np.ndarray  # alive row indices into the full batch
    kept: np.ndarray  # positions in ``idx`` of the rows that run the next step

    @property
    def probs(self) -> list:
        """Per-head views of ``head_probs``."""
        return np.split(self.head_probs, np.cumsum(self.head_sizes)[:-1], axis=1)


@dataclass
class RolloutCache:
    batch_size: int = 0
    steps: list = field(default_factory=list)


class RecurrentPolicy:
    """Single recurrent layer with per-factor categorical heads.

    The heads run fused: their logits sit in one (rows, heads, widest
    head) array, padded with -inf past each head's size, so one
    log-softmax, one sampling pass and one log-prob gather serve every
    head.  Padding adds only exact zeros to the softmax sums, which run
    in entry order, so the bits equal per-head work for heads under 8
    entries wide, the width below which numpy sums a row in order.
    Heads of one width need no padding and sum as per-head work does.
    """

    def __init__(self, obs_dim: int, heads, hidden_size: int = 128):
        self.obs_dim = int(obs_dim)
        self.heads = tuple((str(n), int(s)) for n, s in heads)
        self.hidden_size = int(hidden_size)
        self.input_dim = self.obs_dim + sum(s for _, s in self.heads)
        h, d = self.hidden_size, self.input_dim
        segments = [("lstm_wx", (4 * h, d)), ("lstm_wh", (4 * h, h)), ("lstm_b", (4 * h,))]
        for name, size in self.heads:
            segments += [(f"head_{name}_w", (size, h)), (f"head_{name}_b", (size,))]
        self.params = ParamVector(segments)
        sizes = [s for _, s in self.heads]
        self.head_sizes = tuple(sizes)
        self._width = width = max(sizes)
        self._head_offsets = np.cumsum([0] + sizes[:-1])  # each head's first column
        self._input_offsets = self.obs_dim + self._head_offsets
        # Narrower heads are padded: slot (j, k) of a (widest, heads) layout
        # reads logit column ``source`` (any column past a head's size,
        # which ``pad`` then sets to -inf); ``entries`` lists the slots of
        # head entries in column order.
        self._padding = None
        if any(s < width for s in sizes):
            slots = [(j, k) for j in range(width) for k in range(len(sizes))]
            source = [self._head_offsets[k] + min(j, sizes[k] - 1) for j, k in slots]
            pad = [0.0 if j < sizes[k] else -np.inf for j, k in slots]
            entries = [j * len(sizes) + k for k, s in enumerate(sizes) for j in range(s)]
            self._padding = (np.array(source), np.array(pad)[:, None], np.array(entries))

    def init_params(self, rng: np.random.Generator) -> None:
        self.params.flat[:] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=self.params.size)
        h = self.hidden_size
        self.params.view("lstm_b")[h : 2 * h] += FORGET_BIAS

    def spawn_like(self) -> "RecurrentPolicy":
        other = RecurrentPolicy(self.obs_dim, self.heads, self.hidden_size)
        other.params.flat[:] = self.params.flat
        return other

    def meta(self) -> dict:
        return {
            "kind": "recurrent",
            "obs_dim": self.obs_dim,
            "heads": [list(h) for h in self.heads],
            "hidden_size": self.hidden_size,
        }

    @classmethod
    def from_meta(cls, meta: dict) -> "RecurrentPolicy":
        return cls(meta["obs_dim"], [tuple(h) for h in meta["heads"]], meta["hidden_size"])

    # -- forward pieces ------------------------------------------------------
    def _cell(self, x, h_prev, c_prev, weights, scratch, first):
        """One LSTM step.  Values that no later step reads go to rows of
        the ``scratch`` arrays."""
        hs, n = self.hidden_size, x.shape[0]
        wx_t, wh_t, b = weights
        z = np.matmul(x, wx_t, out=scratch[0][:n])
        if not first:  # h_prev is all zeros on the first step, and z + 0.0 == z
            z += np.matmul(h_prev, wh_t, out=scratch[1][:n])
        z += b
        gates = np.multiply(z[:, : 3 * hs], 0.5)  # sigmoid in tanh form: stable for any magnitude
        np.tanh(gates, out=gates)
        gates *= 0.5
        gates += 0.5
        g = np.tanh(z[:, 3 * hs :])
        c = gates[:, hs : 2 * hs] * c_prev
        c += np.multiply(gates[:, :hs], g, out=scratch[2][:n])
        tanh_c = np.tanh(c)
        h = tanh_c * gates[:, 2 * hs :]
        return gates, g, c, tanh_c, h

    def _stacked_heads(self):
        """Concatenated head weights for one fused logits matmul."""
        p = self.params
        w = np.concatenate([p.view(f"head_{n}_w") for n, _ in self.heads], axis=0)
        b = np.concatenate([p.view(f"head_{n}_b") for n, _ in self.heads])
        return w, b

    # -- forward pass ---------------------------------------------------------
    def _forward(self, obs, choose, advance, collect):
        """Run the rows of ``obs`` (their first observations) in lockstep.

        Recurrent state, observations and previous actions are held only
        for the running rows ``idx``.  Each step ``choose(t, idx, logits,
        probs)`` returns their (n_alive, n_heads) actions from the padded
        (n_alive, n_heads, widest head) head logits and probabilities,
        and ``advance(t, idx, actions)`` returns a keep mask over them and
        the next observations of the kept rows, by which the state is
        compacted.
        Returns (per-row log-probs, cache or None).
        """
        B, hs, K, W = obs.size, self.hidden_size, len(self.heads), self._width
        p = self.params
        weights = p.view("lstm_wx").T, p.view("lstm_wh").T, p.view("lstm_b")
        scratch = np.empty((B, 4 * hs)), np.empty((B, 4 * hs)), np.empty((B, hs))
        w_all, b_all = self._stacked_heads()
        w_all_t = w_all.T
        heads = np.arange(K)
        h = np.zeros((B, hs))
        c = np.zeros((B, hs))
        idx = np.arange(B)
        cols = obs[:, None]  # one-hot input columns: observation, then previous actions
        logp_total = np.zeros(B)
        cache = RolloutCache(batch_size=B) if collect else None
        t = 0
        while idx.size:
            n = idx.size
            rows = np.arange(n)[:, None]
            x = np.zeros((n, self.input_dim))
            x[rows, cols] = 1.0
            gates, g, c_new, tanh_c, h_new = self._cell(x, h, c, weights, scratch, t == 0)
            if not np.isfinite(h_new.sum()):  # |h| <= 1 wherever it is finite
                raise PolicyDivergence("non-finite recurrent state in the forward pass")
            z = h_new @ w_all_t
            z += b_all
            if self._padding is None:
                logits = z.reshape(n, K, W)
            else:
                # (rows, heads, widest) view of a (widest, heads, rows)
                # array: reducing over the widest axis then runs over planes
                source, pad, entries = self._padding
                logits = z.T.take(source, axis=0)
                logits += pad
                logits = logits.reshape(W, K, n).T
            logp = logits - logits.max(axis=2, keepdims=True)
            norm = np.exp(logp).sum(axis=2, keepdims=True)
            logp -= np.log(norm, out=norm)
            probs = np.exp(logp)
            actions = choose(t, idx, logits, probs)
            logp_total[idx] += logp[rows, heads, actions].sum(axis=1)
            keep, obs = advance(t, idx, actions)
            kept = np.flatnonzero(keep)
            if collect:
                if self._padding is None:
                    head_probs = probs.reshape(n, K * W)
                else:
                    head_probs = probs.T.reshape(W * K, n).take(entries, axis=0).T.copy()
                cache.steps.append(_StepCache(x, h, c, gates, g, tanh_c, h_new, z, head_probs,
                                              self.head_sizes, actions, idx, kept))
            h, c, idx = h_new.take(kept, axis=0), c_new.take(kept, axis=0), idx.take(kept)
            cols = np.concatenate((obs[:, None], actions.take(kept, axis=0) + self._input_offsets),
                                  axis=1)
            t += 1
        return logp_total, cache

    def rollout(self, envs, rng=None, greedy=False, eps=None, collect=False):
        """Run one episode per env in lockstep.

        Sampling draws each head ancestrally; ``greedy`` takes per-head
        argmax (ties to the lowest index); ``eps`` mixes argmax with
        uniformly random actions for epsilon-greedy control.  The envs,
        which must be reset and may repeat, are only read: the episodes
        advance in one lockstep stepper (``urex.envs.lockstep``).
        Returns (TrajectoryBatch, cache); the cache is None unless
        ``collect`` is set.
        """
        if not len(envs):
            raise ValueError("rollout needs at least one env")
        stepper = lockstep(envs)
        if stepper.num_observations > self.obs_dim:
            raise ValueError("env observation space exceeds policy input")
        B, K = len(envs), len(self.heads)
        last = np.array(self.head_sizes) - 1

        def choose(t, idx, logits, probs):
            if greedy:
                return logits.argmax(axis=2)
            # random draws stay full-batch so trajectories do not depend
            # on batch compaction
            u = rng.random((B, K))[idx]
            if eps is None:
                actions = (np.cumsum(probs, axis=2) < u[:, :, None]).sum(axis=2)
                return np.minimum(actions, last, out=actions)
            actions = np.empty((idx.size, K), dtype=np.int64)
            for k, size in enumerate(self.head_sizes):
                randa = rng.integers(0, size, size=B)[idx]
                actions[:, k] = np.where(u[:, k] < eps, randa, logits[:, k].argmax(axis=1))
            return actions

        # per lockstep step: rows, actions, rewards, done, causes; and the
        # observations each step's rows saw
        records, observed = [], [stepper.first_obs]

        def advance(t, idx, actions):
            next_obs, reward, done, cause = stepper.step(idx, actions)
            keep = ~done
            records.append((idx, actions, reward, done, cause))
            observed.append(next_obs[keep])
            return keep, observed[-1]

        logp_total, cache = self._forward(stepper.first_obs, choose, advance, collect)
        rows, actions, rewards, done, causes = (np.concatenate(f) for f in zip(*records))
        steps = np.repeat(np.arange(len(records)), [r[0].size for r in records])
        shape = (B, len(records))
        observations = np.zeros(shape, dtype=np.int64)
        observations[rows, steps] = np.concatenate(observed[:-1])
        padded_actions = np.zeros(shape + (K,), dtype=np.int64)
        padded_actions[rows, steps] = actions
        padded_rewards = np.zeros(shape)
        padded_rewards[rows, steps] = rewards
        row_causes = np.full(B, None, dtype=object)
        row_causes[rows[done]] = causes[done]  # each row is done once
        # a row's steps are 0 .. length - 1; its total adds its rewards in
        # step order, as sum(rewards) does (padding adds 0.0)
        batch = TrajectoryBatch(observations, padded_actions, padded_rewards,
                                np.bincount(rows, minlength=B),
                                np.cumsum(padded_rewards, axis=1)[:, -1], logp_total,
                                stepper.max_rewards, stepper.seeds, row_causes)
        return batch, cache

    def replay(self, trajectories, collect=False):
        """Recompute per-trajectory log-probs for fixed action sequences,
        given as a TrajectoryBatch or a list of trajectories.

        Returns (log_probs array, cache or None).
        """
        batch = trajectories
        if not isinstance(batch, TrajectoryBatch):
            batch = TrajectoryBatch.from_trajectories(trajectories)
        lengths, observations, actions = batch.lengths, batch.observations, batch.actions

        def advance(t, idx, _):
            keep = t + 1 < lengths[idx]
            rows = idx[keep]
            return keep, observations[rows, t + 1] if rows.size else rows

        return self._forward(observations[:, 0].copy(),
                             lambda t, idx, logits, probs: actions[idx, t], advance, collect)

    def log_prob(self, trajectory: Trajectory) -> float:
        logp, _ = self.replay([trajectory])
        return float(logp[0])

    def weighted_logprob(self, trajectories, coefficients) -> float:
        logp, _ = self.replay(trajectories)
        return float(np.dot(np.asarray(coefficients, dtype=float), logp))

    # -- backward ------------------------------------------------------------
    def backward(self, cache: RolloutCache, dlogits_fn) -> np.ndarray:
        """Backpropagate through time from per-step head-logit gradients.

        ``dlogits_fn(t, step) -> (n_alive, total_head_size)`` supplies the
        gradient at the concatenated head logits of the step's running
        rows.  The state gradients stay compact: the rows a step keeps
        take the gradient flowing back from the next step.  Returns a
        flat gradient the shape of ``params``.
        """
        p = self.params
        grad = ParamVector([(n, shape) for n, (_, shape) in p.segments.items()])
        g_wx = grad.view("lstm_wx")
        g_wh = grad.view("lstm_wh")
        g_b = grad.view("lstm_b")
        wh = p.view("lstm_wh")
        w_all, _ = self._stacked_heads()
        total = w_all.shape[0]
        g_w_all = np.zeros((total, self.hidden_size))
        g_b_all = np.zeros(total)
        hs = self.hidden_size
        B = cache.batch_size
        # the step's gradients go to rows of (B, ·) work arrays; dh and dc
        # read the next step's from a second array each
        dh_buf, dh_next_buf, dc_buf, dc_next_buf, tmp, tmp2 = np.empty((6, B, hs))
        d_gates_buf, omg_buf = np.empty((2, B, 3 * hs))
        dz_buf = np.empty((B, 4 * hs))
        dh_next = dc_next = None
        for t in range(len(cache.steps) - 1, -1, -1):
            st = cache.steps[t]
            n = st.idx.size
            dl = dlogits_fn(t, st)
            g_w_all += dl.T @ st.h
            g_b_all += dl.sum(axis=0)
            dh = np.matmul(dl, w_all, out=dh_buf[:n])
            if dh_next is not None:
                dh[st.kept] += dh_next
            i, f, o = st.gates[:, :hs], st.gates[:, hs : 2 * hs], st.gates[:, 2 * hs :]
            dc = np.multiply(dh, o, out=dc_buf[:n])
            dtanh = np.square(st.tanh_c, out=tmp[:n])
            np.subtract(1.0, dtanh, out=dtanh)
            dc *= dtanh
            if dc_next is not None:
                dc[st.kept] += dc_next
            d_gates = d_gates_buf[:n]  # di, df, do
            np.multiply(dc, st.g, out=d_gates[:, :hs])
            np.multiply(dc, st.c_prev, out=d_gates[:, hs : 2 * hs])
            np.multiply(dh, st.tanh_c, out=d_gates[:, 2 * hs :])
            d_gates *= st.gates
            dz = dz_buf[:n]
            np.multiply(d_gates, np.subtract(1.0, st.gates, out=omg_buf[:n]), out=dz[:, : 3 * hs])
            dg = np.multiply(dc, i, out=tmp[:n])
            dtanh = np.square(st.g, out=tmp2[:n])
            np.subtract(1.0, dtanh, out=dtanh)
            np.multiply(dg, dtanh, out=dz[:, 3 * hs :])
            g_wx += dz.T @ st.x
            g_wh += dz.T @ st.h_prev
            g_b += dz.sum(axis=0)
            dh_next = np.matmul(dz, wh, out=dh_next_buf[:n])
            dc_next = np.multiply(dc, f, out=dc_next_buf[:n])
        off = 0
        for name, size in self.heads:
            grad.view(f"head_{name}_w")[:] = g_w_all[off : off + size]
            grad.view(f"head_{name}_b")[:] = g_b_all[off : off + size]
            off += size
        bad = grad.nonfinite_segments()
        if bad:
            raise PolicyDivergence(f"non-finite gradient in segments {bad}")
        return grad.flat

    def grad_weighted_logprob(self, cache: RolloutCache, coefficients) -> np.ndarray:
        """Gradient of sum_j coeff_j * log pi(trajectory_j) from a cache."""
        coeffs = np.asarray(coefficients, dtype=float)

        def dlogits_fn(t, st):
            scale = coeffs[st.idx][:, None]
            dl = st.head_probs * -scale
            dl[np.arange(st.idx.size)[:, None], st.actions + self._head_offsets] += scale
            return dl

        return self.backward(cache, dlogits_fn)

    def weighted_grad(self, trajectories, coefficients) -> np.ndarray:
        _, cache = self.replay(trajectories, collect=True)
        return self.grad_weighted_logprob(cache, coefficients)

    # -- env collection protocol (shared with the linear policy) ---------------
    def collect(self, group_envs, k: int, rng: np.random.Generator):
        """Sample k trajectories per group env (same latent state within a group).

        Returns (batch, grad_fn): the TrajectoryBatch holds group ``i`` in
        rows ``i*k .. i*k + k - 1``, and grad_fn maps flat per-trajectory
        coefficients to the gradient of the coefficient-weighted log-prob sum.
        """
        batch, cache = self.rollout(repeat_envs(group_envs, k), rng=rng, collect=True)
        return batch, lambda coeffs: self.grad_weighted_logprob(cache, coeffs)
