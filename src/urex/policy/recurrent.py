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

from dataclasses import dataclass

import numpy as np

from ..envs import lockstep, repeat_envs
from ..types import TrajectoryBatch
from .params import ParamVector

INIT_SCALE = 0.08
FORGET_BIAS = 1.0
# widths, in multiples of the hidden size, of the work arrays kept between
# passes: _forward's scratch, and backward's gradients and rebuilt states
FORWARD_WORK = (4, 4, 1)
BACKWARD_WORK = (1, 1, 1, 1, 1, 3, 4, 1, 1)


class PolicyDivergence(RuntimeError):
    """Raised when the forward pass produces non-finite activations."""


@dataclass
class _StepCache:
    """One time step of the rows still running; every array is C-contiguous.  BPTT
    rebuilds x, tanh(c), h and, from the previous step, h_prev and c_prev exactly."""

    cols: np.ndarray  # (n_alive, inputs) ints: the columns of the one-hot input's 1.0s
    gates: np.ndarray  # (n_alive, 3 * hidden): input, forget and output gates
    g: np.ndarray
    c: np.ndarray  # the new cell state
    logits: np.ndarray  # (n_alive, total head size): the heads side by side
    head_probs: np.ndarray  # (n_alive, total head size)
    actions: np.ndarray  # (n_alive, n_heads) ints
    idx: np.ndarray  # alive row indices into the full batch
    kept: np.ndarray  # positions in ``idx`` of the rows that run the next step
    # step 0, if its cell ran once per distinct first observation: each row's
    # distinct one, the only rows that gates, g and c hold
    shared: np.ndarray | None = None


class RecurrentPolicy:
    """Single recurrent layer with per-factor categorical heads.

    The heads run fused: their logits sit in one row-major (rows, heads,
    widest head) array, padded with -inf past each head's size, so one
    log-softmax, one sampling pass and one log-prob gather serve every
    head.  The bits equal per-head work when every head is under 8
    entries wide, the width below which numpy sums a row in order, so
    that padding adds only exact zeros after a head's entries; or when
    all heads share one width, so that there is no padding.
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
        if width >= 8 and min(sizes) < width:  # the bits condition in the class docstring
            raise ValueError(f"heads of widths {sizes} differ, and one is 8 or more wide")
        self._head_offsets = np.cumsum([0] + sizes[:-1])  # each head's first column
        self._input_offsets = self.obs_dim + self._head_offsets
        # slot k * widest + j of a row's heads holds logit column offset_k + j
        self._slots = np.array([k * width + j for k, s in enumerate(sizes) for j in range(s)])
        self._work_rows = 0  # rows of the kept work block; see _work

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
        return gates, g, c, self._hidden(c, gates[:, 2 * hs :], scratch[2])[1]

    def _one_hot(self, cols):
        """The (rows, inputs) one-hot input with a 1.0 in each of a row's ``cols``."""
        x = np.zeros((cols.shape[0], self.input_dim))
        x[np.arange(cols.shape[0])[:, None], cols] = 1.0
        return x

    @staticmethod
    def _hidden(c, o, tanh_buf, h_buf=None):
        """(tanh(c), h = tanh(c) * o), the one way both passes build h: into
        rows of ``tanh_buf`` and of ``h_buf`` (a fresh array if None)."""
        n = len(c)
        tanh_c = np.tanh(c, out=tanh_buf[:n])
        return tanh_c, np.multiply(tanh_c, o, out=None if h_buf is None else h_buf[:n])

    def _work(self, rows):
        """Views of one float64 work block kept between passes and grown to
        the largest batch seen, so a pass maps no fresh pages: (forward
        scratch, backward work arrays), each array with the block's row
        count, to be sliced to a pass's rows.  The two sets overlap, since
        forward and backward never run at once; nothing a pass returns or
        caches may be one of these arrays or a view of one."""
        if rows > self._work_rows:
            size = rows * self.hidden_size
            block = np.empty(max(sum(FORWARD_WORK), sum(BACKWARD_WORK)) * size)

            def carve(widths):  # consecutive (rows, width * hidden) arrays
                ends = np.cumsum(widths) * size
                return tuple(block[end - w * size : end].reshape(rows, -1)
                             for w, end in zip(widths, ends))

            self._work_views = carve(FORWARD_WORK), carve(BACKWARD_WORK)
            self._work_rows = rows
        return self._work_views

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
        Returns (per-row log-probs, list of step records or None).
        """
        B, hs, K, W = obs.size, self.hidden_size, len(self.heads), self._width
        p = self.params
        weights = p.view("lstm_wx").T, p.view("lstm_wh").T, p.view("lstm_b")
        scratch = self._work(B)[0]
        w_all, b_all = self._stacked_heads()
        w_all_t = w_all.T
        heads = np.arange(K)
        h = np.zeros((B, hs))
        c = np.zeros((B, hs))
        idx = np.arange(B)
        cols = obs[:, None]  # one-hot input columns: observation, then previous actions
        # Every row starts from the zero state, so step 0's cell depends on
        # the first observation alone: it runs once per distinct one, and
        # ``inv`` gathers h to the rows and c to the kept ones.  A one-hot
        # row times W_x is one weight column exactly, whatever the row count.
        distinct, inv = np.unique(obs, return_inverse=True) if B > 1 else (obs, None)
        logp_total = np.zeros(B)
        cache = [] if collect else None
        t = 0
        while idx.size:
            n = idx.size
            rows = np.arange(n)[:, None]
            shared = t == 0 and distinct.size < B
            u = distinct.size if shared else n
            x = self._one_hot(distinct[:, None] if shared else cols)
            cell = self._cell(x, h[:u], c[:u], weights, scratch, t == 0)
            if not np.isfinite(cell[-1].sum()):  # |h| <= 1 wherever it is finite
                raise PolicyDivergence("non-finite recurrent state in the forward pass")
            gates, g, c_new, h_new = cell
            if shared:  # the head product's bits depend on its row count
                h_new = h_new.take(inv, axis=0)
            z = h_new @ w_all_t
            z += b_all
            logits = np.full((n, K * W), -np.inf)
            logits[:, self._slots] = z
            logits = logits.reshape(n, K, W)
            logp = logits - logits.max(axis=2, keepdims=True)
            norm = np.exp(logp).sum(axis=2, keepdims=True)
            logp -= np.log(norm, out=norm)
            probs = np.exp(logp)
            actions = choose(t, idx, logits, probs)
            logp_total[idx] += logp[rows, heads, actions].sum(axis=1)
            keep, obs = advance(t, idx, actions)
            kept = np.flatnonzero(keep)
            if collect:
                head_probs = probs.reshape(n, K * W).take(self._slots, axis=1)
                cache.append(_StepCache(cols, gates, g, c_new, z, head_probs, actions, idx,
                                        kept, inv if shared else None))
            c = c_new.take(inv[kept] if shared else kept, axis=0)
            h, idx = h_new.take(kept, axis=0), idx.take(kept)
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
        Returns (TrajectoryBatch, step records); the records are None
        unless ``collect`` is set.
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

    def replay(self, batch: TrajectoryBatch, collect=False):
        """Recompute per-trajectory log-probs for fixed action sequences.

        Returns (log_probs array, step records or None).
        """
        lengths, observations, actions = batch.lengths, batch.observations, batch.actions

        def advance(t, idx, _):
            keep = t + 1 < lengths[idx]
            rows = idx[keep]
            return keep, observations[rows, t + 1] if rows.size else rows

        return self._forward(observations[:, 0].copy(),
                             lambda t, idx, logits, probs: actions[idx, t], advance, collect)

    def weighted_logprob(self, batch: TrajectoryBatch, coefficients) -> float:
        logp, _ = self.replay(batch)
        return float(np.dot(np.asarray(coefficients, dtype=float), logp))

    # -- backward ------------------------------------------------------------
    def backward(self, steps: list, dlogits_fn) -> np.ndarray:
        """Backpropagate through time from per-step head-logit gradients.

        ``dlogits_fn(t, step) -> (n_alive, total_head_size)`` supplies the
        gradient at the concatenated head logits of the step's running
        rows.  The state gradients stay compact: the rows a step keeps
        take the gradient flowing back from the next step.  Returns a
        flat gradient the shape of ``params``.  ``dlogits_fn`` must not run
        a forward pass of this policy, which shares backward's work arrays;
        use a ``spawn_like`` twin or another policy.
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
        B = steps[0].idx.size  # every row runs step 0
        # the step's gradients go to rows of the kept work arrays; dh and dc
        # read the next step's from a second array each
        (dh_buf, dh_next_buf, dc_buf, dc_next_buf, tmp, omg_buf, dz_buf, tanh_c_buf,
         h_buf) = self._work(B)[1]

        def rebuilt(st):  # tanh(c) and h at every row of st
            if st.shared is None:
                return self._hidden(st.c, st.gates[:, 2 * hs :], tanh_c_buf, h_buf)
            # a shared step 0's: on its distinct rows, in arrays spent by then, and gathered
            built = self._hidden(st.c, st.gates[:, 2 * hs :], tmp, dh_buf)
            return [a.take(st.shared, axis=0, out=buf[: st.shared.size], mode="clip")
                    for a, buf in zip(built, (tanh_c_buf, h_buf))]

        tanh_c, h = rebuilt(steps[-1])
        dh_next = dc_next = None
        for t in range(len(steps) - 1, -1, -1):
            st = steps[t]
            n = st.idx.size
            dl = dlogits_fn(t, st)
            g_w_all += dl.T @ h
            g_b_all += dl.sum(axis=0)
            dh = np.matmul(dl, w_all, out=dh_buf[:n])
            if dh_next is not None:
                dh[st.kept] += dh_next
            gates, g = st.gates, st.g
            if st.shared is not None:  # into spent arrays; "clip" fills out= unbuffered
                gates = gates.take(st.shared, axis=0, out=omg_buf[:n], mode="clip")
                g = g.take(st.shared, axis=0, out=dh_next_buf[:n], mode="clip")
            i, f, o = gates[:, :hs], gates[:, hs : 2 * hs], gates[:, 2 * hs :]
            dc = np.multiply(dh, o, out=dc_buf[:n])
            dtanh = np.square(tanh_c, out=tmp[:n])
            np.subtract(1.0, dtanh, out=dtanh)
            dc *= dtanh
            if dc_next is not None:
                dc[st.kept] += dc_next
            dz = dz_buf[:n]  # di, df, do, dg
            np.multiply(dc, g, out=dz[:, :hs])
            if t:  # c_prev is the step before's c at the rows it kept, and zero at step 0
                prev = steps[t - 1]
                c_prev = prev.c[prev.kept if prev.shared is None else prev.shared[prev.kept]]
            np.multiply(dc, c_prev if t else 0.0, out=dz[:, hs : 2 * hs])
            np.multiply(dh, tanh_c, out=dz[:, 2 * hs : 3 * hs])
            d_gates = dz[:, : 3 * hs]
            d_gates *= gates
            dg = np.multiply(dc, i, out=tmp[:n])  # before a gathered i turns into 1 - i
            d_gates *= np.subtract(1.0, gates, out=omg_buf[:n])
            dtanh = np.square(g, out=dh_buf[:n])  # dh is spent
            np.subtract(1.0, dtanh, out=dtanh)
            np.multiply(dg, dtanh, out=dz[:, 3 * hs :])
            g_wx += (self._one_hot(st.cols).T @ dz).T  # dz.T @ x's bits, faster at 400 rows
            g_b += dz.sum(axis=0)
            if t == 0:  # h_prev is zero, and no earlier step reads dh or dc
                break
            tanh_c, h = rebuilt(prev)
            h_prev = h[prev.kept]
            # numpy's matmul takes a slow path for one row; np.dot gives its bits
            g_wh += np.dot(dz.T, h_prev) if n == 1 else dz.T @ h_prev
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

    def grad_weighted_logprob(self, steps: list, coefficients) -> np.ndarray:
        """Gradient of sum_j coeff_j * log pi(trajectory_j) from step records."""
        coeffs = np.asarray(coefficients, dtype=float)

        def dlogits_fn(t, st):
            scale = coeffs[st.idx][:, None]
            dl = st.head_probs * -scale
            dl[np.arange(st.idx.size)[:, None], st.actions + self._head_offsets] += scale
            return dl

        return self.backward(steps, dlogits_fn)

    def weighted_grad(self, batch: TrajectoryBatch, coefficients) -> np.ndarray:
        _, steps = self.replay(batch, collect=True)
        return self.grad_weighted_logprob(steps, coefficients)

    # -- env collection protocol (shared with the linear policy) ---------------
    def collect(self, group_envs, k: int, rng: np.random.Generator):
        """Sample k trajectories per group env (same latent state within a group).

        Returns (batch, grad_fn): the TrajectoryBatch holds group ``i`` in
        rows ``i*k .. i*k + k - 1``, and grad_fn maps flat per-trajectory
        coefficients to the gradient of the coefficient-weighted log-prob sum.
        """
        batch, cache = self.rollout(repeat_envs(group_envs, k), rng=rng, collect=True)
        return batch, lambda coeffs: self.grad_weighted_logprob(cache, coeffs)
