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

from ..envs import lockstep
from ..types import Trajectory, TrajectoryBatch
from .params import ParamVector

INIT_SCALE = 0.08
FORGET_BIAS = 1.0


class PolicyDivergence(RuntimeError):
    """Raised when the forward pass produces non-finite activations."""


@dataclass
class _StepCache:
    """One time step, stored compactly for the rows still running."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    o: np.ndarray
    g: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray
    logits: list
    probs: list
    actions: np.ndarray  # (n_alive, n_heads) ints
    idx: np.ndarray  # alive row indices into the full batch


@dataclass
class RolloutCache:
    batch_size: int = 0
    steps: list = field(default_factory=list)


def _sigmoid(z):
    # tanh form: stable for any magnitude, single ufunc pass
    return 0.5 * np.tanh(0.5 * z) + 0.5


def _log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


class RecurrentPolicy:
    """Single recurrent layer with per-factor categorical heads."""

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
    def _cell(self, x, h_prev, c_prev):
        hs = self.hidden_size
        p = self.params
        z = x @ p.view("lstm_wx").T + h_prev @ p.view("lstm_wh").T + p.view("lstm_b")
        gates = _sigmoid(z[:, : 3 * hs])
        i = gates[:, :hs]
        f = gates[:, hs : 2 * hs]
        o = gates[:, 2 * hs :]
        g = np.tanh(z[:, 3 * hs :])
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        return i, f, o, g, c, tanh_c, h

    def _stacked_heads(self):
        """Concatenated head weights for one fused logits matmul."""
        p = self.params
        w = np.concatenate([p.view(f"head_{n}_w") for n, _ in self.heads], axis=0)
        b = np.concatenate([p.view(f"head_{n}_b") for n, _ in self.heads])
        return w, b

    def _encode(self, obs, prev_actions):
        """One-hot observation plus one-hot previous action factors."""
        n = obs.shape[0]
        x = np.zeros((n, self.input_dim))
        rows = np.arange(n)
        x[rows, obs] = 1.0
        if prev_actions is not None:
            offset = self.obs_dim
            for k, (_, size) in enumerate(self.heads):
                x[rows, offset + prev_actions[:, k]] = 1.0
                offset += size
        return x

    # -- forward pass ---------------------------------------------------------
    def _forward(self, obs, choose, advance, collect):
        """Run the rows of ``obs`` (their first observations) in lockstep.

        Each step computes only the still-running rows ``idx``:
        ``choose(t, idx, logits, probs)`` returns their (n_alive, n_heads)
        actions from per-head logits and probabilities, and
        ``advance(t, idx, actions)`` writes their next observations into
        ``obs`` and returns the rows still running.
        Returns (per-row log-probs, cache or None).
        """
        B = obs.size
        h = np.zeros((B, self.hidden_size))
        c = np.zeros((B, self.hidden_size))
        idx = np.arange(B)
        prev_actions = None
        logp_total = np.zeros(B)
        cache = RolloutCache(batch_size=B) if collect else None
        w_all, b_all = self._stacked_heads()
        ends = np.cumsum([size for _, size in self.heads]).tolist()
        head_cols = [slice(end - size, end) for end, (_, size) in zip(ends, self.heads)]
        t = 0
        while idx.size:
            x = self._encode(obs[idx], None if prev_actions is None else prev_actions[idx])
            i, f, o, g, c_new, tanh_c, h_new = self._cell(x, h[idx], c[idx])
            if not np.all(np.isfinite(h_new)):
                raise PolicyDivergence("non-finite recurrent state in the forward pass")
            logits_all = h_new @ w_all.T + b_all
            logits = [logits_all[:, cols] for cols in head_cols]
            logps = [_log_softmax(z) for z in logits]
            probs = [np.exp(lp) for lp in logps]
            actions = choose(t, idx, logits, probs)
            rows = np.arange(idx.size)
            logp_step = np.zeros(idx.size)
            for k, lp in enumerate(logps):
                logp_step += lp[rows, actions[:, k]]
            logp_total[idx] += logp_step
            if collect:
                cache.steps.append(
                    _StepCache(x, h[idx], c[idx], i, f, o, g, tanh_c, h_new,
                               logits, probs, actions, idx)
                )
            h[idx] = h_new
            c[idx] = c_new
            prev_actions = np.zeros((B, len(self.heads)), dtype=np.int64)
            prev_actions[idx] = actions
            idx = advance(t, idx, actions)
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
        B = len(envs)
        for env in envs:
            if env.num_observations > self.obs_dim:
                raise ValueError("env observation space exceeds policy input")
        stepper = lockstep(envs)
        obs = stepper.first_obs.copy()
        max_rewards = np.array([env.max_total_reward() for env in envs], dtype=float)
        seeds = np.array([env.seed for env in envs], dtype=object)

        def choose(t, idx, logits, probs):
            if greedy:
                return np.stack([z.argmax(axis=1) for z in logits], axis=1)
            # random draws stay full-batch so trajectories do not depend
            # on batch compaction
            u_all = rng.random((B, len(self.heads)))
            actions = np.zeros((idx.size, len(self.heads)), dtype=np.int64)
            for k, p in enumerate(probs):
                size = p.shape[1]
                if eps is not None:
                    randa = rng.integers(0, size, size=B)
                    a = np.where(u_all[idx, k] < eps, randa[idx], logits[k].argmax(axis=1))
                else:
                    u = u_all[idx, k][:, None]
                    a = np.minimum((np.cumsum(p, axis=1) < u).sum(axis=1), size - 1)
                actions[:, k] = a
            return actions

        steps = []  # per lockstep step: (rows, observations, actions, rewards, causes)

        def advance(t, idx, actions):
            next_obs, reward, done, cause = stepper.step(idx, actions)
            steps.append((idx, obs[idx], actions, reward, cause))
            running = ~done
            alive = idx[running]
            obs[alive] = next_obs[running]
            return alive

        logp_total, cache = self._forward(obs, choose, advance, collect)
        T = len(steps)
        observations = np.zeros((T, B), dtype=np.int64)
        actions = np.zeros((T, B, len(self.heads)), dtype=np.int64)
        rewards = np.zeros((T, B))
        lengths = np.zeros(B, dtype=np.int64)
        causes = np.full(B, None, dtype=object)
        for t, (rows, o, a, r, c) in enumerate(steps):
            observations[t, rows] = o
            actions[t, rows] = a
            rewards[t, rows] = r
            lengths[rows] = t + 1  # a row's last step is its terminal one
            causes[rows] = c
        totals = np.zeros(B)
        for r in rewards:  # in step order, as sum(rewards); padding adds 0.0
            totals += r
        batch = TrajectoryBatch(observations.T, actions.transpose(1, 0, 2), rewards.T, lengths,
                                totals, logp_total, max_rewards, seeds, causes)
        return batch, cache

    def replay(self, trajectories, collect=False):
        """Recompute per-trajectory log-probs for fixed action sequences,
        given as a TrajectoryBatch or a list of trajectories.

        Returns (log_probs array, cache or None).
        """
        batch = trajectories
        if not isinstance(batch, TrajectoryBatch):
            batch = TrajectoryBatch.from_trajectories(trajectories)
        lengths = batch.lengths
        obs_seq = batch.observations.T  # (T, B)
        act_seq = batch.actions.transpose(1, 0, 2)
        obs = obs_seq[0].copy()

        def advance(t, idx, actions):
            idx = np.flatnonzero(t + 1 < lengths)
            if idx.size:
                obs[idx] = obs_seq[t + 1, idx]
            return idx

        return self._forward(obs, lambda t, idx, logits, probs: act_seq[t][idx], advance,
                             collect)

    def log_prob(self, trajectory: Trajectory) -> float:
        logp, _ = self.replay([trajectory])
        return float(logp[0])

    def weighted_logprob(self, trajectories, coefficients) -> float:
        logp, _ = self.replay(trajectories)
        return float(np.dot(np.asarray(coefficients, dtype=float), logp))

    # -- backward ------------------------------------------------------------
    def backward(self, cache: RolloutCache, dlogits_fn) -> np.ndarray:
        """Backpropagate through time from per-step head-logit gradients.

        ``dlogits_fn(t, step) -> (B, total_head_size)`` supplies the
        gradient at the concatenated head logits (already masked for
        finished rows).  Returns a flat gradient the shape of ``params``.
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
        dh_next = np.zeros((B, hs))
        dc_next = np.zeros((B, hs))
        for t in range(len(cache.steps) - 1, -1, -1):
            st = cache.steps[t]
            idx = st.idx
            dl = dlogits_fn(t, st)
            g_w_all += dl.T @ st.h
            g_b_all += dl.sum(axis=0)
            dh = dh_next[idx] + dl @ w_all
            do = dh * st.tanh_c
            dc = dc_next[idx] + dh * st.o * (1.0 - st.tanh_c**2)
            di = dc * st.g
            df = dc * st.c_prev
            dg = dc * st.i
            dz = np.empty((idx.size, 4 * hs))
            np.multiply(di * st.i, 1.0 - st.i, out=dz[:, :hs])
            np.multiply(df * st.f, 1.0 - st.f, out=dz[:, hs : 2 * hs])
            np.multiply(do * st.o, 1.0 - st.o, out=dz[:, 2 * hs : 3 * hs])
            np.multiply(dg, 1.0 - st.g**2, out=dz[:, 3 * hs :])
            g_wx += dz.T @ st.x
            g_wh += dz.T @ st.h_prev
            g_b += dz.sum(axis=0)
            dh_next = np.zeros((B, hs))
            dh_next[idx] = dz @ wh
            dc_next = np.zeros((B, hs))
            dc_next[idx] = dc * st.f
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
            scale = coeffs[st.idx]
            rows = np.arange(st.idx.size)
            dl = np.concatenate(st.probs, axis=1) * (-scale[:, None])
            off = 0
            for k, (_, size) in enumerate(self.heads):
                dl[rows, off + st.actions[:, k]] += scale
                off += size
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
        envs = [env for env in group_envs for _ in range(k)]
        batch, cache = self.rollout(envs, rng=rng, collect=True)
        return batch, lambda coeffs: self.grad_weighted_logprob(cache, coeffs)
