"""Span tracing of urex's public entry points, installed from outside the library.

``ENTRY_POINTS`` maps a span name to the functions and methods it wraps.
A function is wrapped at every module binding that holds it (for example
``adam_update`` in the optimizer, trainer, Q-learner and bandit modules),
so calls through re-exports are seen too; a method is wrapped on its
class.  An entry point that no longer exists fails installation loudly,
so a refactor that moves one has to update this table on purpose.

Spans are kept in memory as (name, start, end, parent, update id) and
written out when the run ends.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from common import patched

ENTRY_POINTS = {
    "envs.step": ["urex.envs.tape:TapeEnv.step", "urex.envs.bandit:BanditEnv.step",
                  "urex.envs.search:BinarySearchEnv.step"],
    "envs.clone": ["urex.envs.base:Env.clone"],
    "envs.make": ["urex.envs:make_env", "urex.envs.base:Env.reset"],
    "envs.restart": ["urex.envs.base:Env.restart"],
    "policy.rollout": ["urex.policy.recurrent:RecurrentPolicy.rollout"],
    "policy.replay": ["urex.policy.recurrent:RecurrentPolicy.replay"],
    "policy.backward": ["urex.policy.recurrent:RecurrentPolicy.backward"],
    "policy.grad": ["urex.policy.recurrent:RecurrentPolicy.grad_weighted_logprob"],
    "policy.collect": ["urex.policy.recurrent:RecurrentPolicy.collect"],
    "policy.linear_collect": ["urex.policy.linear:LinearBanditPolicy.collect"],
    "policy.linear_sample": ["urex.policy.linear:LinearBanditPolicy.sample"],
    "policy.linear_logits": ["urex.policy.linear:LinearBanditPolicy.log_probs"],
    "policy.linear_grad": ["urex.policy.linear:LinearBanditPolicy.weighted_grad"],
    "policy.linear_eval": ["urex.policy.linear:LinearBanditPolicy.expected_reward"],
    "trainers.step": ["urex.trainers.policy_gradient:PolicyGradientTrainer.step"],
    "trainers.group_coefficients": ["urex.trainers.policy_gradient:group_coefficients"],
    "trainers.coefficients": ["urex.trainers.coefficients:urex_coefficients",
                              "urex.trainers.coefficients:ment_coefficients"],
    "trainers.importance_weights": ["urex.trainers.coefficients:importance_weights",
                                    "urex.trainers.coefficients:weight_variance"],
    "trainers.clip": ["urex.trainers.optim:clip_gradient"],
    "trainers.adam": ["urex.trainers.optim:adam_update"],
    "trainers.q_update": ["urex.trainers.qlearning:DoubleQLearner.train_step"],
    "trainers.q_greedy": ["urex.trainers.qlearning:DoubleQLearner.greedy_episode"],
    "curriculum.record": ["urex.curriculum:CurriculumState.record_episode"],
    "curriculum.sample_length": ["urex.curriculum:CurriculumState.sample_length"],
    "harness.run_trial": ["urex.harness.trial:run_trial"],
    "harness.eval": ["urex.harness.trial:evaluate_greedy"],
    "harness.env_factory": ["urex.harness.trial:env_factory_for"],
    "harness.bandit_experiment": ["urex.harness.bandit_exp:run_bandit_experiment"],
    "harness.train_bandit_policy": ["urex.harness.bandit_exp:train_bandit_policy"],
}

MODULES = ("envs", "policy", "trainers", "curriculum", "harness")


class MissingEntryPoint(LookupError):
    """A traced entry point is gone from the library."""


def resolve(target: str):
    """``"pkg.mod:name"`` or ``"pkg.mod:Class.method"`` -> (owner, attribute, object)."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as err:
        raise MissingEntryPoint(f"{target}: module not importable ({err})") from err
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingEntryPoint(f"{target}: {part} not found; update benchmarks/tracer.py")
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            raise MissingEntryPoint(f"{target}: {attr} is not defined on {owner.__name__}; "
                                    "update benchmarks/tracer.py")
        obj = owner.__dict__[attr]
    else:
        obj = getattr(owner, attr, None)
    if not callable(obj):
        raise MissingEntryPoint(f"{target}: not found or not callable; update benchmarks/tracer.py")
    return owner, attr, obj


def bindings(target: str, package: str = "urex"):
    """Every (owner, attribute, original) through which ``target`` is called."""
    owner, attr, obj = resolve(target)
    if isinstance(owner, type):
        return [(owner, attr, obj)]
    return [(mod, name, obj) for mod_name, mod in sorted(sys.modules.items())
            if mod_name == package or mod_name.startswith(package + ".")
            for name, value in list(vars(mod).items()) if value is obj]


def entry_point_name(owner, attr: str) -> str:
    """The span name under which ``owner.attr`` is traced."""
    for name, targets in ENTRY_POINTS.items():
        for target in targets:
            if any(o is owner and a == attr for o, a, _ in bindings(target)):
                return name
    raise MissingEntryPoint(f"{getattr(owner, '__name__', owner)}.{attr} is not traced")


class Tracer:
    """Collects spans from wrapped callables.

    ``update_span`` names the span that starts each update; spans carry
    the number of the update they ran in (0 before the first).
    ``hooks`` maps a span name to ``hook(args, kwargs, result)``, run after
    the wrapped call returns and outside its span.
    """

    def __init__(self, update_span: str):
        self.update_span = update_span
        self.hooks: dict = {}
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        # one entry per span, in the order spans start
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.update = array("q")
        self._stack: list[int] = []
        self.updates = 0

    def _open(self, name: str) -> int:
        code = self._code.get(name)
        if code is None:
            code = self._code[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.update.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1
        self.update[idx] = self.updates

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        hook = self.hooks.get(name)
        starts_update = name == self.update_span

        def wrapper(*args, **kwargs):
            if starts_update:
                self.updates += 1
            idx = self._open(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, clock())
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code."""
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())

    @contextmanager
    def installed(self, entry_points=None, package: str = "urex"):
        """Wrap every binding of every entry point; all-or-nothing."""
        entry_points = ENTRY_POINTS if entry_points is None else entry_points
        replacements = [(owner, attr, self.wrap(name, original))
                        for name, targets in entry_points.items()
                        for target in targets
                        for owner, attr, original in bindings(target, package)]
        with patched(replacements):
            yield self

    def arrays(self) -> dict:
        """The spans as parallel arrays, ``names[name[i]]`` naming span i."""
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "update": np.frombuffer(self.update, dtype=np.int64).copy(),
        }


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap: every wrapped call is synchronous
    and single-threaded, so their durations sum to the time they cover.
    """
    start, end, parent = np.asarray(start), np.asarray(end), np.asarray(parent)
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


def contexts(codes, parent, markers) -> np.ndarray:
    """For each span, the nearest enclosing span (itself included) whose
    name code is in ``markers``, as that code's index in ``markers``; -1
    if there is none."""
    codes, parent = np.asarray(codes), np.asarray(parent)
    lookup = np.full(max([int(codes.max(initial=0))] + list(markers)) + 1, -1)
    lookup[list(markers)] = np.arange(len(markers))
    marked = lookup[codes]
    ctx, ancestor = marked.copy(), parent.copy()
    todo = (ctx < 0) & (ancestor >= 0)
    while todo.any():  # one level up per pass
        up = ancestor[todo]
        ctx[todo] = marked[up]
        ancestor[todo] = np.where(marked[up] >= 0, -1, parent[up])
        todo = (ctx < 0) & (ancestor >= 0)
    return ctx
