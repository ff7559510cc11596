"""Outside-in span recorder for the traced benchmark run.

The program under test is not edited. ``traced_calls`` replaces the public
functions that ``cyclic_ppo.ppo.train`` looks up at call time (module
globals of ``cyclic_ppo.ppo``, ``RolloutWorker.collect`` and the env
classes' ``step``/``reset``) with wrappers that record one span per call,
and puts every original object back when the block exits, also on error.

Spans are kept in memory as parallel lists (name, start, end, parent index,
size) and written out only when the caller asks, after the run.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass

from cyclic_ppo import envs, ppo

ROOT = -1


class Tracer:
    """Single-threaded span recorder; spans are appended in start order."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.sizes: list[int] = []
        self._open: list[int] = []

    def begin(self, name: str, size: int = 1) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else ROOT)
        self.sizes.append(size)
        self.ends.append(float("nan"))
        self._open.append(index)
        self.starts.append(self.clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = self.clock()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def wrap(self, name: str, fn, size=None):
        """``fn`` with a span around each call; ``size(*args)`` sets the span's size."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name, size(*args) if size is not None else 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Children of one span never overlap (one thread, stack discipline),
        so their summed durations are the part of the parent they cover.
        """
        own = self.durations()
        for index, parent in enumerate(self.parents):
            if parent != ROOT:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def top_level(self) -> list[int]:
        """For each span, the index of its ancestor that is a child of a root span.

        Root spans map to themselves.
        """
        top: list[int] = []
        for index, parent in enumerate(self.parents):
            if parent == ROOT or self.parents[parent] == ROOT:
                top.append(index)
            else:
                top.append(top[parent])
        return top

    def summary(self) -> dict[str, "SpanTotals"]:
        """Per-name call count, summed size, total and self time."""
        out: dict[str, SpanTotals] = defaultdict(SpanTotals)
        for name, size, dur, own in zip(self.names, self.sizes, self.durations(),
                                        self.self_times()):
            t = out[name]
            t.calls += 1
            t.size += size
            t.total_s += dur
            t.self_s += own
        return dict(out)

    def total_under(self, name: str, top_name: str) -> float:
        """Summed duration of ``name`` spans whose top-level ancestor is ``top_name``."""
        top = self.top_level()
        return sum(self.ends[i] - self.starts[i] for i, n in enumerate(self.names)
                   if n == name and self.names[top[i]] == top_name)

    def write_csv(self, path) -> None:
        """One line per span: index, name, start and end (ns, run-relative), parent."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as f:
            f.write("index,name,start_ns,end_ns,parent,size\n")
            for i, (name, s, e, p, n) in enumerate(zip(self.names, self.starts, self.ends,
                                                       self.parents, self.sizes)):
                f.write(f"{i},{name},{round((s - t0) * 1e9)},{round((e - t0) * 1e9)},{p},{n}\n")


@dataclass
class SpanTotals:
    calls: int = 0
    size: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _rows(net, x, *rest) -> int:
    return x.shape[0] if x.ndim == 2 else 1


def targets():
    """(owner, attribute, span name, size function) for every wrapped callable.

    Module-level names are patched in ``cyclic_ppo.ppo``, the namespace that
    ``train`` and its helpers resolve them in, so nested helpers such as
    ``flatten_policy -> flatten_mlp`` are timed once, by their outer call.
    """
    rows = [
        (ppo, "forward", "nn.forward", _rows),
        (ppo, "backward", "nn.backward", None),
        (ppo, "gaussian_log_probs", "nn.log_probs", None),
        (ppo, "categorical_log_probs", "nn.log_probs", None),
        (ppo, "log_softmax", "nn.log_probs", None),
        (ppo, "compute_gae", "ppo.compute_gae", None),
        (ppo, "ppo_update", "ppo.update", None),
        (ppo, "ppo_loss_and_grads", "ppo.loss_and_grads", None),
        (ppo, "build_agent", "ppo.build_agent", None),
        (ppo.RolloutWorker, "collect", "ppo.collect", None),
        (ppo, "adam_step", "optimize.adam_step", None),
        (ppo, "sgd_momentum_step", "optimize.sgd_momentum_step", None),
        (ppo, "clip_global_norm", "optimize.clip_global_norm", None),
        (ppo, "lr_at", "schedule.lr_at", None),
        (ppo, "momentum_at", "schedule.momentum_at", None),
        (ppo, "make_env", "envs.make_env", None),
    ]
    rows += [(ppo, name, "nn.flatten", None)
             for name in ("flatten_grads", "flatten_mlp", "flatten_policy",
                          "unflatten_mlp", "unflatten_policy")]
    for cls in (envs.CartPole, envs.Pendulum, envs.ChainEnv):
        rows += [(cls, "step", "envs.step", None), (cls, "reset", "envs.reset", None)]
    return rows


@contextlib.contextmanager
def traced_calls(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore the originals."""
    saved = []
    try:
        for owner, attr, name, size in targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, size))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
