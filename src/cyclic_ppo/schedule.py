"""Step-indexed cyclical learning-rate and momentum schedules.

A schedule is one waveform, Smith's triangle wave (arXiv 1506.01186) with
bounds that shrink by ``decay`` each cycle. It has three presets: exp_range,
triangular (a decay of 1) and constant (equal bounds); ``kind`` only names one.

Everything here is a pure function of the update index: ``schedule_values``
yields a stream that depends only on its arguments (policy, cycle, start, stop),
and ``lr_at`` and ``momentum_at`` are its one-step windows. The trainer never
stores schedule state, so a run can be replayed or audited from the index alone.

The index, and so ``stepsize``, counts PPO updates: not minibatch
gradient steps and not env steps. An update consumes one rollout, which
for the cartpole profile is 8 envs x 128 steps = 1024 env steps. The
acceptance suite's cyclical CartPole run (triangular 1e-4..1e-2, stepsize
2000, 400k env steps) therefore makes ceil(400000 / 1024) = 391 updates,
about 0.2 of the first up-leg: its last update runs at an LR of about
2.0e-3 and a momentum of about 0.96. Whether the paper's stepsize means
updates, gradient steps or env steps is still open.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass

# Each preset's options, in the order its SchedulePolicy classmethod takes them. The
# config grammar reads them as arm.<name>.<option> keys, the CLI as --<option> flags.
SCHEDULE_OPTIONS = {"constant": ("lr",), "triangular": ("lr_min", "lr_max", "stepsize"),
                    "exp_range": ("lr_min", "lr_max", "stepsize", "decay")}
# MomentumCycle's options, and the field each one sets
MOMENTUM_OPTIONS = {"momentum_min": "m_min", "momentum_max": "m_max"}


class OptionError(ValueError):
    """A check of one option failed: ``option`` names it, ``reason`` says how."""

    def __init__(self, option: str, reason: str) -> None:
        super().__init__(f"{option} {reason}")
        self.option, self.reason = option, reason


@dataclass(frozen=True)
class SchedulePolicy:
    """One LR waveform: a triangle wave whose bounds decay once per cycle.

    The rate ramps linearly from the cycle's lower bound to its upper bound
    over ``stepsize`` updates and back over another ``stepsize``. Cycle 0's
    bounds are ``eta_min_0`` and ``eta_max_0``, each later cycle's are the
    previous cycle's times ``decay``. ``kind`` names the preset that built
    the policy (constant, triangular or exp_range); the wave never reads it.
    """

    kind: str
    eta_min_0: float = 0.0
    eta_max_0: float = 0.0
    stepsize: int = 1
    decay: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULE_OPTIONS:
            raise ValueError(f"unknown schedule kind {self.kind!r}, "
                             f"expected one of {tuple(SCHEDULE_OPTIONS)}")
        # every preset's first option sets the lower bound
        if not self.eta_min_0 > 0.0:
            raise OptionError(SCHEDULE_OPTIONS[self.kind][0], "must be > 0")
        if not math.isfinite(self.eta_max_0):
            # the upper bound's option: lr_max, or lr for the constant preset
            raise OptionError(SCHEDULE_OPTIONS[self.kind][:2][-1], "must be finite")
        if not self.eta_min_0 <= self.eta_max_0:
            raise ValueError("need lr_min <= lr_max")
        if not isinstance(self.stepsize, numbers.Integral):
            raise OptionError("stepsize", "must be an integer")
        if self.stepsize < 1:
            raise OptionError("stepsize", "must be >= 1")
        if not 0.0 < self.decay <= 1.0:
            raise OptionError("decay", "must lie in (0, 1]")

    @classmethod
    def constant(cls, eta: float) -> "SchedulePolicy":
        return cls(kind="constant", eta_min_0=eta, eta_max_0=eta)

    @classmethod
    def triangular(cls, eta_min: float, eta_max: float, stepsize: int) -> "SchedulePolicy":
        return cls(kind="triangular", eta_min_0=eta_min, eta_max_0=eta_max, stepsize=stepsize)

    @classmethod
    def exp_range(cls, eta_min: float, eta_max: float, stepsize: int,
                  decay: float) -> "SchedulePolicy":
        return cls(kind="exp_range", eta_min_0=eta_min, eta_max_0=eta_max,
                   stepsize=stepsize, decay=decay)


@dataclass(frozen=True)
class MomentumCycle:
    """Counter-cycled optimizer momentum: high when the LR is low and vice versa."""

    m_min: float = 0.8
    m_max: float = 1.0

    def __post_init__(self) -> None:
        if not self.m_min >= 0.0:
            raise OptionError("momentum_min", "must be >= 0")
        if not self.m_max <= 1.0:
            raise OptionError("momentum_max", "must be <= 1")
        if not self.m_min <= self.m_max:
            raise ValueError("need momentum_min <= momentum_max")


def check_cycling(policy: SchedulePolicy, updates: int) -> None:
    """Raise ValueError unless ``policy`` has LR bounds to cycle momentum between in
    every cycle of a run of ``updates`` updates: the run's stream raises at the first
    cycle whose bounds have met. A decay of 1 keeps cycle 0's bounds, so update 0 alone
    checks a run of any length.
    """
    stop = updates if policy.decay != 1.0 else min(updates, 1)
    for _ in schedule_values(policy, MomentumCycle(), 0, stop):
        pass


def cycle_index(step: int, stepsize: int) -> int:
    """Index of the cycle containing update ``step``.

    One cycle is an up-leg plus a down-leg, i.e. ``2 * stepsize`` updates.
    """
    if stepsize < 1:
        raise ValueError("stepsize must be >= 1")
    if step < 0:
        raise ValueError("step must be non-negative")
    return step // (2 * stepsize)


def bounds_at_cycle(policy: SchedulePolicy, k_cycle: int) -> tuple[float, float]:
    """LR bounds (eta_min, eta_max) in effect during cycle ``k_cycle``.

    Bounds are constant within a cycle. The decayed envelope is built by
    repeated multiplication, so each cycle's bounds equal exactly the
    previous cycle's bounds times ``decay``. A decay of 1 skips the loop,
    which is exact because ``x * 1.0 == x``.
    """
    if k_cycle < 0:
        raise ValueError("k_cycle must be non-negative")
    lo, hi = policy.eta_min_0, policy.eta_max_0
    if policy.decay != 1.0:
        for _ in range(k_cycle):
            lo *= policy.decay
            hi *= policy.decay
    return lo, hi


def schedule_values(policy: SchedulePolicy, cycle: MomentumCycle | None, start: int,
                    stop: int) -> Iterator[tuple[float, float | None]]:
    """Yield ``(lr, momentum)`` for updates ``start..stop-1``; momentum is None without ``cycle``.

    The LR is a triangle wave, ``lo + (hi - lo) * p`` at phase ``p = (step mod 2s)/s`` on
    the up-leg and mirrored on the down-leg, clamped to the cycle's bounds ``lo, hi`` at
    the last-ulp edges. The momentum is linear in it: ``m_max`` at ``lo``, ``m_min`` at
    ``hi``. Each later cycle multiplies the bounds by ``decay``, as ``bounds_at_cycle``
    does, so the bits match at a linear cost. With ``cycle``, the first ``next()`` raises
    ValueError unless ``eta_min_0 < eta_max_0``, and so does a cycle whose bounds are equal.
    """
    if cycle is not None and not policy.eta_min_0 < policy.eta_max_0:
        raise ValueError("momentum cycling needs a cyclical schedule with lr_min < lr_max")
    s = policy.stepsize
    lo, hi = bounds_at_cycle(policy, cycle_index(start, s))
    for step in range(start, stop):
        phase = step % (2 * s)
        if phase == 0 and step != start:
            lo, hi = lo * policy.decay, hi * policy.decay
        p = phase / s
        lr = min(max(lo + (hi - lo) * (p if p <= 1.0 else 2.0 - p), lo), hi)
        if cycle is None:
            yield lr, None
        elif lo == hi:
            raise ValueError(f"momentum cycling needs lr_min < lr_max in every cycle, but with "
                             f"decay {policy.decay:g} they are equal from update {step - phase}")
        else:
            yield lr, cycle.m_max - (cycle.m_max - cycle.m_min) * ((lr - lo) / (hi - lo))


def lr_at(policy: SchedulePolicy, step: int) -> float:
    """Learning rate for optimizer update ``step``: the one-step window of the stream."""
    return next(schedule_values(policy, None, step, step + 1))[0]


def momentum_at(policy: SchedulePolicy, cycle: MomentumCycle, step: int) -> float:
    """Optimizer momentum for update ``step``, cycled against the LR: the one-step window."""
    return next(schedule_values(policy, cycle, step, step + 1))[1]
