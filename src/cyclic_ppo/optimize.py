"""Gradient-based update rules with externally supplied step size and momentum.

Learning rate and momentum are arguments to every step, never stored in
the state, so a scheduler can swap them freely between updates. A state
allocates every vector its steps write: they update it in place, in the
operation order of the textbook expressions, and return its ``out``
vector of new parameters. Adam's per-element temporaries live in a
``scratch`` of at most ``BLOCK`` elements, as its step runs block by
block; every operation is elementwise, so the blocks change no bit.
``params`` is never written, and ``grads`` only when it is the state's
own ``out``, as ``ppo`` makes it by viewing ``opt.out`` as ``grads.vec``;
that is safe because a step reads each gradient before it writes that
element of ``out``. ``params`` must not be ``out``.

Every step first checks, before it changes any state, that the shapes of ``params``,
``grads`` and the state agree and that ``lr`` and the momentum are non-negative (else
ValueError); then it applies the momentum clamped to ``MOMENTUM_CEILING``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Cycled momentum may legitimately reach 1.0; as an Adam beta1 (or an SGD
# velocity decay) that value never forgets old gradients, so it is clamped
# here rather than in the schedule.
MOMENTUM_CEILING = 0.999
# Elements per block of an Adam step (128 KiB of float64): its scratch is
# one block long, and a 64-wide agent's whole vector is one block.
BLOCK = 2 ** 14


@dataclass
class AdamState:
    """Adam's moment estimates and step count, plus ``out`` and a one-block ``scratch``."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    out: np.ndarray
    scratch: np.ndarray
    beta2: float
    epsilon: float
    step_count: int = 0

    @classmethod
    def init(cls, n_params: int, beta2: float = 0.999, epsilon: float = 1e-5) -> "AdamState":
        return cls(first_moment=np.zeros(n_params), second_moment=np.zeros(n_params),
                   out=np.empty(n_params), scratch=np.empty(min(n_params, BLOCK)),
                   beta2=beta2, epsilon=epsilon)


@dataclass
class SgdMomentumState:
    """Velocity accumulator for SGD with momentum; ``out`` receives the new parameters."""

    velocity: np.ndarray
    out: np.ndarray

    @classmethod
    def init(cls, n_params: int) -> "SgdMomentumState":
        return cls(velocity=np.zeros(n_params), out=np.empty(n_params))


def _applied_momentum(params: np.ndarray, grads: np.ndarray, state_vec: np.ndarray,
                      lr: float, momentum: float, name: str) -> float:
    if params.shape != grads.shape:
        raise ValueError(f"params shape {params.shape} != grads shape {grads.shape}")
    if state_vec.shape != params.shape:
        raise ValueError(f"optimizer state shape {state_vec.shape} != params shape {params.shape}")
    if lr < 0.0:
        raise ValueError("lr must be non-negative")
    if momentum < 0.0:
        raise ValueError(f"{name} must be non-negative")
    return min(momentum, MOMENTUM_CEILING)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray,
              lr: float, beta1: float) -> np.ndarray:
    """One bias-corrected Adam update; returns ``state.out``, the new parameters.

    ``beta1`` is the (possibly cycled) momentum. Epsilon is added outside the square
    root, so the first step from a fresh state is ``-lr * g / (|g| + eps)`` elementwise.
    The step runs on each ``BLOCK``-element slice in turn, with a slice of
    ``state.scratch`` as its temporary; every operation is elementwise, so
    each element gets the bits one whole-vector pass would give it. Within
    a block the second moment is updated before the first, so the last
    read of ``grads`` is the one that writes ``out``: ``grads`` may be
    ``state.out``.
    """
    b1 = _applied_momentum(params, grads, state.first_moment, lr, beta1, "beta1")
    state.step_count += 1
    t = state.step_count
    m_correction, v_correction = 1.0 - b1 ** t, 1.0 - state.beta2 ** t
    for start in range(0, params.size, BLOCK):
        block = slice(start, start + BLOCK)
        g, out = grads[block], state.out[block]
        m, v = state.first_moment[block], state.second_moment[block]
        scratch = state.scratch[:g.size]
        # v = beta2 * v + (1 - beta2) * g**2;  m = b1 * m + (1 - b1) * g
        np.square(g, out=scratch)
        scratch *= 1.0 - state.beta2
        v *= state.beta2
        v += scratch
        np.multiply(g, 1.0 - b1, out=out)
        m *= b1
        m += out
        # out = params - lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(v, v_correction, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += state.epsilon
        np.divide(m, m_correction, out=out)
        out *= lr
        out /= scratch
        np.subtract(params[block], out, out=out)
    return state.out


def sgd_momentum_step(state: SgdMomentumState, params: np.ndarray, grads: np.ndarray,
                      lr: float, mu: float) -> np.ndarray:
    """One SGD step with ``v <- mu * v + g``; returns ``state.out = params - lr * v``."""
    mu = _applied_momentum(params, grads, state.velocity, lr, mu, "mu")
    state.velocity *= mu
    state.velocity += grads
    np.multiply(state.velocity, lr, out=state.out)
    np.subtract(params, state.out, out=state.out)
    return state.out


def clip_global_norm(grads: np.ndarray, max_norm: float) -> None:
    """Rescale ``grads`` in place so its L2 norm does not exceed ``max_norm``.

    A finite vector whose norm overflows is divided by its largest magnitude
    first; one holding inf or NaN stays non-finite.
    """
    if not max_norm > 0.0:
        raise ValueError("max_norm must be positive")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(grads))
    if norm == np.inf and max_norm < np.inf:
        peak = float(max(grads.max(), -grads.min()))
        if peak < np.inf:
            grads /= peak
            grads *= max_norm / np.linalg.norm(grads)
            return
    if norm > max_norm:
        grads *= max_norm / norm
