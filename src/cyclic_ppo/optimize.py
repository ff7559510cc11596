"""Gradient-based update rules with externally supplied step size and momentum.

Learning rate and momentum are arguments to every step, never stored in
the state, so a scheduler can swap them freely between updates. All
functions return fresh arrays and a fresh state; inputs are not mutated.
The steps compute into those fresh arrays (``out=``) plus at most one
scratch vector, in the operation order of the textbook expressions.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# Cycled momentum may legitimately reach 1.0; as an Adam beta1 (or an SGD
# velocity decay) that value never forgets old gradients, so it is clamped
# here rather than in the schedule.
MOMENTUM_CEILING = 0.999


@dataclass(frozen=True)
class AdamState:
    """Adam accumulator: first/second moment estimates and the step count."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    beta2: float = 0.999
    epsilon: float = 1e-5

    @classmethod
    def init(cls, n_params: int, beta2: float = 0.999, epsilon: float = 1e-5) -> "AdamState":
        return cls(first_moment=np.zeros(n_params), second_moment=np.zeros(n_params),
                   beta2=beta2, epsilon=epsilon)


@dataclass(frozen=True)
class SgdMomentumState:
    """Velocity accumulator for SGD with momentum."""

    velocity: np.ndarray

    @classmethod
    def init(cls, n_params: int) -> "SgdMomentumState":
        return cls(velocity=np.zeros(n_params))


def _check_shapes(params: np.ndarray, grads: np.ndarray, state_vec: np.ndarray) -> None:
    if params.shape != grads.shape:
        raise ValueError(f"params shape {params.shape} != grads shape {grads.shape}")
    if state_vec.shape != params.shape:
        raise ValueError(f"optimizer state shape {state_vec.shape} != params shape {params.shape}")


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray,
              lr: float, beta1: float) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update.

    ``beta1`` is the (possibly cycled) momentum and is clamped to
    ``MOMENTUM_CEILING``; epsilon is added outside the square root, so the
    first step from a fresh state is ``-lr * g / (|g| + eps)`` elementwise.
    """
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    _check_shapes(params, grads, state.first_moment)
    if lr < 0.0:
        raise ValueError("lr must be non-negative")
    if beta1 < 0.0:
        raise ValueError("beta1 must be non-negative")
    b1 = min(beta1, MOMENTUM_CEILING)

    t = state.step_count + 1
    # m = b1 * m + (1 - b1) * g;  v = beta2 * v + (1 - beta2) * g**2.
    # new_params, allocated first, is scratch until its turn. The allocation
    # order matters: with new_params allocated last, a loop of steps on a
    # 1 MB vector made glibc trim and regrow the heap every step (about 250
    # page faults per step and 20% slower); in this order it took none.
    new_params = np.multiply(grads, 1.0 - b1)
    m = np.multiply(state.first_moment, b1)
    m += new_params
    scratch = np.square(grads)
    scratch *= 1.0 - state.beta2
    v = np.multiply(state.second_moment, state.beta2)
    v += scratch
    # new_params = params - lr * m_hat / (sqrt(v_hat) + eps)
    np.divide(v, 1.0 - state.beta2 ** t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += state.epsilon
    np.divide(m, 1.0 - b1 ** t, out=new_params)
    new_params *= lr
    new_params /= scratch
    np.subtract(params, new_params, out=new_params)
    return new_params, replace(state, first_moment=m, second_moment=v, step_count=t)


def sgd_momentum_step(state: SgdMomentumState, params: np.ndarray, grads: np.ndarray,
                      lr: float, mu: float) -> tuple[np.ndarray, SgdMomentumState]:
    """One SGD step with velocity ``v <- mu * v + g`` and ``p <- p - lr * v``."""
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    _check_shapes(params, grads, state.velocity)
    if lr < 0.0:
        raise ValueError("lr must be non-negative")
    if mu < 0.0:
        raise ValueError("mu must be non-negative")
    mu = min(mu, MOMENTUM_CEILING)

    velocity = np.multiply(state.velocity, mu)
    velocity += grads
    # A scratch rather than new_params *= lr: without it, a loop of steps on
    # a 1 MB vector made glibc trim and regrow the heap every step.
    scratch = np.multiply(velocity, lr)
    return np.subtract(params, scratch), SgdMomentumState(velocity=velocity)


def clip_global_norm(grads: np.ndarray, max_norm: float) -> np.ndarray:
    """Rescale ``grads`` so its L2 norm does not exceed ``max_norm``."""
    if not max_norm > 0.0:
        raise ValueError("max_norm must be positive")
    grads = np.asarray(grads, dtype=float)
    norm = float(np.linalg.norm(grads))
    if norm > max_norm:
        return grads * (max_norm / norm)
    return grads.copy()
