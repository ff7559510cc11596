"""Oracle: the pure Adam and SGD-with-momentum steps.

They return fresh parameters and a fresh state and mutate none of their
inputs. ``cyclic_ppo.optimize`` runs the same operations, in the same
order, in buffers that its states own; the tests check that the two agree
bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from cyclic_ppo.optimize import MOMENTUM_CEILING


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


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray,
              lr: float, beta1: float) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update into fresh arrays; beta1 is clamped."""
    b1 = min(beta1, MOMENTUM_CEILING)
    t = state.step_count + 1
    # m = b1 * m + (1 - b1) * g;  v = beta2 * v + (1 - beta2) * g**2
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
    """One SGD step with ``v <- mu * v + g`` and ``p <- p - lr * v``, into fresh arrays."""
    velocity = np.multiply(state.velocity, min(mu, MOMENTUM_CEILING))
    velocity += grads
    return np.subtract(params, np.multiply(velocity, lr)), SgdMomentumState(velocity=velocity)
