"""Native episodic environments with seeded, deterministic dynamics.

CartPole and Pendulum reimplement the classic-control systems with their
published constants and Euler/semi-implicit integrators, so trained
behavior is comparable with the usual benchmark lineage. ChainMdp is a
small tabular MDP with explicit transition, reward and initial-state
tables, so tests can compute (and exhaustively enumerate) trajectory
probabilities exactly.

An env states its ``EnvSpec`` and its dynamics; ``_EpisodeGuard`` applies
the spec: the action rule, truncation, and no step once the episode is over.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .schedule import is_integer


@dataclass(frozen=True)
class EnvSpec:
    """Static description of an environment's interface.

    Its action rule: a ``discrete`` env takes an integer (what ``operator.index`` takes) in
    ``range(action_dim)``, any other ``action_dim`` finite numbers (the policy head's width).
    """

    obs_dim: int
    action_dim: int
    discrete: bool
    max_episode_steps: int


class Transition(NamedTuple):
    """Result of one environment step: an immutable tuple, cheap to build per step."""

    next_obs: np.ndarray
    reward: float
    done: bool
    truncated: bool


class _EpisodeGuard:
    """Shared bookkeeping: each env's ``step`` calls ``_begin_step`` first, ``_end_step`` last."""

    def __init__(self) -> None:
        self._over = True
        self._rng = np.random.default_rng()

    def _begin_episode(self, seed: int | None) -> None:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        self._steps = 0
        self._over = False

    def _begin_step(self, action):
        """Check the episode is live and ``action`` obeys ``spec``; return it as an int or a
        list of Python floats, or raise before any state changes."""
        if self._over:
            raise RuntimeError("episode is over; call reset() before stepping")
        if self.spec.discrete:
            try:
                a = int(operator.index(action))
            except TypeError:  # not an integer
                a = -1
            if 0 <= a < self.spec.action_dim:
                return a
        else:
            try:
                array = np.asarray(action)
            except ValueError:  # ragged, such as [[1.0], 2.0]: no array shape
                array = np.asarray(None)  # of kind "O", so rejected below
            if array.dtype.kind in "biuf":  # numeric: no text for numpy to parse
                values = array.astype(float, copy=False).reshape(-1).tolist()
                if len(values) == self.spec.action_dim and all(map(math.isfinite, values)):
                    return values
        raise ValueError(f"invalid action {action!r} for {self.spec}")

    def _end_step(self, next_obs: np.ndarray, reward: float, done: bool = False) -> Transition:
        """Count the step, truncate at ``spec.max_episode_steps``, and end the episode if over."""
        self._steps += 1
        truncated = not done and self._steps >= self.spec.max_episode_steps
        self._over = done or truncated
        return Transition(next_obs, reward, done, truncated)


class CartPole(_EpisodeGuard):
    """Cart-pole balancing: discrete push left/right, +1 reward per step.

    Euler integration with the published constants; the episode terminates
    when the cart leaves +/-2.4 or the pole tips past 12 degrees, and
    truncates at 200 steps.
    """

    GRAVITY = 9.8
    MASS_CART = 1.0
    MASS_POLE = 0.1
    TOTAL_MASS = MASS_CART + MASS_POLE
    HALF_LENGTH = 0.5
    POLE_MASS_LENGTH = MASS_POLE * HALF_LENGTH
    FORCE_MAG = 10.0
    DT = 0.02
    X_LIMIT = 2.4
    THETA_LIMIT = 12.0 * 2.0 * math.pi / 360.0

    spec = EnvSpec(obs_dim=4, action_dim=2, discrete=True, max_episode_steps=200)

    def reset(self, seed: int | None = None) -> np.ndarray:
        self._begin_episode(seed)
        self._state = tuple(self._rng.uniform(low=-0.05, high=0.05, size=4).tolist())
        return np.array(self._state)

    def step(self, action) -> Transition:
        force = self.FORCE_MAG if self._begin_step(action) == 1 else -self.FORCE_MAG
        x, x_dot, theta, theta_dot = self._state
        cos_t, sin_t = math.cos(theta), math.sin(theta)

        temp = (force + self.POLE_MASS_LENGTH * theta_dot ** 2 * sin_t) / self.TOTAL_MASS
        theta_acc = (self.GRAVITY * sin_t - cos_t * temp) / (
            self.HALF_LENGTH * (4.0 / 3.0 - self.MASS_POLE * cos_t ** 2 / self.TOTAL_MASS))
        x_acc = temp - self.POLE_MASS_LENGTH * theta_acc * cos_t / self.TOTAL_MASS

        # Euler step: positions advance with the old velocities.
        x = x + self.DT * x_dot
        x_dot = x_dot + self.DT * x_acc
        theta = theta + self.DT * theta_dot
        theta_dot = theta_dot + self.DT * theta_acc
        self._state = (x, x_dot, theta, theta_dot)
        done = bool(abs(x) > self.X_LIMIT or abs(theta) > self.THETA_LIMIT)
        return self._end_step(np.array(self._state), 1.0, done)


def wrap_angle(theta: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return (theta + math.pi) % (2.0 * math.pi) - math.pi


def clamp(x: float, lo: float, hi: float) -> float:
    """``np.clip`` for one float, bit for bit, at a fraction of its cost.

    ``x`` goes first in ``max``: a NaN then stays NaN, as under ``np.clip``.
    """
    return min(max(x, lo), hi)


class Pendulum(_EpisodeGuard):
    """Torque-controlled pendulum swing-up with quadratic state/effort penalty.

    Never terminates early; truncates at 200 steps. The reward is
    ``-(wrapped_angle**2 + 0.1 * angular_velocity**2 + 0.001 * torque**2)``,
    so an upright, still pendulum under zero torque earns 0.
    """

    DT = 0.05
    GRAVITY = 10.0
    MASS = 1.0
    LENGTH = 1.0
    MAX_TORQUE = 2.0
    MAX_SPEED = 8.0

    spec = EnvSpec(obs_dim=3, action_dim=1, discrete=False, max_episode_steps=200)

    def _obs(self) -> np.ndarray:
        return np.array([math.cos(self._theta), math.sin(self._theta), self._theta_dot])

    def reset(self, seed: int | None = None) -> np.ndarray:
        self._begin_episode(seed)
        self._theta, self._theta_dot = self._rng.uniform(low=(-math.pi, -1.0),
                                                         high=(math.pi, 1.0)).tolist()
        return self._obs()

    def step(self, action) -> Transition:
        (torque,) = self._begin_step(action)
        u = clamp(torque, -self.MAX_TORQUE, self.MAX_TORQUE)
        theta, theta_dot = self._theta, self._theta_dot
        cost = wrap_angle(theta) ** 2 + 0.1 * theta_dot ** 2 + 0.001 * u ** 2

        # Semi-implicit Euler: the angle advances with the new velocity.
        theta_dot = theta_dot + (3.0 * self.GRAVITY / (2.0 * self.LENGTH) * math.sin(theta)
                                 + 3.0 / (self.MASS * self.LENGTH ** 2) * u) * self.DT
        theta_dot = clamp(theta_dot, -self.MAX_SPEED, self.MAX_SPEED)
        theta = theta + theta_dot * self.DT
        self._theta, self._theta_dot = theta, theta_dot
        return self._end_step(self._obs(), -cost)


@dataclass(frozen=True)
class ChainMdp:
    """Finite tabular MDP: transition tensor, reward table, initial distribution.

    ``transitions[s, a, s']`` is the probability of landing in ``s'`` after
    action ``a`` in state ``s``; every (s, a) row must sum to 1. Probabilities
    must be non-negative and rewards finite.
    """

    transitions: np.ndarray
    rewards: np.ndarray
    initial_dist: np.ndarray
    horizon: int

    def __post_init__(self) -> None:
        p = np.asarray(self.transitions, dtype=float)
        r = np.asarray(self.rewards, dtype=float)
        rho = np.asarray(self.initial_dist, dtype=float)
        object.__setattr__(self, "transitions", p)
        object.__setattr__(self, "rewards", r)
        object.__setattr__(self, "initial_dist", rho)
        if p.ndim != 3 or p.shape[0] != p.shape[2]:
            raise ValueError("transitions must have shape (S, A, S)")
        if r.shape != p.shape[:2]:
            raise ValueError("rewards must have shape (S, A)")
        if rho.shape != (p.shape[0],):
            raise ValueError("initial_dist must have shape (S,)")
        if not np.all(p >= 0.0):  # also false for NaN
            raise ValueError("transitions must be non-negative")
        if np.any(np.abs(p.sum(axis=2) - 1.0) > 1e-12):
            raise ValueError("transition rows must sum to 1")
        if not np.all(np.isfinite(r)):
            raise ValueError("rewards must be finite")
        if not np.all(rho >= 0.0):
            raise ValueError("initial_dist must be non-negative")
        if abs(rho.sum() - 1.0) > 1e-12:
            raise ValueError("initial distribution must sum to 1")
        if not is_integer(self.horizon):
            raise ValueError("horizon must be an integer")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transitions.shape[1]


def default_chain() -> ChainMdp:
    """Three-state chain: action 1 advances with probability 0.9, goal pays 1."""
    p = np.zeros((3, 2, 3))
    for s in range(3):
        p[s, 0, s] = 1.0
        nxt = min(s + 1, 2)
        p[s, 1, nxt] += 0.9
        p[s, 1, s] += 0.1
    r = np.zeros((3, 2))
    r[2, :] = 1.0
    rho = np.array([1.0, 0.0, 0.0])
    return ChainMdp(transitions=p, rewards=r, initial_dist=rho, horizon=8)


class ChainEnv(_EpisodeGuard):
    """Steppable wrapper around a ChainMdp; observations are one-hot states.

    A draw takes ``Generator.choice(n_states, p=row)``'s steps, so the same stream gives
    the same states, but builds each row's normalised CDF once, not on every call.
    """

    def __init__(self, mdp: ChainMdp | None = None) -> None:
        super().__init__()
        self.mdp = mdp = mdp if mdp is not None else default_chain()
        self.spec = EnvSpec(obs_dim=mdp.n_states, action_dim=mdp.n_actions,
                            discrete=True, max_episode_steps=mdp.horizon)
        cdf = np.vstack([mdp.initial_dist, mdp.transitions.reshape(-1, mdp.n_states)]).cumsum(1)
        cdf /= cdf[:, -1:]
        self._initial_cdf, self._transition_cdf = cdf[0], cdf[1:].reshape(mdp.transitions.shape)

    def _draw(self, cdf: np.ndarray) -> int:
        return int(cdf.searchsorted(self._rng.random(), side="right"))

    def _obs(self) -> np.ndarray:
        one_hot = np.zeros(self.mdp.n_states)
        one_hot[self._s] = 1.0
        return one_hot

    def reset(self, seed: int | None = None) -> np.ndarray:
        self._begin_episode(seed)
        self._s = self._draw(self._initial_cdf)
        return self._obs()

    def step(self, action) -> Transition:
        a = self._begin_step(action)
        reward = float(self.mdp.rewards[self._s, a])
        self._s = self._draw(self._transition_cdf[self._s, a])
        return self._end_step(self._obs(), reward)


_ENVS = {"cartpole": CartPole, "pendulum": Pendulum, "chain": ChainEnv}
ENV_IDS = tuple(_ENVS)


def make_env(env_id: str):
    """Instantiate an environment from its string id."""
    if env_id not in _ENVS:
        raise ValueError(f"unknown env id {env_id!r}, expected one of {ENV_IDS}")
    return _ENVS[env_id]()
