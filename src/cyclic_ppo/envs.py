"""Native episodic environments with seeded, deterministic dynamics.

CartPole and Pendulum reimplement the classic-control systems with their
published constants and Euler/semi-implicit integrators, so trained
behavior is comparable with the usual benchmark lineage. ChainMdp is a
small tabular MDP with explicit transition, reward and initial-state
tables, so tests can compute (and exhaustively enumerate) trajectory
probabilities exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class DiscreteSpace:
    n: int


@dataclass(frozen=True)
class BoxSpace:
    low: tuple[float, ...]
    high: tuple[float, ...]


@dataclass(frozen=True)
class EnvSpec:
    """Static description of an environment's interface.

    ``reward_range`` bounds the per-step reward.
    """

    obs_dim: int
    action_space: DiscreteSpace | BoxSpace
    max_episode_steps: int
    reward_range: tuple[float, float]


@dataclass(frozen=True)
class Transition:
    """Result of one environment step."""

    next_obs: np.ndarray
    reward: float
    done: bool
    truncated: bool


class _EpisodeGuard:
    """Shared bookkeeping: step counting and the no-step-after-end rule."""

    def __init__(self) -> None:
        self._steps = 0
        self._over = True
        self._rng = np.random.default_rng()

    def _begin_episode(self, seed: int | None) -> None:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        self._steps = 0
        self._over = False

    def _require_live(self) -> None:
        if self._over:
            raise RuntimeError("episode is over; call reset() before stepping")


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
    SOLVE_THRESHOLD = 195.0

    spec = EnvSpec(obs_dim=4, action_space=DiscreteSpace(2),
                   max_episode_steps=200, reward_range=(1.0, 1.0))

    def __init__(self) -> None:
        super().__init__()
        self._state = (0.0, 0.0, 0.0, 0.0)

    def reset(self, seed: int | None = None) -> np.ndarray:
        self._begin_episode(seed)
        self._state = tuple(self._rng.uniform(low=-0.05, high=0.05, size=4))
        return np.array(self._state)

    def step(self, action) -> Transition:
        self._require_live()
        a = int(action)
        if a not in (0, 1):
            raise ValueError(f"invalid action {action!r} for a 2-action space")
        x, x_dot, theta, theta_dot = self._state
        force = self.FORCE_MAG if a == 1 else -self.FORCE_MAG
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
        self._steps += 1

        done = bool(abs(x) > self.X_LIMIT or abs(theta) > self.THETA_LIMIT)
        truncated = not done and self._steps >= self.spec.max_episode_steps
        self._over = done or truncated
        return Transition(next_obs=np.array(self._state), reward=1.0,
                          done=done, truncated=truncated)


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

    spec = EnvSpec(obs_dim=3, action_space=BoxSpace(low=(-2.0,), high=(2.0,)),
                   max_episode_steps=200,
                   reward_range=(-(math.pi ** 2 + 0.1 * 8.0 ** 2 + 0.001 * 2.0 ** 2), 0.0))

    def __init__(self) -> None:
        super().__init__()
        self._theta = 0.0
        self._theta_dot = 0.0

    def _obs(self) -> np.ndarray:
        return np.array([math.cos(self._theta), math.sin(self._theta), self._theta_dot])

    def reset(self, seed: int | None = None) -> np.ndarray:
        self._begin_episode(seed)
        self._theta, self._theta_dot = self._rng.uniform(low=(-math.pi, -1.0),
                                                         high=(math.pi, 1.0))
        return self._obs()

    def step(self, action) -> Transition:
        self._require_live()
        u = clamp(float(np.asarray(action, dtype=float).reshape(-1)[0]),
                  -self.MAX_TORQUE, self.MAX_TORQUE)
        theta, theta_dot = self._theta, self._theta_dot
        cost = wrap_angle(theta) ** 2 + 0.1 * theta_dot ** 2 + 0.001 * u ** 2

        # Semi-implicit Euler: the angle advances with the new velocity.
        theta_dot = theta_dot + (3.0 * self.GRAVITY / (2.0 * self.LENGTH) * math.sin(theta)
                                 + 3.0 / (self.MASS * self.LENGTH ** 2) * u) * self.DT
        theta_dot = clamp(float(theta_dot), -self.MAX_SPEED, self.MAX_SPEED)
        theta = theta + theta_dot * self.DT
        self._theta, self._theta_dot = theta, theta_dot
        self._steps += 1

        truncated = self._steps >= self.spec.max_episode_steps
        self._over = truncated
        return Transition(next_obs=self._obs(), reward=-cost, done=False,
                          truncated=truncated)


@dataclass(frozen=True)
class ChainMdp:
    """Finite tabular MDP: transition tensor, reward table, initial distribution.

    ``transitions[s, a, s']`` is the probability of landing in ``s'`` after
    action ``a`` in state ``s``; every (s, a) row must sum to 1.
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
        if np.any(np.abs(p.sum(axis=2) - 1.0) > 1e-12):
            raise ValueError("transition rows must sum to 1")
        if abs(rho.sum() - 1.0) > 1e-12:
            raise ValueError("initial distribution must sum to 1")
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
    """Steppable wrapper around a ChainMdp; observations are one-hot states."""

    def __init__(self, mdp: ChainMdp | None = None) -> None:
        super().__init__()
        self.mdp = mdp if mdp is not None else default_chain()
        self._s = 0
        self.spec = EnvSpec(obs_dim=self.mdp.n_states,
                            action_space=DiscreteSpace(self.mdp.n_actions),
                            max_episode_steps=self.mdp.horizon,
                            reward_range=(float(self.mdp.rewards.min()),
                                          float(self.mdp.rewards.max())))

    def _obs(self) -> np.ndarray:
        one_hot = np.zeros(self.mdp.n_states)
        one_hot[self._s] = 1.0
        return one_hot

    def reset(self, seed: int | None = None) -> np.ndarray:
        self._begin_episode(seed)
        self._s = int(self._rng.choice(self.mdp.n_states, p=self.mdp.initial_dist))
        return self._obs()

    def step(self, action) -> Transition:
        self._require_live()
        a = int(action)
        if not 0 <= a < self.mdp.n_actions:
            raise ValueError(f"invalid action {action!r}")
        reward = float(self.mdp.rewards[self._s, a])
        self._s = int(self._rng.choice(self.mdp.n_states, p=self.mdp.transitions[self._s, a]))
        self._steps += 1
        truncated = self._steps >= self.mdp.horizon
        self._over = truncated
        return Transition(next_obs=self._obs(), reward=reward, done=False,
                          truncated=truncated)


ENV_IDS = ("cartpole", "pendulum", "chain")


def make_env(env_id: str):
    """Instantiate an environment from its string id."""
    if env_id == "cartpole":
        return CartPole()
    if env_id == "pendulum":
        return Pendulum()
    if env_id == "chain":
        return ChainEnv()
    raise ValueError(f"unknown env id {env_id!r}, expected one of {ENV_IDS}")
