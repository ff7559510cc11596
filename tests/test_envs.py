import itertools
import math

import numpy as np
import pytest

from trajectory_oracle import trajectory_probability

from cyclic_ppo.envs import (CartPole, ChainEnv, ChainMdp, Pendulum, clamp, default_chain,
                             make_env, wrap_angle)


def test_cartpole_reset_deterministic():
    a = CartPole().reset(seed=42)
    b = CartPole().reset(seed=42)
    assert np.array_equal(a, b)


def test_cartpole_reset_within_init_band():
    for seed in range(20):
        obs = CartPole().reset(seed=seed)
        assert np.all(np.abs(obs) < 0.05)


def test_cartpole_single_euler_step_oracle():
    # one hand-integrated step from the exact zero state under force +10
    env = CartPole()
    env.reset(seed=0)
    env._state = (0.0, 0.0, 0.0, 0.0)
    tr = env.step(1)

    force, total_mass = 10.0, 1.1
    temp = force / total_mass  # sin=0, cos=1 at the zero state
    theta_acc = (0.0 - temp) / (0.5 * (4.0 / 3.0 - 0.1 / total_mass))
    x_acc = temp - 0.05 * theta_acc / total_mass
    expected = np.array([0.0, 0.02 * x_acc, 0.0, 0.02 * theta_acc])
    assert np.allclose(tr.next_obs, expected, atol=1e-10, rtol=0)
    assert tr.reward == 1.0 and not tr.done


def test_cartpole_terminates_past_twelve_degrees():
    env = CartPole()
    env.reset(seed=1)
    tr = None
    for _ in range(500):  # constant push topples the pole quickly
        tr = env.step(1)
        if tr.done:
            break
    assert tr is not None and tr.done
    assert tr.reward == 1.0  # the terminating step still pays
    x, _, theta, _ = tr.next_obs
    assert abs(theta) > 12.0 * 2.0 * math.pi / 360.0 or abs(x) > 2.4
    with pytest.raises(RuntimeError):
        env.step(0)


def _balance_action(obs):
    return 1 if (obs[2] + obs[3]) > 0 else 0


def test_cartpole_truncates_at_200():
    env = CartPole()
    obs = env.reset(seed=0)
    steps = 0
    while True:
        tr = env.step(_balance_action(obs))
        steps += 1
        obs = tr.next_obs
        if tr.done or tr.truncated:
            break
    assert steps == 200 and tr.truncated and not tr.done


def test_cartpole_reward_equals_episode_length():
    for seed, policy in ((0, _balance_action), (3, lambda obs: 1)):
        env = CartPole()
        obs = env.reset(seed=seed)
        steps, total = 0, 0.0
        while True:
            tr = env.step(policy(obs))
            steps += 1
            total += tr.reward
            obs = tr.next_obs
            if tr.done or tr.truncated:
                break
        assert total == float(steps)


def test_cartpole_rejects_invalid_action():
    env = CartPole()
    env.reset(seed=0)
    with pytest.raises(ValueError):
        env.step(2)


def test_seed_determinism_fixed_action_sequence():
    actions = [0, 1, 1, 0, 1, 0, 0, 1] * 5
    traces = []
    for _ in range(2):
        env = CartPole()
        env.reset(seed=9)
        trace = []
        for a in actions:
            tr = env.step(a)
            trace.append((tuple(tr.next_obs), tr.reward, tr.done))
            if tr.done:
                break
        traces.append(trace)
    assert traces[0] == traces[1]


def test_pendulum_reset_ranges():
    for seed in range(20):
        env = Pendulum()
        obs = env.reset(seed=seed)
        assert -math.pi <= env._theta <= math.pi
        assert -1.0 <= obs[2] <= 1.0


def test_pendulum_upright_rest_zero_torque_zero_reward():
    env = Pendulum()
    env.reset(seed=0)
    env._theta = 0.0
    env._theta_dot = 0.0
    assert env.step(0.0).reward == 0.0


def test_pendulum_single_step_oracle():
    env = Pendulum()
    env.reset(seed=0)
    env._theta, env._theta_dot = 0.5, 0.2
    tr = env.step(np.array([1.0]))

    expected_cost = 0.5 ** 2 + 0.1 * 0.2 ** 2 + 0.001 * 1.0 ** 2
    new_theta_dot = 0.2 + (3.0 * 10.0 / 2.0 * math.sin(0.5) + 3.0 * 1.0) * 0.05
    new_theta = 0.5 + new_theta_dot * 0.05
    assert tr.reward == pytest.approx(-expected_cost, abs=1e-12)
    assert tr.next_obs[2] == pytest.approx(new_theta_dot, abs=1e-12)
    assert tr.next_obs[0] == pytest.approx(math.cos(new_theta), abs=1e-12)


def test_pendulum_clips_torque():
    env_big = Pendulum()
    env_big.reset(seed=5)
    env_big._theta, env_big._theta_dot = 1.0, 0.0
    env_clip = Pendulum()
    env_clip.reset(seed=5)
    env_clip._theta, env_clip._theta_dot = 1.0, 0.0
    big = env_big.step(np.array([50.0]))
    clipped = env_clip.step(np.array([2.0]))
    assert big.next_obs[2] == clipped.next_obs[2]


@pytest.mark.parametrize("bound", [Pendulum.MAX_TORQUE, Pendulum.MAX_SPEED])
@pytest.mark.parametrize("x", [math.nan, 0.0, -0.0, math.inf, -math.inf, 2.0000000000000004,
                               -2.0000000000000004, 1e-320, -1e-320, 1.5, 8.5])
def test_clamp_matches_np_clip_bitwise(x, bound):
    expected = np.float64(np.clip(x, -bound, bound))
    assert np.float64(clamp(x, -bound, bound)).tobytes() == expected.tobytes()


def test_pendulum_never_done_truncates_at_200():
    env = Pendulum()
    env.reset(seed=2)
    for step in range(1, 201):
        tr = env.step(np.array([0.0]))
        assert not tr.done
        assert tr.truncated == (step == 200)
    with pytest.raises(RuntimeError):
        env.step(np.array([0.0]))


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1, abs=1e-12)


# ---------------------------------------------------------------------------
# tabular MDP

def test_chain_mdp_validates_rows():
    bad = np.zeros((2, 1, 2))
    bad[0, 0] = [0.6, 0.3]  # row sums to 0.9
    bad[1, 0] = [0.0, 1.0]
    with pytest.raises(ValueError):
        ChainMdp(transitions=bad, rewards=np.zeros((2, 1)),
                 initial_dist=np.array([1.0, 0.0]), horizon=2)


def test_trajectory_probability_deterministic_chain():
    p = np.zeros((2, 1, 2))
    p[0, 0, 1] = 1.0
    p[1, 0, 0] = 1.0
    mdp = ChainMdp(transitions=p, rewards=np.zeros((2, 1)),
                   initial_dist=np.array([1.0, 0.0]), horizon=2)
    policy = np.ones((2, 1))
    assert trajectory_probability(mdp, policy, [0, 1, 0], [0, 0]) == 1.0


def test_trajectory_probability_uniform_policy_quarter():
    # deterministic transitions, uniform 2-action policy, degenerate start, T=2:
    # each of the four action sequences carries probability 0.25
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 1.0
    p[0, 1, 1] = 1.0
    p[1, 0, 1] = 1.0
    p[1, 1, 0] = 1.0
    mdp = ChainMdp(transitions=p, rewards=np.zeros((2, 2)),
                   initial_dist=np.array([1.0, 0.0]), horizon=2)
    uniform = np.full((2, 2), 0.5)
    assert trajectory_probability(mdp, uniform, [0, 1, 0], [1, 1]) == 0.25
    total = 0.0
    for a0, a1 in itertools.product(range(2), repeat=2):
        s1 = int(np.argmax(p[0, a0]))
        s2 = int(np.argmax(p[s1, a1]))
        total += trajectory_probability(mdp, uniform, [0, s1, s2], [a0, a1])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_trajectory_probability_impossible_transition():
    mdp = default_chain()
    policy = np.full((3, 2), 0.5)
    # action 0 always stays put, so 0 -> 1 under action 0 has probability zero
    assert trajectory_probability(mdp, policy, [0, 1], [0]) == 0.0


def test_trajectory_probability_rejects_malformed():
    mdp = default_chain()
    policy = np.full((3, 2), 0.5)
    with pytest.raises(ValueError):
        trajectory_probability(mdp, policy, [0, 1], [0, 1])  # length mismatch
    with pytest.raises(ValueError):
        trajectory_probability(mdp, policy, [0, 5], [0])  # state out of range
    with pytest.raises(ValueError):
        trajectory_probability(mdp, policy, [0, 1], [7])  # action out of range
    with pytest.raises(ValueError):
        trajectory_probability(mdp, np.full((3, 2), 0.4), [0, 1], [1])  # bad policy rows


def _random_mdp(rng, n_states, n_actions, horizon):
    p = rng.random((n_states, n_actions, n_states))
    p /= p.sum(axis=2, keepdims=True)
    rho = rng.random(n_states)
    rho /= rho.sum()
    return ChainMdp(transitions=p, rewards=rng.random((n_states, n_actions)),
                    initial_dist=rho, horizon=horizon)


@pytest.mark.parametrize("n_states,n_actions,horizon", [(2, 2, 3), (3, 2, 4), (3, 1, 4)])
def test_trajectory_probabilities_sum_to_one(n_states, n_actions, horizon):
    rng = np.random.default_rng(n_states * 100 + n_actions * 10 + horizon)
    mdp = _random_mdp(rng, n_states, n_actions, horizon)
    policy = rng.random((n_states, n_actions))
    policy /= policy.sum(axis=1, keepdims=True)
    total = 0.0
    for states in itertools.product(range(n_states), repeat=horizon + 1):
        for actions in itertools.product(range(n_actions), repeat=horizon):
            total += trajectory_probability(mdp, policy, list(states), list(actions))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_chain_env_episode_mechanics():
    env = ChainEnv()
    obs = env.reset(seed=0)
    assert obs.sum() == 1.0 and obs[0] == 1.0
    steps = 0
    while True:
        tr = env.step(1)
        steps += 1
        assert tr.next_obs.sum() == 1.0
        if tr.truncated:
            break
    assert steps == env.mdp.horizon
    with pytest.raises(RuntimeError):
        env.step(0)


def test_make_env_ids():
    assert isinstance(make_env("cartpole"), CartPole)
    assert isinstance(make_env("pendulum"), Pendulum)
    assert isinstance(make_env("chain"), ChainEnv)
    with pytest.raises(ValueError):
        make_env("mountaincar")
