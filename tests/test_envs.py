import itertools
import math

import numpy as np
import pytest

from trajectory_oracle import trajectory_probability

from cyclic_ppo.envs import (ENV_IDS, CartPole, ChainEnv, ChainMdp, Pendulum, clamp,
                             default_chain, make_env, wrap_angle)


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


@pytest.mark.parametrize("make, action", [
    (CartPole, 0.9), (CartPole, "1"), (ChainEnv, 1.99), (Pendulum, [1.0, 5.0]), (Pendulum, []),
    (Pendulum, float("nan")), (Pendulum, np.array([np.inf])), (Pendulum, -np.inf),
    (CartPole, np.array([1])), (CartPole, np.array([0, 1])), (CartPole, 1.0),
    (ChainEnv, np.array([1])), (ChainEnv, 1.0), (Pendulum, "0.5"), (Pendulum, b"0.5"),
    (Pendulum, [[1.0], 2.0]), (Pendulum, [1.0, [2.0]]),
], ids=["cartpole-fraction", "cartpole-string", "chain-fraction", "pendulum-two-torques",
        "pendulum-no-torque", "pendulum-nan", "pendulum-inf", "pendulum--inf",
        "cartpole-one-element-array", "cartpole-two-element-array", "cartpole-integral-float",
        "chain-one-element-array", "chain-integral-float", "pendulum-string", "pendulum-bytes",
        "pendulum-ragged", "pendulum-ragged-inner"])
def test_step_rejects_an_action_outside_the_spec(make, action):
    env, untouched = make(), make()
    env.reset(seed=0)
    untouched.reset(seed=0)
    with pytest.raises(ValueError, match="invalid action"):
        env.step(action)
    # Rejected before any state changed: the next valid step is a fresh env's.
    valid = 0 if env.spec.discrete else np.zeros(env.spec.action_dim)
    assert repr(env.step(valid)) == repr(untouched.step(valid))


@pytest.mark.parametrize("make", [CartPole, ChainEnv])
def test_every_integer_form_of_an_action_steps_alike(make):
    transitions = []
    for action in (1, True, np.int64(1), np.array(1)):
        env = make()
        env.reset(seed=0)
        transitions.append(repr([env.step(action) for _ in range(3)]))
    assert len(set(transitions)) == 1


def test_cartpole_state_holds_python_floats():
    env = CartPole()
    env.reset(seed=0)
    assert all(type(v) is float for v in env._state)
    env.step(1)
    assert all(type(v) is float for v in env._state)


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_step_reward_is_a_python_float(env_id):
    env = make_env(env_id)
    env.reset(seed=0)
    for _ in range(3):
        tr = env.step(0 if env.spec.discrete else np.zeros(env.spec.action_dim))
        assert type(tr.reward) is float


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
    assert tr.done is False and tr.truncated is False
    with pytest.raises(AttributeError):  # a Transition is immutable
        tr.reward = 0.0


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
    # each table that fails a check is named in the message
    good = dict(transitions=np.array([[[0.0, 1.0]], [[1.0, 0.0]]]), rewards=np.zeros((2, 1)),
                initial_dist=np.array([1.0, 0.0]), horizon=2)
    for field, value, message in [
            ("transitions", np.array([[[1.5, -0.5]], [[1.0, 0.0]]]), "transitions must be non-"),
            ("transitions", np.array([[[np.nan, np.nan]], [[1.0, 0.0]]]), "transitions must be non-"),
            ("rewards", np.array([[np.inf], [0.0]]), "rewards must be finite"),
            ("initial_dist", np.array([1.5, -0.5]), "initial_dist must be non-negative"),
            ("transitions", np.zeros((2, 1, 3)), "transitions must have shape"),
            ("rewards", np.zeros((2, 2)), "rewards must have shape"),
            ("initial_dist", np.zeros(3), "initial_dist must have shape"),
            ("initial_dist", np.array([0.5, 0.0]), "initial distribution must sum to 1"),
            ("horizon", 0, "horizon must be >= 1")]:
        with pytest.raises(ValueError, match=message):
            ChainMdp(**{**good, field: value})
    ChainMdp(**good)


def test_chain_env_draws_the_states_generator_choice_draws():
    """ChainEnv's CDFs, built once, give the states that ``choice(n, p=row)`` gives."""
    rng = np.random.default_rng(7)
    p = rng.random((4, 3, 4)) * (rng.random((4, 3, 4)) < 0.6)
    p[:, :, 0] += 0.1  # every row keeps a nonzero entry; the zeros stay in the others
    rho = np.array([0.0, 0.3, 0.0, 0.7])
    mdp = ChainMdp(transitions=p / p.sum(axis=2, keepdims=True), rewards=np.zeros((4, 3)),
                   initial_dist=rho, horizon=5)
    assert np.count_nonzero(mdp.transitions == 0.0) > 0
    actions = rng.integers(3, size=400).tolist()
    env, reference = ChainEnv(mdp), np.random.default_rng(11)
    states, expected = [], []
    env.reset(seed=11)
    state = int(reference.choice(4, p=rho))
    for a in actions:
        states.append(env._s)
        expected.append(state)
        tr = env.step(a)
        state = int(reference.choice(4, p=mdp.transitions[state, a]))
        if tr.truncated:
            env.reset()
            state = int(reference.choice(4, p=rho))
    assert states == expected


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
    with pytest.raises(ValueError, match="invalid action 2"):
        env.step(2)
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
    assert ENV_IDS == ("cartpole", "pendulum", "chain")
    with pytest.raises(ValueError) as err:
        make_env("mountaincar")
    assert str(err.value) == ("unknown env id 'mountaincar', "
                              "expected one of ('cartpole', 'pendulum', 'chain')")


def _chain_4x3():
    return ChainEnv(_random_mdp(np.random.default_rng(0), n_states=4, n_actions=3, horizon=5))


@pytest.mark.parametrize("make, expected", [
    (CartPole, (4, 2, True, 200)),
    (Pendulum, (3, 1, False, 200)),
    (ChainEnv, (3, 2, True, 8)),
    (_chain_4x3, (4, 3, True, 5)),
], ids=["cartpole", "pendulum", "chain", "chain-4x3"])
def test_env_spec_states_the_action_head(make, expected):
    spec = make().spec
    assert (spec.obs_dim, spec.action_dim, spec.discrete, spec.max_episode_steps) == expected
