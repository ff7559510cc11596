import hashlib
import tracemalloc

import numpy as np
import pytest
from gradcheck import central_diff, max_rel_err

from cyclic_ppo.nn import (categorical_log_probs, delta_buffers, effective_log_std,
                           flatten_mlp, flatten_policy, forward, gaussian_log_probs,
                           layer_buffers, log_softmax, policy_init, unflatten_mlp,
                           unflatten_policy, value_init)
from cyclic_ppo.optimize import adam_step
from cyclic_ppo.ppo import (DivergenceError, Gradients, LayerBuffers, PpoConfig, RolloutBuffer,
                            RolloutWorker, TrainState, UpdateMetrics, build_agent, compute_gae,
                            normalize_advantages, ppo_loss_and_grads, ppo_update,
                            run_updates, setup_run, train)
from cyclic_ppo.envs import ENV_IDS, ChainMdp, default_chain, make_env
from cyclic_ppo.harness import default_ppo_config
from cyclic_ppo.runlog import dump_runlog
from cyclic_ppo.schedule import MomentumCycle, SchedulePolicy, lr_at, momentum_at


def discounted_return(rewards, gamma: float) -> np.ndarray:
    """Oracle: discounted suffix sums G_t = r_t + gamma * G_{t+1}, by backward recursion."""
    rewards = np.asarray(rewards, dtype=float)
    if not np.all(np.isfinite(rewards)):
        raise ValueError("rewards must be finite")
    out = np.empty_like(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def clipped_surrogate_loss(ratios, advantages, clip_epsilon: float) -> float:
    """Oracle: mean pessimistic surrogate -min(r*A, clip(r)*A)."""
    ratios = np.asarray(ratios, dtype=float)
    advantages = np.asarray(advantages, dtype=float)
    if ratios.shape != advantages.shape:
        raise ValueError("ratios and advantages must have equal length")
    clipped = np.clip(ratios, 1.0 - clip_epsilon, 1.0 + clip_epsilon) * advantages
    return float(np.mean(-np.minimum(ratios * advantages, clipped)))


def test_discounted_return_undiscounted_suffix_sums():
    assert np.array_equal(discounted_return([1.0, 1.0, 1.0], 1.0), [3.0, 2.0, 1.0])


def test_discounted_return_hand_sum():
    out = discounted_return([1.0, 2.0, 4.0], 0.5)
    assert out[0] == 1.0 + 0.5 * 2.0 + 0.25 * 4.0


def test_discounted_return_gamma_zero():
    rewards = [3.0, -1.0, 2.0]
    assert np.array_equal(discounted_return(rewards, 0.0), rewards)


def test_discounted_return_all_ones_closed_form():
    for gamma in (0.9, 0.99, 0.5):
        t_len = 50
        out = discounted_return(np.ones(t_len), gamma)
        assert abs(out[0] - (1 - gamma ** t_len) / (1 - gamma)) < 1e-10


def test_discounted_return_rejects_nonfinite():
    with pytest.raises(ValueError):
        discounted_return([1.0, np.inf], 0.9)


# ---------------------------------------------------------------------------
# GAE

def _buffer_from(rewards, values, dones):
    t_len = len(rewards)
    return RolloutBuffer(obs=np.zeros((t_len, 1, 1)), actions=np.zeros((t_len, 1), dtype=int),
                         rewards=np.asarray(rewards, dtype=float)[:, None],
                         values=np.asarray(values, dtype=float)[:, None],
                         log_probs=np.zeros((t_len, 1)),
                         dones=np.asarray(dones, dtype=float)[:, None])


def gae_bruteforce(rewards, values, dones, gamma, lam, bootstrap):
    """Direct expansion A_t = sum_l delta_{t+l} * prod_j gamma*lam*(1-done_j)."""
    t_len = len(rewards)
    next_values = np.append(values[1:], bootstrap)
    deltas = rewards + gamma * next_values * (1 - dones) - values
    adv = np.zeros(t_len)
    for t in range(t_len):
        factor = 1.0
        total = 0.0
        for l in range(t, t_len):
            if l > t:
                factor *= gamma * lam * (1 - dones[l - 1])
                if factor == 0.0:
                    break
            total += factor * deltas[l]
        adv[t] = total
    return adv


def test_gae_lambda_zero_is_one_step_td():
    rewards = np.array([1.0, 2.0, 3.0])
    values = np.array([0.5, 1.5, 2.5])
    dones = np.zeros(3)
    buf = _buffer_from(rewards, values, dones)
    adv, rets = compute_gae(buf, 0.9, 0.0, bootstrap_value=2.0)
    next_values = np.array([1.5, 2.5, 2.0])
    deltas = rewards + 0.9 * next_values - values
    assert np.array_equal(adv[:, 0], deltas)
    assert np.array_equal(rets, adv + values[:, None])


def test_gae_monte_carlo_reduction():
    rewards = np.array([1.0, 1.0, 1.0, 1.0])
    buf = _buffer_from(rewards, np.zeros(4), np.zeros(4))
    adv, _ = compute_gae(buf, 1.0, 1.0, bootstrap_value=0.0)
    assert np.array_equal(adv[:, 0], [4.0, 3.0, 2.0, 1.0])


def test_gae_with_unit_lambda_and_zero_values_is_the_discounted_return():
    rng = np.random.default_rng(4)
    rewards = rng.standard_normal((40, 3))
    buf = RolloutBuffer(obs=np.zeros((40, 3, 1)), actions=np.zeros((40, 3), dtype=int),
                        rewards=rewards, values=np.zeros((40, 3)),
                        log_probs=np.zeros((40, 3)), dones=np.zeros((40, 3)))
    adv, _ = compute_gae(buf, 0.97, 1.0, bootstrap_value=0.0)
    for e in range(3):
        assert np.array_equal(adv[:, e], discounted_return(rewards[:, e], 0.97))


def test_gae_matches_bruteforce_random_sequences():
    rng = np.random.default_rng(21)
    for trial in range(30):
        t_len = int(rng.integers(1, 17))
        rewards = rng.standard_normal(t_len)
        values = rng.standard_normal(t_len)
        dones = (rng.random(t_len) < 0.25).astype(float)
        bootstrap = float(rng.standard_normal())
        gamma = float(rng.uniform(0.8, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        buf = _buffer_from(rewards, values, dones)
        adv, rets = compute_gae(buf, gamma, lam, bootstrap)
        expected = gae_bruteforce(rewards, values, dones, gamma, lam, bootstrap)
        assert np.max(np.abs(adv[:, 0] - expected)) < 1e-10
        assert np.array_equal(rets, adv + values[:, None])


def test_gae_multi_env_columns_independent():
    rng = np.random.default_rng(3)
    t_len, n_envs = 6, 3
    rewards = rng.standard_normal((t_len, n_envs))
    values = rng.standard_normal((t_len, n_envs))
    dones = (rng.random((t_len, n_envs)) < 0.3).astype(float)
    bootstrap = rng.standard_normal(n_envs)
    buf = RolloutBuffer(obs=np.zeros((t_len, n_envs, 2)),
                        actions=np.zeros((t_len, n_envs), dtype=int),
                        rewards=rewards, values=values,
                        log_probs=np.zeros((t_len, n_envs)), dones=dones)
    adv, _ = compute_gae(buf, 0.99, 0.95, bootstrap)
    for e in range(n_envs):
        expected = gae_bruteforce(rewards[:, e], values[:, e], dones[:, e],
                                  0.99, 0.95, bootstrap[e])
        assert np.max(np.abs(adv[:, e] - expected)) < 1e-10


def gae_per_step(rewards, values, dones, gamma, lam, bootstrap):
    """Oracle: GAE by a backward loop that forms each step's TD error as it goes."""
    t_len, n_envs = rewards.shape
    bootstrap = np.broadcast_to(np.asarray(bootstrap, dtype=float), (n_envs,))
    advantages = np.empty((t_len, n_envs))
    last_gae = np.zeros(n_envs)
    for t in range(t_len - 1, -1, -1):
        next_values = bootstrap if t == t_len - 1 else values[t + 1]
        non_terminal = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_values * non_terminal - values[t]
        last_gae = delta + gamma * lam * non_terminal * last_gae
        advantages[t] = last_gae
    return advantages


@pytest.mark.parametrize("lam", [0.0, 0.95, 1.0])
@pytest.mark.parametrize("per_env_bootstrap", [True, False])
def test_gae_is_bitwise_the_per_step_loop(lam, per_env_bootstrap):
    rng = np.random.default_rng(int(lam * 100) + per_env_bootstrap)
    for t_len, n_envs in [(1, 1), (1, 4), (37, 1), (64, 8), (128, 3)]:
        rewards = rng.standard_normal((t_len, n_envs)) * 3.0
        values = rng.standard_normal((t_len, n_envs))
        dones = (rng.random((t_len, n_envs)) < 0.2).astype(float)
        dones[-1, ::2] = 1.0  # episodes ending on the last step mask the bootstrap
        bootstrap = (rng.standard_normal(n_envs) if per_env_bootstrap
                     else float(rng.standard_normal()))
        gamma = float(rng.uniform(0.9, 1.0))
        buf = RolloutBuffer(obs=np.zeros((t_len, n_envs, 1)),
                            actions=np.zeros((t_len, n_envs), dtype=int),
                            rewards=rewards, values=values,
                            log_probs=np.zeros((t_len, n_envs)), dones=dones)
        adv, rets = compute_gae(buf, gamma, lam, bootstrap)
        expected = gae_per_step(rewards, values, dones, gamma, lam, bootstrap)
        assert np.array_equal(adv, expected)
        assert np.array_equal(rets, expected + values)


def test_buffer_rejects_mismatched_arrays():
    with pytest.raises(ValueError):
        RolloutBuffer(obs=np.zeros((4, 1, 2)), actions=np.zeros((3, 1), dtype=int),
                      rewards=np.zeros((4, 1)), values=np.zeros((4, 1)),
                      log_probs=np.zeros((4, 1)), dones=np.zeros((4, 1)))


def test_buffer_rejects_single_env_vectors():
    with pytest.raises(ValueError, match=r"\(T, n_envs\)"):
        RolloutBuffer(obs=np.zeros((4, 1)), actions=np.zeros(4, dtype=int),
                      rewards=np.zeros(4), values=np.zeros(4),
                      log_probs=np.zeros(4), dones=np.zeros(4))


# ---------------------------------------------------------------------------
# surrogate loss

def test_surrogate_identity_ratios():
    adv = np.array([1.0, -2.0, 0.5])
    assert clipped_surrogate_loss(np.ones(3), adv, 0.2) == -np.mean(adv)


def test_surrogate_clipped_branch():
    # ratio 2 with positive advantage clips at 1.2
    assert clipped_surrogate_loss([2.0], [1.0], 0.2) == pytest.approx(-1.2, abs=1e-15)


def test_surrogate_pessimistic_negative_advantage():
    # ratio 0.5, A=-1: clip to 0.8, min picks the larger penalty
    assert clipped_surrogate_loss([0.5], [-1.0], 0.2) == pytest.approx(0.8, abs=1e-15)


@pytest.mark.parametrize("discrete", [True, False])
def test_loss_reports_the_clipped_surrogate_on_both_clipped_branches(discrete):
    policy, value_net, obs, actions, _, _, rets = _safe_batch(discrete, seed=11, n=8)
    head = forward(policy.mlp, obs)
    new_lp = (categorical_log_probs(head, actions) if discrete
              else gaussian_log_probs(head, policy.log_std, actions))
    # clipped above (A > 0), clipped below (A < 0), inside the range, and outside
    # it where the unclipped term is the smaller one
    ratios = np.array([1.6, 1.3, 0.5, 0.7, 1.1, 0.9, 1.5, 0.6])
    adv = np.array([1.0, 0.5, -1.0, -2.0, 1.5, -0.5, -1.0, 2.0])
    old_lp = new_lp - np.log(ratios)
    applied = np.exp(new_lp - old_lp)
    assert np.all(applied[:2] > 1.2) and np.all(applied[2:4] < 0.8)
    _, m = ppo_loss_and_grads(policy, value_net, obs, actions, old_lp, adv, rets,
                              0.2, 0.5, 0.01, Gradients.like(policy, value_net))
    assert m.policy_loss == clipped_surrogate_loss(applied, adv, 0.2)
    assert m.clip_fraction == 0.75


def test_surrogate_rejects_length_mismatch():
    with pytest.raises(ValueError):
        clipped_surrogate_loss([1.0, 1.0], [1.0], 0.2)


def test_ratio_invariance_to_old_logit_shift():
    # dyadic logits and a power-of-two shift keep every float op identical
    logits = np.array([[0.5, -0.25, 1.0], [0.125, 2.0, -1.5]])
    actions = np.array([2, 1])
    base = categorical_log_probs(logits, actions)
    shifted = categorical_log_probs(logits + 2.0, actions)
    assert np.array_equal(base, shifted)


def test_normalize_advantages_moments():
    rng = np.random.default_rng(14)
    for _ in range(10):
        adv = rng.standard_normal(256) * rng.uniform(0.1, 50)
        out = normalize_advantages(adv)
        assert abs(out.mean()) < 1e-8
        assert abs(out.std() - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# composite loss gradients

def _safe_batch(discrete, seed, n=8, act_dim=2, hidden=(64, 64)):
    """Batch with ratios kept clear of the clip kinks so FD is valid."""
    rng = np.random.default_rng(seed)
    obs_dim = 4
    policy = policy_init(obs_dim, act_dim, discrete, rng, hidden)
    value_net = value_init(obs_dim, rng, hidden)
    obs = rng.standard_normal((n, obs_dim))
    head = forward(policy.mlp, obs)
    if discrete:
        actions = rng.integers(0, act_dim, size=n)
        log_probs = categorical_log_probs(head, actions)
    else:
        actions = head + np.exp(policy.log_std) * rng.standard_normal((n, act_dim))
        log_probs = gaussian_log_probs(head, policy.log_std, actions)
    while True:
        shift = rng.uniform(-0.25, 0.25, n)
        ratios = np.exp(shift)
        if np.all(np.abs(ratios - 0.8) > 0.02) and np.all(np.abs(ratios - 1.2) > 0.02):
            break
    old_log_probs = log_probs - shift
    advantages = rng.standard_normal(n)
    returns = rng.standard_normal(n)
    return policy, value_net, obs, actions, old_log_probs, advantages, returns


@pytest.mark.parametrize("discrete", [True, False])
def test_composite_loss_gradients_match_finite_differences(discrete):
    policy, value_net, obs, actions, old_lp, adv, rets = _safe_batch(discrete, seed=5)
    grads = Gradients.like(policy, value_net)
    loss, _ = ppo_loss_and_grads(policy, value_net, obs, actions, old_lp,
                                 adv, rets, 0.2, 0.5, 0.01, grads)
    assert np.isfinite(loss)
    n_pol = policy.n_params

    def loss_of(vec):
        pol = unflatten_policy(policy, vec[:n_pol])
        val = unflatten_mlp(value_net, vec[n_pol:])
        return ppo_loss_and_grads(pol, val, obs, actions, old_lp, adv, rets,
                                  0.2, 0.5, 0.01, Gradients.like(pol, val))[0]

    vec = np.concatenate([flatten_policy(policy), flatten_mlp(value_net)])
    numeric = central_diff(loss_of, vec)
    analytic = grads.vec
    assert max_rel_err(analytic, numeric) < 1e-4


@pytest.mark.parametrize("discrete", [True, False])
def test_loss_gradients_overwrite_a_reused_gradient_vector(discrete):
    policy, value_net, obs, actions, old_lp, adv, rets = _safe_batch(discrete, seed=6)
    args = (policy, value_net, obs, actions, old_lp, adv, rets, 0.2, 0.5, 0.01)
    fresh = Gradients.like(policy, value_net)
    ppo_loss_and_grads(*args, fresh)
    grads = Gradients.like(policy, value_net)
    grads.vec[:] = np.nan
    ppo_loss_and_grads(*args, grads)
    assert np.array_equal(grads.vec, fresh.vec)


@pytest.mark.parametrize("discrete, act_dim, hidden", [
    pytest.param(True, 2, (64, 64), id="True"),
    pytest.param(False, 2, (64, 64), id="False"),
    # both outputs (n, 1)
    pytest.param(False, 1, (), id="False-act1-linear"),
    pytest.param(False, 1, (64, 64), id="False-act1-64x64"),
    pytest.param(True, 2, (32, 16), id="True-32x16")])
def test_loss_through_reused_layer_buffers_is_bitwise_the_fresh_one(discrete, act_dim, hidden):
    policy, value_net, obs, actions, old_lp, adv, rets = _safe_batch(
        discrete, seed=7, act_dim=act_dim, hidden=hidden)
    args = (policy, value_net, obs, actions, old_lp, adv, rets, 0.2, 0.5, 0.01)
    n = obs.shape[0]
    fresh = Gradients.like(policy, value_net)
    want = ppo_loss_and_grads(*args, fresh)
    # Each network with buffers of its own gives the same bits.
    unshared = Gradients.like(policy, value_net)
    assert ppo_loss_and_grads(*args, unshared, LayerBuffers(
        layer_buffers(policy.mlp, n), layer_buffers(value_net, n),
        delta_buffers([policy.mlp, value_net], n))) == want
    assert np.array_equal(unshared.vec, fresh.vec)

    layers = LayerBuffers.like(policy, value_net, n)
    # Hidden layers are shared; the output layers never are.
    assert len(layers.value) == len(layers.policy) == len(hidden) + 1
    assert all(v is p for v, p in zip(layers.value[:-1], layers.policy[:-1]))
    assert not np.shares_memory(layers.value[-1], layers.policy[-1])
    buffers = [*layers.policy, layers.value[-1], *layers.deltas.values()]
    for a in buffers:
        a.fill(np.nan)
    grads = Gradients.like(policy, value_net)
    for _ in range(2):
        assert ppo_loss_and_grads(*args, grads, layers) == want
        assert np.array_equal(grads.vec, fresh.vec)
    assert all(a is b for a, b in zip([*layers.policy, layers.value[-1],
                                       *layers.deltas.values()], buffers))


def test_loss_metrics_at_identity_ratios():
    policy, value_net, obs, actions, _, adv, rets = _safe_batch(True, seed=9)
    head = forward(policy.mlp, obs)
    old_lp = categorical_log_probs(head, actions)  # current policy: ratios exactly 1
    loss, m = ppo_loss_and_grads(policy, value_net, obs, actions, old_lp,
                                 adv, rets, 0.2, 0.5, 0.0, Gradients.like(policy, value_net))
    assert m.policy_loss == pytest.approx(-np.mean(adv), abs=1e-12)
    assert m.approx_kl == pytest.approx(0.0, abs=1e-12)
    assert m.clip_fraction == 0.0


# ---------------------------------------------------------------------------
# update loop

def _tiny_config(**overrides):
    base = dict(rollout_steps=16, n_envs=2, minibatch_size=16, update_epochs=2,
                entropy_coef=0.01)
    base.update(overrides)
    return PpoConfig(**base)


def _collected_buffer(env_id="chain", seed=0, config=None):
    config = config or _tiny_config()
    state, worker, shuffle_rng = setup_run(env_id, config, seed)
    buffer, bootstrap, _ = worker.collect(state, config)
    compute_gae(buffer, config.gamma, config.gae_lambda, bootstrap)
    return state, buffer, shuffle_rng, config


def test_ppo_update_zero_lr_is_bitwise_noop():
    state, buffer, rng, config = _collected_buffer()
    before_policy = flatten_policy(state.policy).copy()
    before_value = flatten_mlp(state.value_net).copy()
    ppo_update(buffer, state, lr=0.0, momentum=0.9, config=config, rng=rng)
    assert np.array_equal(flatten_policy(state.policy), before_policy)
    assert np.array_equal(flatten_mlp(state.value_net), before_value)


def test_ppo_update_requires_advantages():
    state, buffer, rng, config = _collected_buffer()
    buffer.advantages = None
    buffer.returns = None
    with pytest.raises(ValueError):
        ppo_update(buffer, state, 0.001, 0.9, config, rng)


def test_ppo_update_consumes_buffer_once():
    state, buffer, rng, config = _collected_buffer()
    ppo_update(buffer, state, 0.001, 0.9, config, rng)
    with pytest.raises(RuntimeError):
        ppo_update(buffer, state, 0.001, 0.9, config, rng)


def test_ppo_update_deterministic_metrics():
    results = []
    for _ in range(2):
        state, buffer, rng, config = _collected_buffer(seed=4)
        results.append(ppo_update(buffer, state, 0.003, 0.95, config, rng))
    assert results[0] == results[1]


def _views_of_params(state):
    arrays = [*state.policy.mlp.weights, *state.policy.mlp.biases, state.policy.log_std,
              *state.value_net.weights, *state.value_net.biases]
    return all(np.shares_memory(a, state.params) for a in arrays)


def test_ppo_update_writes_parameters_in_place():
    state, buffer, rng, config = _collected_buffer("pendulum")
    assert _views_of_params(state)
    before = state.params.copy()
    ppo_update(buffer, state, 1e-3, 0.9, config, rng)
    assert _views_of_params(state)
    assert not np.array_equal(state.params, before)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_ppo_update_leaves_params_unchanged_on_nonfinite_step(optimizer):
    # An infinite step size makes the very first step non-finite; that step
    # must raise before anything is written.
    state, buffer, rng, config = _collected_buffer("pendulum",
                                                   config=_tiny_config(optimizer=optimizer))
    before = state.params.tobytes()
    with pytest.raises(DivergenceError):
        ppo_update(buffer, state, float("inf"), 0.9, config, rng)
    assert state.params.tobytes() == before


@pytest.mark.parametrize("at_end", [False, True], ids=["first", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_ppo_update_stops_at_a_lone_non_finite_parameter(monkeypatch, bad, at_end):
    # One bad element at either end of the step: a check of only the maximum
    # misses -inf, and one of only the minimum misses +inf.
    import cyclic_ppo.ppo as ppo_module

    state, buffer, rng, config = _collected_buffer()
    before = state.params.tobytes()

    def one_bad_element(opt, params, grads, lr, momentum):
        opt.out[:] = params
        opt.out[-1 if at_end else 0] = bad
        return opt.out

    monkeypatch.setattr(ppo_module, "_optimizer_step", one_bad_element)
    with pytest.raises(DivergenceError):
        ppo_update(buffer, state, 1e-3, 0.9, config, rng)
    assert state.params.tobytes() == before


def _workspace(state):
    opt = state.opt
    return [state.params, opt.first_moment, opt.second_moment, opt.out, opt.scratch,
            state.grads.vec, *state.layers.policy, *state.layers.value,
            *state.layers.deltas.values()]


def test_ppo_update_reuses_one_workspace(monkeypatch):
    import cyclic_ppo.ppo as ppo_module

    config = _tiny_config()
    state, worker, rng = setup_run("cartpole", config, seed=0)
    before = _workspace(state)
    steps, losses = [], []

    def recording_step(opt, params, grads, lr, beta1):
        steps.append((opt, params, grads))
        return adam_step(opt, params, grads, lr, beta1)

    def recording_loss(*args):
        losses.append(args[-2:])
        return ppo_loss_and_grads(*args)

    monkeypatch.setattr(ppo_module, "adam_step", recording_step)
    monkeypatch.setattr(ppo_module, "ppo_loss_and_grads", recording_loss)
    for _ in range(2):
        buffer, bootstrap, _ = worker.collect(state, config)
        compute_gae(buffer, config.gamma, config.gae_lambda, bootstrap)
        ppo_update(buffer, state, 1e-3, 0.9, config, rng)
    assert len(steps) == len(losses) == 2 * config.update_epochs * 2
    assert all(opt is state.opt and params is state.params and grads is state.grads.vec
               for opt, params, grads in steps)
    assert all(grads is state.grads and layers is state.layers for grads, layers in losses)
    after = _workspace(state)
    assert len(after) == len(before) and all(a is b for a, b in zip(after, before))
    assert state.opt.step_count == len(steps)


def test_ppo_update_rejects_a_minibatch_size_its_state_was_not_made_for():
    state, buffer, rng, config = _collected_buffer()
    before = state.params.tobytes()
    with pytest.raises(ValueError, match="another minibatch_size"):
        ppo_update(buffer, state, 1e-3, 0.9, _tiny_config(minibatch_size=32), rng)
    assert state.params.tobytes() == before
    ppo_update(buffer, state, 1e-3, 0.9, config, rng)  # the rejected call left it unconsumed
    _, short, _, _ = _collected_buffer(config=_tiny_config(rollout_steps=4, minibatch_size=8))
    with pytest.raises(ValueError, match="divide the number of buffered samples"):
        ppo_update(short, state, 1e-3, 0.9, config, rng)


def test_ppo_update_allocates_no_parameter_sized_array():
    # 256-wide layers make the parameter vector 1 MB and a layer buffer of
    # the 16-row minibatch 32 KB; a step that allocated any vector of the
    # parameters' size would show in the traced peak.
    config = _tiny_config(hidden_sizes=(256, 256))
    state, worker, rng = setup_run("cartpole", config, seed=0)
    for update in range(2):
        buffer, bootstrap, _ = worker.collect(state, config)
        compute_gae(buffer, config.gamma, config.gae_lambda, bootstrap)
        tracemalloc.start()
        try:
            ppo_update(buffer, state, 1e-3, 0.9, config, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < state.params.nbytes / 8


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ppo_update_raises_on_poisoned_buffer():
    state, buffer, rng, config = _collected_buffer()
    buffer.advantages = buffer.advantages.copy()
    buffer.advantages[0] = np.inf
    with pytest.raises(DivergenceError):
        ppo_update(buffer, state, 0.001, 0.9, config, rng)


# ---------------------------------------------------------------------------
# rollout

def collect_per_env(worker, state, config):
    """Oracle: ``RolloutWorker.collect`` stepping one env at a time.

    Each env step draws its own action from the worker's generator (a
    categorical by ``searchsorted`` on the CDF, a Gaussian by one
    ``standard_normal(act_dim)`` call) and computes its own log-probability.
    """
    t_len, n_envs = config.rollout_steps, len(worker.envs)
    spec = worker.envs[0].spec
    obs_dim, act_dim, discrete = spec.obs_dim, spec.action_dim, spec.discrete

    obs_buf = np.empty((t_len, n_envs, obs_dim))
    actions_buf = (np.empty((t_len, n_envs), dtype=int) if discrete
                   else np.empty((t_len, n_envs, act_dim)))
    rewards = np.empty((t_len, n_envs))
    values_buf = np.empty((t_len, n_envs))
    log_probs = np.empty((t_len, n_envs))
    dones = np.empty((t_len, n_envs))
    episodes = []
    if not discrete:
        log_std = effective_log_std(state.policy)
        std = np.exp(log_std)

    for t in range(t_len):
        obs_mat = np.stack(worker.obs)
        head = forward(state.policy.mlp, obs_mat)
        values_buf[t] = forward(state.value_net, obs_mat)[:, 0]
        obs_buf[t] = obs_mat

        if discrete:
            ls = log_softmax(head)
            cdf = np.cumsum(np.exp(ls), axis=1)

        for e, env in enumerate(worker.envs):
            if discrete:
                a = int(np.searchsorted(cdf[e], worker.rng.random(), side="right"))
                a = min(a, ls.shape[1] - 1)
                log_probs[t, e] = ls[e, a]
                actions_buf[t, e] = a
                action = a
            else:
                noise = worker.rng.standard_normal(act_dim)
                action = head[e] + std * noise
                log_probs[t, e] = gaussian_log_probs(head[e:e + 1], log_std,
                                                     action[None, :])[0]
                actions_buf[t, e] = action

            tr = env.step(action)
            worker.env_step += 1
            worker.episode_return[e] += tr.reward
            ended = tr.done or tr.truncated
            dones[t, e] = float(ended)
            rewards[t, e] = tr.reward
            if ended:
                episodes.append((worker.env_step, worker.episode_return[e]))
                worker.episode_return[e] = 0.0
                worker.obs[e] = env.reset()
            else:
                worker.obs[e] = tr.next_obs

    bootstrap = forward(state.value_net, np.stack(worker.obs))[:, 0]
    buffer = RolloutBuffer(obs=obs_buf, actions=actions_buf, rewards=rewards,
                           values=values_buf, log_probs=log_probs, dones=dones)
    return buffer, bootstrap, episodes


# Pendulum's output layers join the stacked forward, at any depth; cartpole's
# (2 logits against 1 value) do not, and without hidden layers nothing stacks.
@pytest.mark.parametrize("env_id, n_envs, hidden_sizes", [
    ("cartpole", 8, (64, 64)), ("pendulum", 1, (64, 64)), ("pendulum", 3, (64, 64)),
    ("chain", 2, (64, 64)), ("pendulum", 2, ()), ("pendulum", 2, (16, 24)), ("cartpole", 3, ())],
    ids=["cartpole-8", "pendulum-1", "pendulum-3", "chain-2", "pendulum-2-no_hidden",
         "pendulum-2-16x24", "cartpole-3-no_hidden"])
def test_collect_is_bitwise_the_per_env_loop(env_id, n_envs, hidden_sizes):
    # 150 steps per rollout: pendulum's 200-step and chain's 8-step episodes
    # end inside later buffers than they began in.
    config = PpoConfig(rollout_steps=150, n_envs=n_envs, minibatch_size=150,
                       hidden_sizes=hidden_sizes)
    runs = []
    for _ in range(2):
        state, worker, _ = setup_run(env_id, config, seed=3)
        # move away from the near-uniform initial policy; the same for both runs
        state.params += 0.3 * np.random.default_rng(5).standard_normal(state.params.size)
        runs.append((state, worker))
    (state, worker), (oracle_state, oracle_worker) = runs
    ended = 0
    for _ in range(3):
        buffer, bootstrap, episodes = worker.collect(state, config)
        want_buffer, want_bootstrap, want_episodes = collect_per_env(
            oracle_worker, oracle_state, config)
        for name in ("obs", "actions", "rewards", "values", "log_probs", "dones"):
            got, want = getattr(buffer, name), getattr(want_buffer, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert np.array_equal(bootstrap, want_bootstrap)
        assert episodes == want_episodes
        assert worker.env_step == oracle_worker.env_step
        assert worker.episode_return == oracle_worker.episode_return
        ended += len(episodes)
    assert ended > 0


@pytest.mark.parametrize("env_id", ["cartpole", "pendulum"])
@pytest.mark.parametrize("hidden_sizes", [(), (64, 64)])
def test_collect_after_an_update_sees_the_new_weights(env_id, hidden_sizes):
    config = PpoConfig(rollout_steps=64, n_envs=2, minibatch_size=32,
                       hidden_sizes=hidden_sizes)
    (state, worker, shuffle_rng), (oracle_state, oracle_worker, oracle_shuffle_rng) = (
        setup_run(env_id, config, seed=4) for _ in range(2))
    buffer, bootstrap, _ = worker.collect(state, config)
    oracle_buffer, oracle_bootstrap, _ = collect_per_env(oracle_worker, oracle_state, config)
    before = state.params.copy()
    for s, b, bs, rng in ((state, buffer, bootstrap, shuffle_rng),
                          (oracle_state, oracle_buffer, oracle_bootstrap, oracle_shuffle_rng)):
        compute_gae(b, config.gamma, config.gae_lambda, bs)
        ppo_update(b, s, 3e-3, 0.9, config, rng)
    assert np.array_equal(state.params, oracle_state.params)
    assert not np.array_equal(state.params, before)

    buffer, bootstrap, _ = worker.collect(state, config)
    want_buffer, want_bootstrap, _ = collect_per_env(oracle_worker, oracle_state, config)
    for name in ("actions", "values", "log_probs"):
        assert np.array_equal(getattr(buffer, name), getattr(want_buffer, name)), name
    assert np.array_equal(bootstrap, want_bootstrap)


# ---------------------------------------------------------------------------
# training loop

@pytest.mark.parametrize("seeds", [[1], [1, 2, 3]], ids=["fewer", "more"])
def test_rollout_worker_rejects_a_seed_count_other_than_its_envs(seeds):
    envs = [make_env("cartpole"), make_env("cartpole")]
    with pytest.raises(ValueError):
        RolloutWorker(envs, seeds, np.random.default_rng(0))


def test_train_zero_steps_empty_log():
    log = train("chain", SchedulePolicy.constant(1e-3), None,
                _tiny_config(), seed=0, total_steps=0)
    assert log.rows == [] and not log.diverged
    with pytest.raises(ValueError, match="total_steps must be non-negative"):
        train("chain", SchedulePolicy.constant(1e-3), None, _tiny_config(), seed=0,
              total_steps=-1)


def test_run_updates_yields_each_update_and_stops_at_divergence():
    config = _tiny_config()
    pairs = [(1e-3, 0.9), (2e-3, 0.85), (float("inf"), 0.8), (1e-3, 0.9)]
    out = list(run_updates("chain", config, 0, pairs))
    assert len(out) == 3  # the pair after the divergence is never run
    assert [(lr, m) for lr, m, *_ in out] == pairs[:3]
    assert [step for *_, step, _ in out] == [32, 64, 96]
    assert all(isinstance(m, UpdateMetrics) for *_, m in out[:2])
    assert isinstance(out[2][4], DivergenceError)
    for _, _, episodes, step, _ in out:
        assert all(step - 32 < at <= step for at, _ in episodes)


def test_run_updates_applies_and_yields_fixed_momentum_for_a_none_momentum(monkeypatch):
    import cyclic_ppo.ppo as ppo_module

    applied = []
    real_update = ppo_module.ppo_update

    def recording_update(buffer, state, lr, momentum, config, rng):
        applied.append(momentum)
        return real_update(buffer, state, lr, momentum, config, rng)

    monkeypatch.setattr(ppo_module, "ppo_update", recording_update)
    config = _tiny_config(fixed_momentum=0.5)
    out = list(run_updates("chain", config, 0, [(1e-3, None), (1e-3, 0.8), (1e-3, None)]))
    assert applied == [0.5, 0.8, 0.5]
    assert [momentum for _, momentum, *_ in out] == [0.5, 0.8, 0.5]


def test_train_logs_match_schedule_exactly():
    policy = SchedulePolicy.triangular(1e-4, 1e-2, 2)  # tiny stepsize crosses cycles
    cycle = MomentumCycle()
    log = train("chain", policy, cycle, _tiny_config(), seed=1, total_steps=400)
    assert log.rows
    for row in log.rows:
        assert row.lr == lr_at(policy, row.update_index)
        assert row.momentum == momentum_at(policy, cycle, row.update_index)


def test_train_env_steps_strictly_increasing():
    log = train("chain", SchedulePolicy.constant(1e-3), None,
                _tiny_config(), seed=2, total_steps=300)
    steps = [row.env_step for row in log.rows]
    assert all(a < b for a, b in zip(steps, steps[1:]))


def test_train_fixed_momentum_when_not_cycling():
    config = _tiny_config()
    log = train("chain", SchedulePolicy.constant(1e-3), None,
                config, seed=0, total_steps=100)
    assert all(row.momentum == config.fixed_momentum for row in log.rows)


def test_train_rejects_cycling_with_constant_schedule():
    with pytest.raises(ValueError):
        train("chain", SchedulePolicy.constant(1e-3), MomentumCycle(),
              _tiny_config(), seed=0, total_steps=100)


def test_train_rejects_cycling_with_equal_bounds_before_setting_up(monkeypatch):
    import cyclic_ppo.ppo as ppo_module

    def no_setup(*args, **kwargs):
        raise AssertionError("setup_run was called")

    monkeypatch.setattr(ppo_module, "setup_run", no_setup)
    with pytest.raises(ValueError, match="lr_min < lr_max"):
        ppo_module.train("chain", SchedulePolicy.triangular(1e-3, 1e-3, 4), MomentumCycle(),
                         _tiny_config(), seed=0, total_steps=100)


def test_train_rejects_bounds_that_underflow_within_the_run_before_setting_up(monkeypatch):
    """Times 1e-300 per cycle, cycle 2 (update 4 at stepsize 1) has bounds 0 == 0."""
    import cyclic_ppo.ppo as ppo_module
    policy = SchedulePolicy.exp_range(1e-4, 1e-2, 1, 1e-300)
    assert len(train("chain", policy, MomentumCycle(), _tiny_config(), seed=0,
                     total_steps=4 * 32).update_rows()) == 4

    def no_setup(*args, **kwargs):
        raise AssertionError("setup_run was called")

    monkeypatch.setattr(ppo_module, "setup_run", no_setup)
    with pytest.raises(ValueError, match="decay 1e-300 they are equal from update 4"):
        ppo_module.train("chain", policy, MomentumCycle(), _tiny_config(), seed=0,
                         total_steps=4 * 32 + 1)


def test_train_deterministic_byte_identical():
    logs = [train("chain", SchedulePolicy.triangular(1e-4, 1e-2, 4), MomentumCycle(),
                  _tiny_config(), seed=7, total_steps=300) for _ in range(2)]
    assert dump_runlog(logs[0]) == dump_runlog(logs[1])


def test_train_sgd_optimizer_path():
    log = train("chain", SchedulePolicy.triangular(1e-4, 1e-2, 4), MomentumCycle(),
                _tiny_config(optimizer="sgd"), seed=0, total_steps=200)
    assert log.update_rows() and not log.diverged


def test_train_continuous_actions_path():
    log = train("pendulum", SchedulePolicy.constant(1e-4), None,
                _tiny_config(rollout_steps=32, n_envs=1, minibatch_size=16),
                seed=0, total_steps=128)
    assert log.update_rows() and not log.diverged


# sha256 of dump_runlog for the triangular arm (1e-4..1e-2, stepsize 2000) with
# momentum cycled 0.8..1.0, default 64x64 profile, seed 1, as the benchmark's
# cartpole-8x128 and pendulum-1x2048 workloads run it.
PINNED_RUNLOG_SHA256 = {
    ("cartpole", 16_384): "e195bc52a0a3b1a110d48d2946a55cdb2f942c7b1689caf212c49512703177cb",
    ("pendulum", 8_192): "f238b9e56cd45937afddc7e6453e12c809eb475aedf40f794508c5964d1cf368",
}


@pytest.mark.parametrize("env_id, total_steps", sorted(PINNED_RUNLOG_SHA256))
def test_train_run_log_matches_pinned_digest(env_id, total_steps):
    """Any change to what ``train`` computes shows as a changed digest.

    Pinned with numpy 2.4.6 on scipy-openblas 0.3.31; another BLAS build
    may sum in another order and change the last bits. At 64 hidden units
    the digests are the same with one and with two OpenBLAS threads; at
    256 they are not, so no wide run is pinned. A change that moves a digest
    says why in CHANGES.md and reruns the acceptance criteria unchanged.
    """
    log = train(env_id, SchedulePolicy.triangular(1e-4, 1e-2, 2000),
                MomentumCycle(m_min=0.8, m_max=1.0),
                default_ppo_config(env_id), seed=1, total_steps=total_steps)
    digest = hashlib.sha256(dump_runlog(log).encode()).hexdigest()
    assert digest == PINNED_RUNLOG_SHA256[env_id, total_steps]


# sha256 of dump_runlog for a short cartpole run with SGD: triangular 1e-3..5e-2
# at stepsize 2 with momentum cycled 0.8..1.0, so the velocity decay meets
# the 0.999 ceiling; the same with one and with two OpenBLAS threads.
PINNED_SGD_RUNLOG_SHA256 = "6aa0149aeecf23c01b313479720028e21b44100cd1120a5cf9c16cb9df4c9d1b"


def test_train_sgd_run_log_matches_pinned_digest():
    log = train("cartpole", SchedulePolicy.triangular(1e-3, 5e-2, 2),
                MomentumCycle(m_min=0.8, m_max=1.0),
                default_ppo_config("cartpole", {"optimizer": "sgd"}), seed=1,
                total_steps=6 * 1024)
    assert [row.momentum for row in log.update_rows()] == [1.0, 0.9, 0.8, 0.9, 1.0, 0.9]
    digest = hashlib.sha256(dump_runlog(log).encode()).hexdigest()
    assert digest == PINNED_SGD_RUNLOG_SHA256


# sha256 of dump_runlog at the edge widths: no hidden layer, one, and two of
# unequal width; 3 updates of 2 envs x 64 steps in minibatches of 32, the
# triangular arm at stepsize 2 with momentum cycled 0.8..1.0, seed 1. The same
# with one and with two OpenBLAS threads.
PINNED_EDGE_WIDTH_SHA256 = {
    ("chain", ()): "632b02196358392d02c41cdefd9668783c5956573ae84510dcbef4a90830fa8e",
    ("chain", (32,)): "ffe8b83eba6e86967faae8ce7c7500e5263d865a330a1df2dde41892f77121fb",
    ("chain", (16, 24)): "b797bbb1978ae0a19c290168a607ea287c273521ce532934eebce21b302c0d64",
    ("cartpole", ()): "0dc2a4c71ef25ddaf7c84fa98fc322be4c12ddd4bd709f500cf5e8e13a82bd18",
    ("cartpole", (32,)): "3993d819dd7f034f922738ba42edcee0de1cf23a6c00c88a3d672844c99ec375",
    ("cartpole", (16, 24)): "0fa032616f79a7695f3b4a475a2d77eee0a71ad5f79f997546500f3d7b455799",
    ("pendulum", ()): "516b28aa504fe2da42efd7984149a8f47e485c24dcb8320fcbaa8f3f81a30bc1",
    ("pendulum", (32,)): "f917a14ea20ca2c0ec2db7dfc06ecb3bff86efb806861b13e91dce2a7a994ae4",
    ("pendulum", (16, 24)): "858820a5177e87107daadb0bb6496948bea6bca32e30a60585a2cd663036ef91",
}


@pytest.mark.parametrize("env_id, hidden_sizes", sorted(PINNED_EDGE_WIDTH_SHA256))
def test_train_at_edge_widths_matches_pinned_digest(env_id, hidden_sizes):
    config = default_ppo_config(env_id, {"hidden_sizes": hidden_sizes, "n_envs": 2,
                                         "rollout_steps": 64, "minibatch_size": 32})
    log = train(env_id, SchedulePolicy.triangular(1e-4, 1e-2, 2),
                MomentumCycle(m_min=0.8, m_max=1.0), config, seed=1, total_steps=3 * 128)
    assert len(log.update_rows()) == 3
    digest = hashlib.sha256(dump_runlog(log).encode()).hexdigest()
    assert digest == PINNED_EDGE_WIDTH_SHA256[env_id, hidden_sizes]


def test_train_divergence_flagged(monkeypatch):
    import cyclic_ppo.ppo as ppo_module

    def exploding_update(*args, **kwargs):
        raise DivergenceError(float("nan"))

    monkeypatch.setattr(ppo_module, "ppo_update", exploding_update)
    log = ppo_module.train("chain", SchedulePolicy.constant(1e-3),
                           None, _tiny_config(), seed=0,
                           total_steps=100)
    assert log.diverged
    assert all(row.policy_loss is None for row in log.rows)  # no update rows landed


def test_a_diverging_pendulum_run_is_logged_as_diverged_not_warned():
    """A Gaussian policy whose mean overflows raises no numpy warning, under the suite's
    warnings-as-errors filter: the run ends as an outcome."""
    config = PpoConfig(rollout_steps=16, n_envs=2, minibatch_size=16, update_epochs=2)
    log = train("pendulum", SchedulePolicy.constant(1e300), None, config, 0, 3200)
    assert log.diverged


@pytest.mark.parametrize("make", [
    lambda: PpoConfig(rollout_steps=16.0, n_envs=2, minibatch_size=16),
    lambda: PpoConfig(hidden_sizes=(8.0, 8)),
    lambda: SchedulePolicy.triangular(1e-4, 1e-2, 2.5),
    lambda: ChainMdp(**{**vars(default_chain()), "horizon": 2.5}),
], ids=["rollout-steps", "hidden-width", "stepsize", "horizon"])
def test_a_count_must_be_an_integer(make):
    with pytest.raises(ValueError, match="integer"):
        make()


def test_a_numpy_integer_is_a_count():
    PpoConfig(rollout_steps=np.int64(16), n_envs=np.int32(2), minibatch_size=16,
              hidden_sizes=(np.int64(8), 8))
    SchedulePolicy.triangular(1e-4, 1e-2, np.int64(3))
    ChainMdp(**{**vars(default_chain()), "horizon": np.int64(3)})


def test_config_validation():
    with pytest.raises(ValueError):
        PpoConfig(minibatch_size=7, rollout_steps=16, n_envs=2)
    with pytest.raises(ValueError):
        PpoConfig(gamma=1.5)
    with pytest.raises(ValueError):
        PpoConfig(optimizer="rmsprop")


def test_build_agent_shapes():
    config = _tiny_config()
    rng = np.random.default_rng(0)
    state = build_agent(make_env("cartpole"), config, rng)
    assert isinstance(state, TrainState)
    assert state.policy.mlp.sizes == (4, 64, 64, 2)
    assert state.policy.log_std is None
    assert state.value_net.sizes == (4, 64, 64, 1)
    cont = build_agent(make_env("pendulum"), config, np.random.default_rng(0))
    assert cont.policy.log_std is not None and cont.policy.log_std.shape == (1,)
    for env_id in ENV_IDS:
        env = make_env(env_id)
        spec = env.spec
        state = build_agent(env, config, np.random.default_rng(0))
        assert state.policy.mlp.sizes[-1] == spec.action_dim
        assert (state.policy.log_std is None) == spec.discrete


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_build_agent_lends_the_gradient_vector_as_the_optimizers_out(optimizer):
    state = build_agent(make_env("cartpole"), _tiny_config(optimizer=optimizer),
                        np.random.default_rng(0))
    assert state.opt.out is state.grads.vec


def test_build_agent_frees_the_initial_networks_before_it_allocates_its_workspace():
    # cartpole-wide256's profile: a 1 MB parameter vector. Were the freshly
    # initialised networks still held while the optimizer state, gradient
    # vector and layer buffers are allocated, the traced peak would exceed
    # what the agent keeps by about the vector's size.
    config = PpoConfig(rollout_steps=128, n_envs=8, minibatch_size=256,
                       hidden_sizes=(256, 256))
    env = make_env("cartpole")
    tracemalloc.start()
    try:
        state = build_agent(env, config, np.random.default_rng(0))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - retained < state.params.nbytes / 2
    # params, Adam's moments and the gradient vector, which is also the
    # optimizer's out, plus Adam's one-block scratch and layer buffers: 5.6
    # times the vector here, 5.7 with a bool finiteness mask per parameter,
    # 6.6 were the scratch parameter-sized and 7.6 were out a vector of its
    # own as well.
    assert retained < 7.1 * state.params.nbytes
    assert retained < 6.1 * state.params.nbytes
    assert retained < 5.65 * state.params.nbytes
