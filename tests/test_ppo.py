import hashlib

import numpy as np
import pytest
from gradcheck import central_diff, max_rel_err

from cyclic_ppo.nn import (categorical_log_probs, flatten_mlp, flatten_policy, forward,
                           gaussian_log_probs, log_softmax, policy_init, unflatten_mlp,
                           unflatten_policy, value_init)
from cyclic_ppo.ppo import (DivergenceError, Gradients, PpoConfig, RolloutBuffer,
                            TrainState, UpdateMetrics, build_agent, compute_gae,
                            normalize_advantages, ppo_loss_and_grads, ppo_update,
                            run_updates, setup_run, train)
from cyclic_ppo.envs import make_env
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
    return RolloutBuffer(obs=np.zeros((t_len, 1)), actions=np.zeros(t_len, dtype=int),
                         rewards=np.asarray(rewards, dtype=float),
                         values=np.asarray(values, dtype=float),
                         log_probs=np.zeros(t_len),
                         dones=np.asarray(dones, dtype=float))


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


def test_buffer_rejects_mismatched_arrays():
    with pytest.raises(ValueError):
        RolloutBuffer(obs=np.zeros((4, 1, 2)), actions=np.zeros((3, 1), dtype=int),
                      rewards=np.zeros((4, 1)), values=np.zeros((4, 1)),
                      log_probs=np.zeros((4, 1)), dones=np.zeros((4, 1)))


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
    _, _, _, m = ppo_loss_and_grads(policy, value_net, obs, actions, old_lp, adv, rets,
                                    0.2, 0.5, 0.01)
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

def _safe_batch(discrete, seed, n=8):
    """Batch with ratios kept clear of the clip kinks so FD is valid."""
    rng = np.random.default_rng(seed)
    obs_dim, act_dim = 4, 2
    policy = policy_init(obs_dim, act_dim, discrete, rng)
    value_net = value_init(obs_dim, rng)
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
    loss, g_pol, g_val, _ = ppo_loss_and_grads(policy, value_net, obs, actions, old_lp,
                                               adv, rets, 0.2, 0.5, 0.01)
    assert np.isfinite(loss)
    n_pol = policy.n_params

    def loss_of(vec):
        pol = unflatten_policy(policy, vec[:n_pol])
        val = unflatten_mlp(value_net, vec[n_pol:])
        return ppo_loss_and_grads(pol, val, obs, actions, old_lp, adv, rets,
                                  0.2, 0.5, 0.01)[0]

    vec = np.concatenate([flatten_policy(policy), flatten_mlp(value_net)])
    numeric = central_diff(loss_of, vec)
    analytic = np.concatenate([g_pol, g_val])
    assert max_rel_err(analytic, numeric) < 1e-4


@pytest.mark.parametrize("discrete", [True, False])
def test_loss_gradients_overwrite_a_reused_gradient_vector(discrete):
    policy, value_net, obs, actions, old_lp, adv, rets = _safe_batch(discrete, seed=6)
    args = (policy, value_net, obs, actions, old_lp, adv, rets, 0.2, 0.5, 0.01)
    _, fresh_pol, fresh_val, _ = ppo_loss_and_grads(*args)
    grads = Gradients.like(policy, value_net)
    grads.vec[:] = np.nan
    _, g_pol, g_val, _ = ppo_loss_and_grads(*args, grads)
    assert np.shares_memory(g_pol, grads.vec) and np.shares_memory(g_val, grads.vec)
    assert np.array_equal(np.concatenate([g_pol, g_val]), grads.vec)
    assert np.array_equal(g_pol, fresh_pol) and np.array_equal(g_val, fresh_val)


def test_loss_metrics_at_identity_ratios():
    policy, value_net, obs, actions, _, adv, rets = _safe_batch(True, seed=9)
    head = forward(policy.mlp, obs)
    old_lp = categorical_log_probs(head, actions)  # current policy: ratios exactly 1
    loss, _, _, m = ppo_loss_and_grads(policy, value_net, obs, actions, old_lp,
                                       adv, rets, 0.2, 0.5, 0.0)
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ppo_update_raises_on_poisoned_buffer():
    state, buffer, rng, config = _collected_buffer()
    buffer.advantages = buffer.advantages.copy()
    buffer.advantages[0] = np.inf
    with pytest.raises(DivergenceError):
        ppo_update(buffer, state, 0.001, 0.9, config, rng)


# ---------------------------------------------------------------------------
# training loop

def test_train_zero_steps_empty_log():
    log = train("chain", SchedulePolicy.constant(1e-3), MomentumCycle.disabled(),
                _tiny_config(), seed=0, total_steps=0)
    assert log.rows == [] and not log.diverged


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


def test_train_logs_match_schedule_exactly():
    policy = SchedulePolicy.triangular(1e-4, 1e-2, 2)  # tiny stepsize crosses cycles
    cycle = MomentumCycle()
    log = train("chain", policy, cycle, _tiny_config(), seed=1, total_steps=400)
    assert log.rows
    for row in log.rows:
        assert row.lr == lr_at(policy, row.update_index)
        assert row.momentum == momentum_at(policy, cycle, row.update_index)


def test_train_env_steps_strictly_increasing():
    log = train("chain", SchedulePolicy.constant(1e-3), MomentumCycle.disabled(),
                _tiny_config(), seed=2, total_steps=300)
    steps = [row.env_step for row in log.rows]
    assert all(a < b for a, b in zip(steps, steps[1:]))


def test_train_fixed_momentum_when_not_cycling():
    config = _tiny_config()
    log = train("chain", SchedulePolicy.constant(1e-3), MomentumCycle.disabled(),
                config, seed=0, total_steps=100)
    assert all(row.momentum == config.fixed_momentum for row in log.rows)


def test_train_rejects_cycling_with_constant_schedule():
    with pytest.raises(ValueError):
        train("chain", SchedulePolicy.constant(1e-3), MomentumCycle(),
              _tiny_config(), seed=0, total_steps=100)


def test_train_deterministic_byte_identical():
    logs = [train("chain", SchedulePolicy.triangular(1e-4, 1e-2, 4), MomentumCycle(),
                  _tiny_config(), seed=7, total_steps=300) for _ in range(2)]
    assert dump_runlog(logs[0]) == dump_runlog(logs[1])


def test_train_sgd_optimizer_path():
    log = train("chain", SchedulePolicy.triangular(1e-4, 1e-2, 4), MomentumCycle(),
                _tiny_config(optimizer="sgd"), seed=0, total_steps=200)
    assert log.update_rows() and not log.diverged


def test_train_continuous_actions_path():
    log = train("pendulum", SchedulePolicy.constant(1e-4), MomentumCycle.disabled(),
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
                MomentumCycle(enabled=True, m_min=0.8, m_max=1.0),
                default_ppo_config(env_id), seed=1, total_steps=total_steps)
    digest = hashlib.sha256(dump_runlog(log).encode()).hexdigest()
    assert digest == PINNED_RUNLOG_SHA256[env_id, total_steps]


def test_train_divergence_flagged(monkeypatch):
    import cyclic_ppo.ppo as ppo_module

    def exploding_update(*args, **kwargs):
        raise DivergenceError(float("nan"))

    monkeypatch.setattr(ppo_module, "ppo_update", exploding_update)
    log = ppo_module.train("chain", SchedulePolicy.constant(1e-3),
                           MomentumCycle.disabled(), _tiny_config(), seed=0,
                           total_steps=100)
    assert log.diverged
    assert all(row.policy_loss is None for row in log.rows)  # no update rows landed


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
