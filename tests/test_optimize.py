import warnings

import numpy as np
import optimizer_oracle as oracle
import pytest

from cyclic_ppo.optimize import (BLOCK, MOMENTUM_CEILING, AdamState, SgdMomentumState,
                                 adam_step, clip_global_norm, sgd_momentum_step)


def test_adam_zero_grad_fixed_point():
    state = AdamState.init(3)
    params = np.array([1.0, -2.0, 0.5])
    for _ in range(5):
        params[:] = adam_step(state, params, np.zeros(3), lr=0.01, beta1=0.9)
    assert np.array_equal(params, [1.0, -2.0, 0.5])
    assert np.array_equal(state.first_moment, np.zeros(3))
    assert np.array_equal(state.second_moment, np.zeros(3))


def test_adam_first_step_magnitude():
    # bias correction makes the first step -lr * g / (|g| + eps)
    state = AdamState.init(1)
    params = adam_step(state, np.array([0.0]), np.array([1.0]), lr=0.01, beta1=0.9)
    assert abs(params[0] + 0.01) <= 1e-6


def test_adam_moment_decay_on_zero_grads():
    state = AdamState.init(1)
    adam_step(state, np.array([0.0]), np.array([2.0]), lr=0.01, beta1=0.9)
    m1, v1 = state.first_moment.copy(), state.second_moment.copy()
    adam_step(state, np.array([0.0]), np.array([0.0]), lr=0.01, beta1=0.9)
    assert state.first_moment[0] == 0.9 * m1[0]
    assert state.second_moment[0] == state.beta2 * v1[0]
    adam_step(state, np.array([0.0]), np.array([0.0]), lr=0.01, beta1=0.9)
    assert state.first_moment[0] == 0.9 * (0.9 * m1[0])
    assert state.second_moment[0] == state.beta2 * (state.beta2 * v1[0])


def test_adam_beta1_clamped_at_ceiling():
    grads = np.array([0.3, -1.2])
    params = np.array([0.1, 0.2])
    sa, sb = AdamState.init(2), AdamState.init(2)
    a = adam_step(sa, params, grads, lr=0.01, beta1=1.0)
    b = adam_step(sb, params, grads, lr=0.01, beta1=MOMENTUM_CEILING)
    assert np.array_equal(a, b)
    assert np.array_equal(sa.first_moment, sb.first_moment)


def test_adam_step_count_increments():
    state = AdamState.init(1)
    for expected in (1, 2, 3):
        adam_step(state, np.zeros(1), np.ones(1), lr=0.01, beta1=0.9)
        assert state.step_count == expected


def test_adam_zero_lr_is_noop():
    state = AdamState.init(2)
    params = np.array([0.3, -0.7])
    new_params = adam_step(state, params, np.array([1.0, 2.0]), lr=0.0, beta1=0.9)
    assert np.array_equal(new_params, params)


def test_adam_rejects_bad_inputs():
    state = AdamState.init(2)
    with pytest.raises(ValueError):
        adam_step(state, np.zeros(3), np.zeros(3), lr=0.01, beta1=0.9)
    with pytest.raises(ValueError):
        adam_step(state, np.zeros(2), np.zeros(3), lr=0.01, beta1=0.9)
    with pytest.raises(ValueError, match="lr must be non-negative"):
        adam_step(state, np.zeros(2), np.zeros(2), lr=-0.01, beta1=0.9)
    with pytest.raises(ValueError, match="beta1 must be non-negative"):
        adam_step(state, np.zeros(2), np.zeros(2), lr=0.01, beta1=-0.1)
    assert state.step_count == 0


def test_adam_does_not_mutate_inputs():
    # The pure oracle's contract: fresh parameters and a fresh state.
    state = oracle.AdamState.init(1)
    params = np.array([1.0])
    grads = np.array([2.0])
    oracle.adam_step(state, params, grads, lr=0.1, beta1=0.9)
    assert params[0] == 1.0 and grads[0] == 2.0
    assert state.first_moment[0] == 0.0 and state.step_count == 0


def test_adam_determinism():
    args = (np.array([0.5, -0.5]), np.array([0.1, 0.9]), 0.003, 0.95)
    s1, s2 = AdamState.init(2), AdamState.init(2)
    p1 = adam_step(s1, *args[:2], lr=args[2], beta1=args[3])
    p2 = adam_step(s2, *args[:2], lr=args[2], beta1=args[3])
    assert np.array_equal(p1, p2)
    assert np.array_equal(s1.second_moment, s2.second_moment)


def test_adam_step_scales_linearly_with_lr():
    grads = np.array([0.7, -0.2, 1.5])
    params = np.zeros(3)
    p_small = adam_step(AdamState.init(3), params, grads, lr=0.005, beta1=0.9)
    p_large = adam_step(AdamState.init(3), params, grads, lr=0.01, beta1=0.9)
    # doubling lr exactly doubles the displacement (power-of-two scaling)
    assert np.array_equal(p_large, 2.0 * p_small)


def test_sgd_momentum_free_reduction():
    params = np.array([1.0, 2.0])
    grads = np.array([0.5, -0.5])
    new_params = sgd_momentum_step(SgdMomentumState.init(2), params, grads, lr=0.1, mu=0.0)
    assert np.array_equal(new_params, params - 0.1 * grads)


def test_sgd_zero_grads_zero_velocity_noop():
    params = np.array([3.0])
    state = SgdMomentumState.init(1)
    new_params = sgd_momentum_step(state, params, np.zeros(1), lr=0.1, mu=0.5)
    assert np.array_equal(new_params, params)
    assert state.velocity[0] == 0.0


def test_sgd_velocity_unrolled_by_hand():
    # v1 = 1, p -> -1; v2 = 0.5 + 1 = 1.5, p -> -2.5
    state = SgdMomentumState.init(1)
    params = np.array([0.0])
    params[:] = sgd_momentum_step(state, params, np.ones(1), lr=1.0, mu=0.5)
    params[:] = sgd_momentum_step(state, params, np.ones(1), lr=1.0, mu=0.5)
    assert params[0] == -2.5


def test_sgd_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        sgd_momentum_step(SgdMomentumState.init(2), np.zeros(2), np.zeros(1), lr=0.1, mu=0.5)
    state = SgdMomentumState.init(2)
    with pytest.raises(ValueError, match="lr must be non-negative"):
        sgd_momentum_step(state, np.zeros(2), np.ones(2), lr=-0.1, mu=0.5)
    with pytest.raises(ValueError, match="mu must be non-negative"):
        sgd_momentum_step(state, np.zeros(2), np.ones(2), lr=0.1, mu=-0.5)
    assert np.array_equal(state.velocity, np.zeros(2))


def _clipped(g, max_norm):
    g = g.copy()
    clip_global_norm(g, max_norm)
    return g


def test_clip_under_threshold_unchanged():
    g = np.array([0.3, 0.4])
    assert np.array_equal(_clipped(g, 1.0), g)


def test_clip_rescales_to_max_norm():
    g = np.array([3.0, 4.0])
    clip_global_norm(g, 1.0)
    assert np.allclose(g, [0.6, 0.8], atol=1e-15)


def test_clip_zero_vector():
    assert np.array_equal(_clipped(np.zeros(4), 1.0), np.zeros(4))


def test_clip_norm_bound_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = rng.standard_normal(rng.integers(1, 30)) * rng.uniform(0.01, 100)
        max_norm = rng.uniform(0.01, 10)
        assert np.linalg.norm(_clipped(g, max_norm)) <= max_norm + 1e-12


def test_clip_rejects_nonpositive_max_norm():
    with pytest.raises(ValueError):
        clip_global_norm(np.ones(2), 0.0)


# The last two vectors' true norms exceed the largest float, not only their squares.
OVERFLOWING = [([1e200, 1e200, -3e199], [1.0, 1.0, -1.0]),
               ([1.5e308, 1.5e308], [1.0, 1.0]),
               ([1.7e308, -1.7e308, 1.0], [1.0, -1.0, 1.0])]


def test_clip_rescales_a_finite_vector_whose_squared_norm_overflows():
    for values, signs in OVERFLOWING:
        g = np.array(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clip_global_norm(g, 0.5)
        assert abs(np.linalg.norm(g) - 0.5) < 1e-12
        assert np.array_equal(np.sign(g), signs)


@pytest.mark.parametrize("values", [v for v, _ in OVERFLOWING],
                         ids=["squared_norm", "norm_1.5e308", "norm_1.7e308"])
def test_clip_to_an_infinite_norm_leaves_an_overflowing_vector_unchanged(values):
    g = np.array(values)
    before = g.tobytes()
    clip_global_norm(g, np.inf)
    assert g.tobytes() == before


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_clip_leaves_a_non_finite_vector_non_finite(bad):
    g = np.array([bad, 1.0])
    with np.errstate(invalid="ignore"):
        clip_global_norm(g, 0.5)
    assert not np.isfinite(g).all()


@pytest.mark.parametrize("n", [1, BLOCK, BLOCK + 1, 134915])
def test_adam_scratch_is_one_block(n):
    assert AdamState.init(n).scratch.size == min(n, BLOCK)


# The textbook expressions, written out as oracles for the in-place steps.

_BETAS = [0.0, 0.8, 0.95, 0.999, 1.0]
# Two full blocks of adam_step and a tail, with the gradient written into
# the state's ``out`` and not.
_BLOCKS = 2 * BLOCK + 3
_ACROSS_BLOCKS = [pytest.param(b, in_out, _BLOCKS,
                               id=f"{b}{'-out_is_grads' if in_out else ''}-2_blocks_and_tail")
                  for b in (0.8, 1.0) for in_out in (False, True)]


@pytest.mark.parametrize("beta1, in_out, n", [*(pytest.param(b, False, 257, id=str(b))
                                                for b in _BETAS), *_ACROSS_BLOCKS])
def test_adam_matches_textbook_expressions_bitwise(beta1, in_out, n):
    rng = np.random.default_rng(int(beta1 * 1000))
    lr, beta2, eps = 3e-3, 0.999, 1e-5
    state = AdamState.init(n, beta2=beta2, epsilon=eps)
    params = rng.standard_normal(n)
    b1 = min(beta1, MOMENTUM_CEILING)
    m, v, p = np.zeros(n), np.zeros(n), params.copy()
    for t in range(1, 51):
        g = rng.standard_normal(n) * rng.uniform(1e-3, 10.0)
        if in_out:
            state.out[:] = g
        params[:] = adam_step(state, params, state.out if in_out else g, lr=lr, beta1=beta1)
        m = b1 * m + (1.0 - b1) * g
        v = beta2 * v + (1.0 - beta2) * g ** 2
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.array_equal(state.first_moment, m)
        assert np.array_equal(state.second_moment, v)
        assert np.array_equal(params, p)
        assert state.step_count == t


@pytest.mark.parametrize("mu", [0.0, 0.8, 0.95, 0.999, 1.0])
def test_sgd_momentum_matches_textbook_expressions_bitwise(mu):
    rng = np.random.default_rng(int(mu * 1000))
    n, lr = 257, 3e-3
    state = SgdMomentumState.init(n)
    params = rng.standard_normal(n)
    decay = min(mu, MOMENTUM_CEILING)
    velocity, p = np.zeros(n), params.copy()
    for _ in range(50):
        g = rng.standard_normal(n)
        params[:] = sgd_momentum_step(state, params, g, lr=lr, mu=mu)
        velocity = decay * velocity + g
        p = p - lr * velocity
        assert np.array_equal(state.velocity, velocity)
        assert np.array_equal(params, p)


# The pure steps of optimizer_oracle, which return fresh arrays.

def _buffers(state):
    return [v for v in vars(state).values() if isinstance(v, np.ndarray)]


# Each beta once more with the gradient written into the state's ``out``, as
# build_agent's gradient vector views it.
_IN_OUT = [*(pytest.param(b, False, id=str(b)) for b in _BETAS),
           *(pytest.param(b, True, id=f"{b}-out_is_grads") for b in _BETAS)]


@pytest.mark.parametrize("beta1, in_out, n", [*(pytest.param(*case.values, 1031, id=case.id)
                                                for case in _IN_OUT), *_ACROSS_BLOCKS])
def test_in_place_adam_equals_the_pure_oracle_bitwise(beta1, in_out, n):
    rng = np.random.default_rng(int(beta1 * 1000) + 1)
    state = AdamState.init(n)
    pure = oracle.AdamState.init(n)
    buffers = _buffers(state)
    params = rng.standard_normal(n)
    expected = params.copy()
    for _ in range(50):
        g = rng.standard_normal(n) * rng.uniform(1e-3, 10.0)
        g_before, p_before = g.copy(), params.copy()
        if in_out:
            state.out[:] = g
        out = adam_step(state, params, state.out if in_out else g, lr=2e-3, beta1=beta1)
        assert np.array_equal(g, g_before) and np.array_equal(params, p_before)
        params[:] = out
        expected, pure = oracle.adam_step(pure, expected, g, lr=2e-3, beta1=beta1)
        assert np.array_equal(params, expected)
        assert np.array_equal(state.first_moment, pure.first_moment)
        assert np.array_equal(state.second_moment, pure.second_moment)
        assert state.step_count == pure.step_count
        assert out is state.out and all(a is b for a, b in zip(_buffers(state), buffers))


@pytest.mark.parametrize("mu, in_out", _IN_OUT)
def test_in_place_sgd_equals_the_pure_oracle_bitwise(mu, in_out):
    rng = np.random.default_rng(int(mu * 1000) + 1)
    n = 1031
    state = SgdMomentumState.init(n)
    pure = oracle.SgdMomentumState.init(n)
    buffers = _buffers(state)
    params = rng.standard_normal(n)
    expected = params.copy()
    for _ in range(50):
        g = rng.standard_normal(n)
        g_before, p_before = g.copy(), params.copy()
        if in_out:
            state.out[:] = g
        out = sgd_momentum_step(state, params, state.out if in_out else g, lr=2e-3, mu=mu)
        assert np.array_equal(g, g_before) and np.array_equal(params, p_before)
        params[:] = out
        expected, pure = oracle.sgd_momentum_step(pure, expected, g, lr=2e-3, mu=mu)
        assert np.array_equal(params, expected)
        assert np.array_equal(state.velocity, pure.velocity)
        assert out is state.out and all(a is b for a, b in zip(_buffers(state), buffers))
