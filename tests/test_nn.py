import math

import numpy as np
import pytest
from gradcheck import central_diff, max_rel_err, mlp_grad

from cyclic_ppo.nn import (LOG_STD_MAX, LOG_STD_MIN, Mlp, Policy, backward,
                           categorical_log_probs, delta_buffers, effective_log_std,
                           flatten_mlp, flatten_policy, forward, gaussian_entropy_value,
                           gaussian_log_probs, layer_buffers, mlp_init, orthogonal,
                           policy_init, stack_leading, stacked_view, unflatten_mlp,
                           unflatten_policy, value_init)
from cyclic_ppo.ppo import Gradients, PpoConfig, ppo_loss_and_grads, setup_run


def test_forward_zero_net_is_zero():
    net = Mlp(weights=[np.zeros((3, 4)), np.zeros((4, 2))],
              biases=[np.zeros(4), np.zeros(2)])
    assert np.array_equal(forward(net, np.array([[1.0, -2.0, 3.0]]))[0], np.zeros(2))


def test_forward_identity_layer():
    net = Mlp(weights=[np.eye(3)], biases=[np.zeros(3)])
    x = np.array([[0.5, -1.5, 2.0]])
    assert np.array_equal(forward(net, x), x)


def test_forward_matches_straightline_oracle():
    rng = np.random.default_rng(11)
    net = mlp_init((4, 8, 2), rng)
    x = rng.standard_normal((1, 4))
    expected = np.tanh(x @ net.weights[0] + net.biases[0]) @ net.weights[1] + net.biases[1]
    assert np.allclose(forward(net, x), expected, atol=1e-12, rtol=0)


@pytest.mark.parametrize("batch", [1, 256])
@pytest.mark.parametrize("sizes", [(4, 2), (4, 64, 64, 2), (3, 256, 256, 1)])
def test_forward_records_fresh_activations_bitwise_the_plain_expression(sizes, batch):
    rng = np.random.default_rng(batch + sizes[-2])
    net = mlp_init(sizes, rng)
    x = rng.standard_normal((batch, sizes[0]))
    x_before = x.copy()
    acts = layer_buffers(net, batch)
    out = forward(net, x, acts)
    assert out is acts[-1]
    assert np.array_equal(x, x_before)
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        expected = (x if i == 0 else acts[i - 1]) @ w + b
        if i != last:
            expected = np.tanh(expected)
        assert np.array_equal(acts[i], expected)
    for i, a in enumerate(acts):
        assert not np.shares_memory(a, x)
        assert not any(np.shares_memory(a, other) for other in acts[i + 1:])
    assert np.array_equal(forward(net, x), out)


def test_forward_writes_into_the_buffers_it_is_given():
    rng = np.random.default_rng(2)
    net = mlp_init((3, 8, 8, 2), rng)
    acts = layer_buffers(net, 5)
    buffers = list(acts)
    for a in acts:
        a.fill(np.nan)
    for _ in range(2):
        x = rng.standard_normal((5, 3))
        out = forward(net, x, acts)
        assert out is acts[-1]
        assert all(a is b for a, b in zip(acts, buffers)) and len(acts) == len(buffers)
        assert all(np.all(np.isfinite(a)) for a in acts)
        assert np.array_equal(out, forward(net, x))
    with pytest.raises(ValueError):
        forward(net, np.zeros((4, 3)), acts)  # buffers of another row count


def test_forward_rejects_wrong_dim():
    net = mlp_init((4, 8, 2), np.random.default_rng(0))
    with pytest.raises(ValueError):
        forward(net, np.zeros((1, 5)))


def test_forward_rejects_a_single_sample():
    net = mlp_init((4, 8, 2), np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"\(n, 4\)"):
        forward(net, np.zeros(4))


def test_forward_batch_matches_rows():
    # batched and single-row paths hit different BLAS kernels; agreement is
    # to rounding, not bitwise
    rng = np.random.default_rng(3)
    net = mlp_init((4, 6, 3), rng)
    xs = rng.standard_normal((5, 4))
    batched = forward(net, xs)
    for i in range(5):
        assert np.allclose(batched[i], forward(net, xs[i:i + 1])[0], atol=1e-13, rtol=0)


def test_backward_zero_upstream():
    rng = np.random.default_rng(5)
    net = mlp_init((3, 5, 2), rng)
    grads = unflatten_mlp(net, mlp_grad(net, rng.standard_normal((1, 3)), np.zeros((1, 2))))
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.weights)
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.biases)


def test_backward_linear_layer_outer_product():
    net = Mlp(weights=[np.array([[0.5], [2.0], [-1.0]])], biases=[np.zeros(1)])
    x = np.array([[1.0, -2.0, 3.0]])
    upstream = np.array([[2.0]])
    grads = unflatten_mlp(net, mlp_grad(net, x, upstream))
    assert np.array_equal(grads.weights[0], np.outer(x, upstream))
    assert np.array_equal(grads.biases[0], upstream[0])


@pytest.mark.parametrize("sizes", [(4, 2), (3, 8, 2), (5, 16, 16, 3), (2, 16, 16, 16, 1)])
def test_backward_matches_finite_differences(sizes):
    rng = np.random.default_rng(hash(sizes) % 2 ** 32)
    net = mlp_init(sizes, rng)
    x = rng.standard_normal((4, sizes[0]))
    upstream = rng.standard_normal((4, sizes[-1]))
    analytic = mlp_grad(net, x, upstream)

    def scalar_out(vec):
        return float((forward(unflatten_mlp(net, vec), x) * upstream).sum())

    numeric = central_diff(scalar_out, flatten_mlp(net))
    assert max_rel_err(analytic, numeric) < 1e-4


def _backward_oracle(net, x, upstream):
    """The plain backward: a forward pass, then the chain rule written out, one
    expression per gradient."""
    acts = [x]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = acts[-1] @ w + b
        acts.append(h if i == len(net.weights) - 1 else np.tanh(h))
    weight_grads, bias_grads = [], []
    delta = upstream
    for i in range(len(net.weights) - 1, -1, -1):
        weight_grads.insert(0, acts[i].T @ delta)
        bias_grads.insert(0, delta.sum(axis=0))
        delta = (delta @ net.weights[i].T) * (1.0 - acts[i] ** 2)
    return weight_grads, bias_grads


@pytest.mark.parametrize("discrete", [True, False])
@pytest.mark.parametrize("width", [64, 256])
@pytest.mark.parametrize("batch", [1, 256])
def test_backward_from_recorded_acts_into_views_is_bitwise_the_plain_backward(
        batch, width, discrete):
    rng = np.random.default_rng(batch + width)
    policy = policy_init(4, 2, discrete, rng, hidden=(width, width))
    value_net = value_init(4, rng, hidden=(width, width))
    x = rng.standard_normal((batch, 4))
    grads = Gradients.like(policy, value_net)
    grads.vec[:] = np.nan
    deltas = delta_buffers([policy.mlp, value_net], batch)
    assert list(deltas) == [width] and deltas[width].shape == (batch, width)
    for net, out in ((policy.mlp, grads.policy.mlp), (value_net, grads.value_net)):
        acts = layer_buffers(net, batch)
        head = forward(net, x, acts)
        upstream = rng.standard_normal(head.shape)
        oracle = _backward_oracle(net, x, upstream)
        backward(net, x, upstream, acts, out, deltas)
        for got, expected in zip([*out.weights, *out.biases], [*oracle[0], *oracle[1]]):
            assert np.shares_memory(got, grads.vec)
            assert np.array_equal(got, expected)
    n_mlp = policy.mlp.n_params
    assert np.all(np.isfinite(np.delete(grads.vec, np.s_[n_mlp:policy.n_params])))


def test_backward_rejects_acts_of_another_input():
    rng = np.random.default_rng(1)
    net = mlp_init((3, 4, 2), rng)
    acts = layer_buffers(net, 5)
    x = np.zeros((5, 3))
    forward(net, x, acts)
    out = unflatten_mlp(net, np.empty(net.n_params))
    deltas = delta_buffers([net], 5)
    with pytest.raises(ValueError):
        backward(net, x[:4], np.zeros((4, 2)), acts, out, deltas)
    with pytest.raises(ValueError):
        backward(net, x, np.zeros((5, 2)), acts[:-1], out, deltas)


def test_backward_rejects_bad_upstream():
    net = mlp_init((3, 4, 2), np.random.default_rng(0))
    acts = layer_buffers(net, 1)
    x = np.zeros((1, 3))
    forward(net, x, acts)
    with pytest.raises(ValueError):
        backward(net, x, np.zeros((1, 3)), acts, unflatten_mlp(net, np.empty(net.n_params)),
                 delta_buffers([net], 1))


def test_mlp_validates_layer_dims():
    with pytest.raises(ValueError):
        Mlp(weights=[np.zeros((3, 4)), np.zeros((5, 2))],
            biases=[np.zeros(4), np.zeros(2)])
    with pytest.raises(ValueError, match="need at least input and output sizes"):
        mlp_init((3,), np.random.default_rng(0))
    with pytest.raises(ValueError, match="non-finite initialization"):
        mlp_init((3, 4), np.random.default_rng(0), out_gain=math.inf)


@pytest.mark.parametrize("weights, biases", [
    ([np.zeros((2, 3, 4))], [np.zeros(4)]),                  # a stack needs (2, 1, out) biases
    ([np.zeros((2, 3, 4))], [np.zeros((2, 4))]),
    ([np.zeros((2, 3, 4))], [np.zeros((3, 1, 4))]),
    ([np.zeros((3, 4))], [np.zeros((1, 4))]),                # a plain net needs (out,) biases
    ([np.zeros((2, 3, 4)), np.zeros((3, 4, 5))], [np.zeros((2, 1, 4)), np.zeros((3, 1, 5))]),
    ([np.zeros((2, 3, 4)), np.zeros((4, 5))], [np.zeros((2, 1, 4)), np.zeros(5)]),
    ([np.zeros((2, 3, 4)), np.zeros((2, 5, 6))], [np.zeros((2, 1, 4)), np.zeros((2, 1, 6))]),
    ([np.zeros(4)], [np.zeros(4)]),
    ([np.zeros((3, 4)), np.zeros((4, 2))], [np.zeros(4)]),   # one bias per weight
])
def test_mlp_rejects_stacks_whose_shapes_disagree(weights, biases):
    with pytest.raises(ValueError):
        Mlp(weights=weights, biases=biases)


def test_mlp_accepts_a_stack_and_reports_its_sizes():
    net = Mlp(weights=[np.zeros((2, 3, 4)), np.zeros((2, 4, 5))],
              biases=[np.zeros((2, 1, 4)), np.zeros((2, 1, 5))])
    assert net.sizes == (3, 4, 5)
    assert [a.shape for a in layer_buffers(net, 7)] == [(2, 7, 4), (2, 7, 5)]


def _two_nets_in_one_vector(hidden, rng, outs=(2, 1)):
    """Two nets of one body and output widths ``outs`` whose parameters view one vector."""
    first, second = (mlp_init((3, *hidden, out), rng) for out in outs)
    vec = np.concatenate([flatten_mlp(first), flatten_mlp(second)])
    return vec, unflatten_mlp(first, vec[:first.n_params]), \
        unflatten_mlp(second, vec[first.n_params:])


@pytest.mark.parametrize("rows", [1, 3, 8])
@pytest.mark.parametrize("width", [64, 256])
@pytest.mark.parametrize("depth", [1, 2])
def test_stacked_forward_is_bitwise_two_plain_forwards(rows, width, depth):
    # output widths 2 and 1 stack the hidden layers only; 1 and 1 stack the whole nets
    for outs in ((2, 1), (1, 1)):
        rng = np.random.default_rng(rows * width + depth)
        _, first, second = _two_nets_in_one_vector((width,) * depth, rng, outs)
        x = rng.standard_normal((rows, 3))
        stack = stack_leading(first, second)
        whole = outs[0] == outs[1]
        assert len(stack.weights) == depth + whole
        out = forward(stack, x, layer_buffers(stack, rows))
        if not whole:
            np.tanh(out, out=out)
            assert out.shape == (2, rows, width)
        for k, net in enumerate((first, second)):
            plain = layer_buffers(net, rows)
            want = forward(net, x, plain)
            if whole:
                assert np.array_equal(out[k], want)
            else:
                assert np.array_equal(out[k], plain[-2])
                head = Mlp(net.weights[-1:], net.biases[-1:])
                assert np.array_equal(forward(head, out[k]), want)


def test_stacked_weights_view_the_parameter_vector_and_biases_are_copies():
    for outs in ((2, 1), (1, 1)):
        vec, first, second = _two_nets_in_one_vector((5, 6), np.random.default_rng(4), outs)
        stack = stack_leading(first, second)
        # the output layer joins the stack exactly when its shapes agree
        assert stack.sizes == ((3, 5, 6, 1) if outs == (1, 1) else (3, 5, 6))
        for i, w in enumerate(stack.weights):
            assert np.shares_memory(w, vec) and not w.flags.writeable
            assert np.array_equal(w[0], first.weights[i])
            assert np.array_equal(w[1], second.weights[i])
        assert not any(np.shares_memory(b, vec) for b in stack.biases)
        vec += 1.0
        assert np.array_equal(stack.weights[1][1], second.weights[1])
        # without hidden layers, unequal outputs leave nothing to stack
        _, first, second = _two_nets_in_one_vector((), np.random.default_rng(4), outs)
        assert (stack_leading(first, second) is None) == (outs == (2, 1))


def test_stacked_view_rejects_arrays_of_separate_buffers_or_shapes():
    a, b = np.zeros((3, 4)), np.zeros((3, 4))
    with pytest.raises(ValueError):
        stacked_view(a, b)
    vec = np.zeros(30)
    with pytest.raises(ValueError):
        stacked_view(vec[:12].reshape(3, 4), vec[12:24].reshape(4, 3))
    with pytest.raises(ValueError):
        stacked_view(vec[12:24].reshape(3, 4), vec[:12].reshape(3, 4))


def test_orthogonal_init_columns():
    rng = np.random.default_rng(2)
    w = orthogonal(64, 16, math.sqrt(2.0), rng)
    assert np.allclose(w.T @ w, 2.0 * np.eye(16), atol=1e-10)


def test_flatten_unflatten_roundtrip():
    rng = np.random.default_rng(9)
    net = mlp_init((3, 7, 2), rng)
    rebuilt = unflatten_mlp(net, flatten_mlp(net))
    for a, b in zip(net.weights, rebuilt.weights):
        assert np.array_equal(a, b)
    for a, b in zip(net.biases, rebuilt.biases):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError, match=f"expected {net.n_params} parameters"):
        unflatten_mlp(net, np.zeros(net.n_params + 1))


# ---------------------------------------------------------------------------
# distributions: the batched heads the trainer runs

def test_log_prob_uniform_two_actions():
    lp = categorical_log_probs(np.full((2, 2), 0.7), np.array([0, 1]))
    assert lp == pytest.approx([math.log(0.5)] * 2, abs=1e-12)


def test_log_prob_standard_normal_mode():
    lp = gaussian_log_probs(np.zeros((1, 3)), np.zeros(3), np.zeros((1, 3)))
    assert lp[0] == pytest.approx(-0.5 * 3 * math.log(2 * math.pi), abs=1e-12)


def test_log_prob_matches_explicit_softmax():
    logits = np.array([1.0, 2.0, 3.0])
    explicit = math.log(math.exp(3.0) / sum(math.exp(v) for v in logits))
    assert categorical_log_probs(logits[None, :], np.array([2]))[0] == \
        pytest.approx(explicit, abs=1e-12)


def test_categorical_probs_sum_to_one():
    rng = np.random.default_rng(4)
    for _ in range(20):
        k = int(rng.integers(2, 8))
        logits = rng.standard_normal(k) * 5
        lp = categorical_log_probs(np.tile(logits, (k, 1)), np.arange(k))
        assert abs(np.exp(lp).sum() - 1.0) < 1e-10


def _loss_entropy(logits):
    """Mean entropy the PPO loss reports for a policy that outputs ``logits`` everywhere."""
    policy = Policy(mlp=Mlp(weights=[np.zeros((1, len(logits)))],
                            biases=[np.asarray(logits, dtype=float)]))
    value_net = Mlp(weights=[np.zeros((1, 1))], biases=[np.zeros(1)])
    one = np.zeros(1)
    metrics = ppo_loss_and_grads(policy, value_net, np.zeros((1, 1)), np.zeros(1, dtype=int),
                                 one, one, one, 0.2, 0.5, 0.0,
                                 Gradients.like(policy, value_net))[1]
    return metrics.entropy


def test_entropy_uniform():
    assert _loss_entropy([0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_near_deterministic():
    assert _loss_entropy([1000.0, 0.0]) == pytest.approx(0.0, abs=1e-9)


def test_entropy_gaussian_closed_form():
    assert gaussian_entropy_value(np.zeros(1)) == \
        pytest.approx(0.5 * math.log(2 * math.pi * math.e), abs=1e-12)


def test_entropy_categorical_nonnegative():
    rng = np.random.default_rng(8)
    for _ in range(50):
        assert _loss_entropy(rng.standard_normal(4) * 10) >= 0.0


def test_effective_log_std_clips_to_range():
    policy = Policy(mlp=mlp_init((2, 3), np.random.default_rng(0)),
                    log_std=np.array([3.0, -25.0, 0.5]))
    assert np.array_equal(effective_log_std(policy), [LOG_STD_MAX, LOG_STD_MIN, 0.5])


def _rollout(env_id, head, steps, n_envs=1, seed=0, log_std=None):
    """``RolloutWorker.collect`` with a policy whose head outputs ``head`` for every state."""
    config = PpoConfig(rollout_steps=steps, n_envs=n_envs, minibatch_size=steps)
    state, worker, _ = setup_run(env_id, config, seed)
    state.params[:] = 0.0  # the networks are views into params
    state.policy.mlp.biases[-1][:] = head
    if log_std is not None:
        state.policy.log_std[:] = log_std
    buffer, _, _ = worker.collect(state, config)
    return buffer


def test_sample_dominant_action():
    buffer = _rollout("cartpole", [1000.0, 0.0], steps=100)
    assert np.all(buffer.actions == 0)


def test_sample_uniform_frequency():
    buffer = _rollout("cartpole", [0.0, 0.0], steps=12_500, n_envs=8)
    assert buffer.actions.size == 100_000
    assert 0.49 <= np.mean(buffer.actions == 0) <= 0.51


def test_sample_returns_matching_log_prob():
    logits = np.array([0.3, -0.2])
    cat = _rollout("cartpole", logits, steps=20, seed=6)
    actions = cat.actions[:, 0]
    assert np.array_equal(cat.log_probs[:, 0],
                          categorical_log_probs(np.tile(logits, (20, 1)), actions))
    mean, log_std = np.array([0.5]), np.array([0.1])
    gauss = _rollout("pendulum", mean, steps=20, seed=6, log_std=log_std)
    assert np.array_equal(gauss.log_probs[:, 0],
                          gaussian_log_probs(np.tile(mean, (20, 1)), log_std,
                                             gauss.actions[:, 0]))


def test_sample_seed_replay_identical():
    runs = [_rollout("cartpole", [0.2, 0.5], steps=200, seed=77).actions for _ in range(2)]
    assert np.array_equal(runs[0], runs[1])


def test_init_determinism():
    a = mlp_init((4, 8, 2), np.random.default_rng(42))
    b = mlp_init((4, 8, 2), np.random.default_rng(42))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_unflatten_policy_roundtrip():
    rng = np.random.default_rng(12)
    policy = policy_init(4, 3, discrete=False, rng=rng, hidden=(64, 64))
    vec = flatten_policy(policy)
    rebuilt = unflatten_policy(policy, vec)
    assert np.array_equal(flatten_policy(rebuilt), vec)


def test_value_net_output_shape():
    net = value_init(5, np.random.default_rng(1), hidden=(64, 64))
    out = forward(net, np.zeros((7, 5)))
    assert out.shape == (7, 1)
