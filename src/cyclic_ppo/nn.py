"""Minimal tanh MLPs with hand-derived gradients, plus policy distribution heads.

The architecture family is fixed (affine layers, tanh hidden activations,
identity output), which keeps backprop an explicit, auditable chain rule
instead of a generic autodiff graph. The distribution heads are batched:
log-probabilities of a categorical over discrete actions (from a logits
matrix) and of a diagonal Gaussian with a state-independent log-std
parameter, plus the Gaussian's closed-form entropy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
LOG_2PI = math.log(2.0 * math.pi)
HIDDEN_GAIN = math.sqrt(2.0)  # orthogonal-init gain of every hidden (tanh) layer


@dataclass
class Mlp:
    """Feed-forward network: ``weights[i]`` maps layer i, shape (in_i, out_i).

    ``biases[i]`` has shape (out_i,). A stack of s networks of one shape is
    one Mlp with a leading stack axis: weights (s, in_i, out_i) and biases
    (s, 1, out_i), so that ``forward`` runs all s networks on one batch.
    Layers are checked against each other on their last two axes.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need one bias vector per weight matrix")
        stack = self.weights[0].shape[:-2]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim < 2 or w.shape[:-2] != stack:
                raise ValueError(f"layer {i}: weight {w.shape} is not a matrix "
                                 f"with stack axes {stack}")
            if b.shape != ((*stack, 1, w.shape[-1]) if stack else (w.shape[-1],)):
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} disagree")
            if i > 0 and self.weights[i - 1].shape[-1] != w.shape[-2]:
                raise ValueError(f"layer {i}: input dim {w.shape[-2]} does not match "
                                 f"previous output {self.weights[i - 1].shape[-1]}")

    @property
    def sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[-2],) + tuple(w.shape[-1] for w in self.weights)

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


def stacked_view(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """A read-only (2, *shape) view of two arrays of one shape and one buffer.

    Nothing is copied: the stack axis strides from ``first`` to ``second``
    (which must lie after it), so writes into either show in the view.
    """
    gap = second.ctypes.data - first.ctypes.data
    if (first.base is None or first.base is not second.base or gap <= 0
            or first.shape != second.shape or first.strides != second.strides):
        raise ValueError("need two arrays of one shape, the second after the first "
                         "in one buffer")
    return np.lib.stride_tricks.as_strided(first, (2, *first.shape), (gap, *first.strides),
                                           writeable=False)


def stack_leading(first: Mlp, second: Mlp) -> Mlp | None:
    """The leading layers of two networks whose weight shapes agree, as one network
    with a stack axis of 2; None when their first layers already differ.

    The weights must lie in one buffer, ``second``'s after ``first``'s (see
    ``stacked_view``). The weights are views, so the stack sees later
    writes into them; the biases are copied now.
    """
    layers = list(takewhile(lambda layer: layer[0].shape == layer[1].shape,
                            zip(first.weights, second.weights, first.biases, second.biases)))
    if not layers:
        return None
    return Mlp(weights=[stacked_view(a, b) for a, b, _, _ in layers],
               biases=[np.stack((c, d))[:, None, :] for _, _, c, d in layers])


def orthogonal(n_in: int, n_out: int, gain: float, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal weight matrix scaled by ``gain`` (sign-fixed for determinism)."""
    a = rng.standard_normal((max(n_in, n_out), min(n_in, n_out)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if n_in < n_out:
        q = q.T
    return gain * q[:n_in, :n_out]


def mlp_init(sizes: tuple[int, ...], rng: np.random.Generator, out_gain: float = 1.0) -> Mlp:
    """Orthogonally initialized MLP with zero biases.

    Hidden layers get ``HIDDEN_GAIN``; the output layer gets ``out_gain``
    (small for policy heads so early action distributions stay near
    uniform, 1.0 for value heads).
    """
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    weights, biases = [], []
    for i in range(len(sizes) - 1):
        gain = out_gain if i == len(sizes) - 2 else HIDDEN_GAIN
        weights.append(orthogonal(sizes[i], sizes[i + 1], gain, rng))
        biases.append(np.zeros(sizes[i + 1]))
    net = Mlp(weights=weights, biases=biases)
    if not all(np.all(np.isfinite(w)) for w in net.weights):
        raise ValueError("non-finite initialization")
    return net


def layer_buffers(net: Mlp, rows: int) -> list[np.ndarray]:
    """One (*stack, rows, out_i) buffer per layer of ``net``, for ``forward`` to write into."""
    return [np.empty((*w.shape[:-2], rows, w.shape[-1])) for w in net.weights]


def delta_buffers(nets: list[Mlp], rows: int) -> dict[int, np.ndarray]:
    """One (rows, width) buffer per hidden width of ``nets``, for ``backward``."""
    return {width: np.empty((rows, width)) for net in nets for width in net.sizes[1:-1]}


def forward(net: Mlp, x: np.ndarray, acts: list[np.ndarray] | None = None) -> np.ndarray:
    """Apply the network to a batch ``x`` of shape (n, d); one input is a (1, d) array.

    Layer i's output is written into ``acts[i]`` of ``layer_buffers(net, n)``
    (fresh ones when None): the activations ``backward`` needs, the last of
    which is returned. ``x`` is never written. A stacked network (see
    ``Mlp``) runs each of its networks on all of ``x`` and returns
    (*stack, n, out); each network makes the same BLAS calls, so gives the
    same bits, as it does on its own.
    """
    if x.ndim != 2 or x.shape[1] != net.weights[0].shape[-2]:
        raise ValueError(f"input shape {x.shape} is not (n, {net.weights[0].shape[-2]})")
    if acts is None:
        acts = layer_buffers(net, x.shape[0])
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = np.matmul(h, w, out=acts[i])
        h += b
        if i != last:
            np.tanh(h, out=h)
    return h


def backward(net: Mlp, x: np.ndarray, upstream: np.ndarray, acts: list[np.ndarray],
             out: Mlp, deltas: dict[int, np.ndarray]) -> None:
    """Write the gradients of ``sum(forward(net, x) * upstream)`` into ``out``.

    ``acts`` are the buffers that ``forward(net, x, acts)`` filled, and the
    chain rule consumes them: each hidden activation ``a`` is overwritten
    with tanh' ``1 - a**2`` and then with the next delta ``(delta @ W.T) *
    tanh'``, whose product goes through ``deltas[width]`` (``delta_buffers``).
    Gradients are summed over the batch.

    ``out`` is an MLP shaped like ``net`` whose weights and biases receive
    the gradients, for instance views into one gradient vector (see
    ``unflatten_mlp``); every element of them is overwritten. ``net`` has
    no stack axis.
    """
    last = len(net.weights) - 1
    if len(acts) != last + 1 or acts[0].shape[0] != x.shape[0]:
        raise ValueError("acts were not filled by forward(net, x, acts)")
    if upstream.shape != (x.shape[0], net.weights[-1].shape[1]):
        raise ValueError(f"upstream shape {upstream.shape} does not match "
                         f"({x.shape[0]}, {net.weights[-1].shape[1]})")
    delta = upstream
    for i in range(last, -1, -1):
        inputs = acts[i - 1] if i > 0 else x
        np.matmul(inputs.T, delta, out=out.weights[i])
        np.sum(delta, axis=0, out=out.biases[i])
        if i > 0:
            np.square(inputs, out=inputs)
            np.subtract(1.0, inputs, out=inputs)
            inputs *= np.matmul(delta, net.weights[i].T, out=deltas[inputs.shape[1]])
            delta = inputs


# ---------------------------------------------------------------------------
# parameter vector (de)serialization helpers

def flatten_mlp(net: Mlp) -> np.ndarray:
    """Concatenate all parameters: per layer, weight rows then bias."""
    parts = []
    for w, b in zip(net.weights, net.biases):
        parts.append(w.ravel())
        parts.append(b)
    return np.concatenate(parts)


def unflatten_mlp(net: Mlp, vec: np.ndarray) -> Mlp:
    """An MLP with ``net``'s shapes whose weights and biases are views into ``vec``.

    Nothing is copied: writing into ``vec`` changes the returned network,
    so pass ``vec.copy()`` for an independent one.
    """
    if vec.shape != (net.n_params,):
        raise ValueError(f"expected {net.n_params} parameters, got {vec.shape}")
    weights, biases, off = [], [], 0
    for w, b in zip(net.weights, net.biases):
        weights.append(vec[off:off + w.size].reshape(w.shape))
        off += w.size
        biases.append(vec[off:off + b.size])
        off += b.size
    return Mlp(weights=weights, biases=biases)


def flatten_grads(weight_grads: list[np.ndarray], bias_grads: list[np.ndarray]) -> np.ndarray:
    return flatten_mlp(Mlp(weight_grads, bias_grads))


# ---------------------------------------------------------------------------
# distribution heads

def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a (n, k) logits matrix.

    Works entirely on max-shifted logits, so adding an exactly
    representable constant to a row leaves the result bit-identical.
    """
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def categorical_log_probs(logits: np.ndarray, actions: np.ndarray) -> np.ndarray:
    ls = log_softmax(logits)
    return ls[np.arange(logits.shape[0]), actions]


def gaussian_log_probs(mean: np.ndarray, log_std: np.ndarray,
                       actions: np.ndarray) -> np.ndarray:
    z = (actions - mean) / np.exp(log_std)
    return -0.5 * (z ** 2).sum(axis=1) - log_std.sum() - 0.5 * mean.shape[1] * LOG_2PI


def gaussian_entropy_value(log_std: np.ndarray) -> float:
    return float(log_std.sum() + 0.5 * log_std.shape[0] * (1.0 + LOG_2PI))


# ---------------------------------------------------------------------------
# policy container

@dataclass
class Policy:
    """Policy parameters: action-head MLP plus a log-std vector when continuous."""

    mlp: Mlp
    log_std: np.ndarray | None = None

    @property
    def n_params(self) -> int:
        return self.mlp.n_params + (0 if self.log_std is None else self.log_std.size)


def policy_init(obs_dim: int, action_dim: int, discrete: bool,
                rng: np.random.Generator, hidden: tuple[int, ...]) -> Policy:
    """Policy net with a small-gain output head; log-std starts at zero."""
    mlp = mlp_init((obs_dim, *hidden, action_dim), rng, out_gain=0.01)
    log_std = None if discrete else np.zeros(action_dim)
    return Policy(mlp=mlp, log_std=log_std)


def value_init(obs_dim: int, rng: np.random.Generator, hidden: tuple[int, ...]) -> Mlp:
    return mlp_init((obs_dim, *hidden, 1), rng, out_gain=1.0)


def effective_log_std(policy: Policy) -> np.ndarray:
    """The log-std actually used by the distribution (clipped to valid range)."""
    return np.clip(policy.log_std, LOG_STD_MIN, LOG_STD_MAX)


def log_std_grad_mask(policy: Policy) -> np.ndarray:
    """1 where the raw log-std is inside the clip range (gradient flows), else 0."""
    raw = policy.log_std
    return ((raw > LOG_STD_MIN) & (raw < LOG_STD_MAX)).astype(float)


def flatten_policy(policy: Policy) -> np.ndarray:
    vec = flatten_mlp(policy.mlp)
    if policy.log_std is None:
        return vec
    return np.concatenate([vec, policy.log_std])


def unflatten_policy(policy: Policy, vec: np.ndarray) -> Policy:
    """A policy with ``policy``'s shapes whose parameters are views into ``vec``."""
    n_mlp = policy.mlp.n_params
    mlp = unflatten_mlp(policy.mlp, vec[:n_mlp])
    log_std = None if policy.log_std is None else vec[n_mlp:]
    return Policy(mlp=mlp, log_std=log_std)
