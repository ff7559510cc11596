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

import numpy as np

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class Mlp:
    """Feed-forward network: ``weights[i]`` maps layer i, shape (in_i, out_i)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need one bias vector per weight matrix")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} disagree")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {i}: input dim {w.shape[0]} does not match "
                                 f"previous output {self.weights[i - 1].shape[1]}")

    @property
    def sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


def orthogonal(n_in: int, n_out: int, gain: float, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal weight matrix scaled by ``gain`` (sign-fixed for determinism)."""
    a = rng.standard_normal((max(n_in, n_out), min(n_in, n_out)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if n_in < n_out:
        q = q.T
    return gain * q[:n_in, :n_out]


def mlp_init(sizes: tuple[int, ...], rng: np.random.Generator,
             hidden_gain: float = math.sqrt(2.0), out_gain: float = 1.0) -> Mlp:
    """Orthogonally initialized MLP with zero biases.

    Hidden layers get ``hidden_gain``; the output layer gets ``out_gain``
    (small for policy heads so early action distributions stay near
    uniform, 1.0 for value heads).
    """
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    weights, biases = [], []
    for i in range(len(sizes) - 1):
        gain = out_gain if i == len(sizes) - 2 else hidden_gain
        weights.append(orthogonal(sizes[i], sizes[i + 1], gain, rng))
        biases.append(np.zeros(sizes[i + 1]))
    net = Mlp(weights=weights, biases=biases)
    if not all(np.all(np.isfinite(w)) for w in net.weights):
        raise ValueError("non-finite initialization")
    return net


def forward(net: Mlp, x: np.ndarray, acts: list[np.ndarray] | None = None) -> np.ndarray:
    """Apply the network; accepts a single input (d,) or a batch (n, d).

    When ``acts`` is a list, the batched input and every layer's output are
    appended to it, which is what ``backward`` needs to skip the forward pass.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    h = x.reshape(1, -1) if single else x
    if h.shape[1] != net.weights[0].shape[0]:
        raise ValueError(f"input dim {h.shape[1]} != first layer dim {net.weights[0].shape[0]}")
    if acts is not None:
        acts.append(h)
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if i != last:
            h = np.tanh(h)
        if acts is not None:
            acts.append(h)
    return h[0] if single else h


def backward(net: Mlp, x: np.ndarray, upstream: np.ndarray,
             acts: list[np.ndarray] | None = None,
             out: Mlp | None = None) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of ``sum(forward(net, x) * upstream)`` w.r.t. every parameter.

    Runs the chain rule backwards from the forward activations: tanh' is
    expressed through them as ``1 - a**2``. ``acts`` are the activations
    that ``forward(net, x, acts)`` recorded for this ``x``; without them the
    forward pass is recomputed here. Batched inputs accumulate (sum)
    gradients over the batch.

    ``out`` is an MLP shaped like ``net`` whose weights and biases receive
    the gradients, for instance views into one gradient vector (see
    ``unflatten_mlp``); without it fresh arrays are returned.

    Returns:
        (weight_grads, bias_grads), shaped like ``net.weights``/``net.biases``.
    """
    x = np.asarray(x, dtype=float)
    upstream = np.asarray(upstream, dtype=float)
    if x.ndim == 1:
        x = x.reshape(1, -1)
        upstream = upstream.reshape(1, -1)
    if x.shape[1] != net.weights[0].shape[0]:
        raise ValueError("input dim does not match first layer")
    if upstream.shape != (x.shape[0], net.weights[-1].shape[1]):
        raise ValueError(f"upstream shape {upstream.shape} does not match "
                         f"({x.shape[0]}, {net.weights[-1].shape[1]})")
    last = len(net.weights) - 1
    if acts is None:
        acts = []
        forward(net, x, acts)
    elif len(acts) != last + 2 or acts[0].shape != x.shape:
        raise ValueError("acts were not recorded by forward(net, x, acts)")

    if out is None:
        weight_grads = [np.empty_like(w) for w in net.weights]
        bias_grads = [np.empty_like(b) for b in net.biases]
    else:
        weight_grads, bias_grads = out.weights, out.biases
    delta = upstream
    for i in range(last, -1, -1):
        np.matmul(acts[i].T, delta, out=weight_grads[i])
        np.sum(delta, axis=0, out=bias_grads[i])
        if i > 0:
            delta = delta @ net.weights[i].T
            tanh_grad = np.square(acts[i])
            np.subtract(1.0, tanh_grad, out=tanh_grad)
            delta *= tanh_grad
    return weight_grads, bias_grads


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
    parts = []
    for dw, db in zip(weight_grads, bias_grads):
        parts.append(dw.ravel())
        parts.append(db)
    return np.concatenate(parts)


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
                rng: np.random.Generator, hidden: tuple[int, ...] = (64, 64)) -> Policy:
    """Policy net with a small-gain output head; log-std starts at zero."""
    mlp = mlp_init((obs_dim, *hidden, action_dim), rng, out_gain=0.01)
    log_std = None if discrete else np.zeros(action_dim)
    return Policy(mlp=mlp, log_std=log_std)


def value_init(obs_dim: int, rng: np.random.Generator,
               hidden: tuple[int, ...] = (64, 64)) -> Mlp:
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
