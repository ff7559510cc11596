"""Central finite-difference oracle, independent of the analytic gradient path,
and the analytic MLP gradient it is checked against."""
import numpy as np

from cyclic_ppo.nn import backward, delta_buffers, forward, layer_buffers, unflatten_mlp


def central_diff(f, x, h=1e-5):
    """Componentwise (f(x+h·e_i) - f(x-h·e_i)) / 2h."""
    fd = np.empty_like(x, dtype=float)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fd[i] = (f(xp) - f(xm)) / (2.0 * h)
    return fd


def max_rel_err(analytic, numeric, floor=1e-6):
    """Largest |a - n| / max(|a|, |n|, floor) over all components."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def mlp_grad(net, x, upstream):
    """Analytic gradient of ``sum(forward(net, x) * upstream)`` in ``flatten_mlp`` order.

    Runs ``forward`` into fresh layer buffers, then ``backward`` into
    ``unflatten_mlp`` views of a fresh vector, and returns that vector.
    """
    acts = layer_buffers(net, x.shape[0])
    forward(net, x, acts)
    vec = np.full(net.n_params, np.nan)
    backward(net, x, upstream, acts, unflatten_mlp(net, vec), delta_buffers([net], x.shape[0]))
    return vec
