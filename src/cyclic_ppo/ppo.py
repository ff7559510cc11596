"""On-policy clipped PPO trainer driven by step-indexed schedules.

The learning rate and momentum for update k come from the schedule module
and are held fixed across every minibatch of that update. Gradients are
hand-derived through the clipped surrogate, value MSE, and entropy bonus,
then clipped by global norm and applied by the optimize module.
"""
from __future__ import annotations

import numbers
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields

import numpy as np

from .envs import make_env
from .nn import (Mlp, Policy, backward, delta_buffers, effective_log_std, flatten_mlp,
                 flatten_policy, forward, gaussian_entropy_value, gaussian_log_probs,
                 layer_buffers, log_softmax, log_std_grad_mask, policy_init, stack_leading,
                 unflatten_mlp, unflatten_policy, value_init)
from .nn import categorical_log_probs, flatten_grads  # noqa: F401  unused; traced by name
from .optimize import (AdamState, SgdMomentumState, adam_step, clip_global_norm,
                       sgd_momentum_step)
from .runlog import COLUMNS, LogRow, RunLog
from .schedule import (MomentumCycle, OptionError, SchedulePolicy, check_cycling,
                       schedule_values)
from .schedule import lr_at, momentum_at  # noqa: F401  unused; traced by name


class DivergenceError(RuntimeError):
    """Raised when a loss or parameter vector stops being finite."""

    def __init__(self, loss: float) -> None:
        super().__init__(f"training diverged (loss={loss!r})")
        self.loss = loss


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and value >= 1


@dataclass
class PpoConfig:
    """Trainer hyperparameters; schedule values are injected per update, not stored.

    A bad field raises OptionError; a ``minibatch_size`` that does not divide
    ``rollout_steps * n_envs`` raises ValueError, as it spans three fields. An
    infinite ``clip_epsilon`` or ``max_grad_norm`` is allowed: it turns that clip
    off, and training stays finite.
    """

    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    rollout_steps: int = 2048
    n_envs: int = 1
    update_epochs: int = 4
    minibatch_size: int = 64
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    max_grad_norm: float = 0.5
    optimizer: str = "adam"
    fixed_momentum: float = 0.9  # used whenever momentum cycling is off
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-5
    hidden_sizes: tuple[int, ...] = (64, 64)

    def __post_init__(self) -> None:
        rules = [*((name, 0.0 <= getattr(self, name) <= 1.0, "must lie in [0, 1]")
                   for name in ("gamma", "gae_lambda", "fixed_momentum")),
                 *((name, getattr(self, name) > 0.0, "must be positive")
                   for name in ("clip_epsilon", "max_grad_norm")),
                 ("adam_epsilon", 0.0 < self.adam_epsilon < np.inf, "must be finite and positive"),
                 *((name, 0.0 <= getattr(self, name) < np.inf, "must be finite and non-negative")
                   for name in ("value_coef", "entropy_coef")),
                 *((name, _is_count(getattr(self, name)), "must be an integer >= 1")
                   for name in ("rollout_steps", "n_envs", "update_epochs", "minibatch_size")),
                 ("optimizer", self.optimizer in ("adam", "sgd"), "must be 'adam' or 'sgd'"),
                 # Adam's bias correction divides by 1 - beta2**t
                 ("adam_beta2", 0.0 <= self.adam_beta2 < 1.0, "must lie in [0, 1)"),
                 ("hidden_sizes", all(map(_is_count, self.hidden_sizes)),
                  "widths must be integers >= 1")]
        for option, ok, reason in rules:
            if not ok:
                raise OptionError(option, reason)
        if (self.rollout_steps * self.n_envs) % self.minibatch_size != 0:
            raise ValueError("minibatch_size must divide rollout_steps * n_envs")

    def n_updates(self, total_steps: int) -> int:
        """The updates ``train`` runs for ``total_steps``: whole rollouts, rounded up."""
        return -(-total_steps // (self.rollout_steps * self.n_envs))


@dataclass
class RolloutBuffer:
    """One on-policy batch: (T, n_envs) arrays plus computed advantages/returns.

    A buffer feeds exactly one update; ``consumed`` enforces that.
    """

    obs: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    log_probs: np.ndarray
    dones: np.ndarray
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None
    consumed: bool = False

    def __post_init__(self) -> None:
        if self.rewards.ndim != 2:
            raise ValueError(f"rewards has shape {self.rewards.shape}, expected (T, n_envs)")
        t, e = self.rewards.shape
        for name in ("obs", "actions", "values", "log_probs", "dones"):
            arr = getattr(self, name)
            if arr.shape[:2] != (t, e):
                raise ValueError(f"buffer incomplete: {name} has shape {arr.shape}, "
                                 f"expected leading (T, n_envs) = ({t}, {e})")


def compute_gae(buffer: RolloutBuffer, gamma: float, gae_lambda: float,
                bootstrap_value) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates for a complete buffer.

    ``bootstrap_value`` is the value estimate of the state following the
    last buffered step (scalar, or one per env); it is masked out wherever
    the last step ended its episode. Stores and returns
    ``(advantages, returns)`` with ``returns = advantages + values``.
    """
    t_len, n_envs = buffer.rewards.shape
    next_values = np.empty((t_len, n_envs))
    next_values[:-1] = buffer.values[1:]
    next_values[-1] = bootstrap_value
    non_terminal = 1.0 - buffer.dones
    # The same expressions, in the same order, as a per-step loop would
    # evaluate, so the result is bit for bit that loop's.
    delta = buffer.rewards + gamma * next_values * non_terminal - buffer.values
    coef = gamma * gae_lambda * non_terminal
    advantages = np.empty((t_len, n_envs))
    last_gae = np.zeros(n_envs)
    for t in range(t_len - 1, -1, -1):
        last_gae = advantages[t] = delta[t] + coef[t] * last_gae
    buffer.advantages = advantages
    buffer.returns = advantages + buffer.values
    return buffer.advantages, buffer.returns


def normalize_advantages(advantages: np.ndarray) -> np.ndarray:
    """Shift/scale to zero mean and unit variance over the whole update batch."""
    return (advantages - advantages.mean()) / (advantages.std() + 1e-8)


@dataclass
class UpdateMetrics:
    policy_loss: float
    value_loss: float
    entropy: float
    approx_kl: float
    clip_fraction: float
    total_loss: float


@dataclass
class TrainState:
    """One agent: a single parameter vector, the two networks viewing it, one optimizer.

    ``params`` holds the policy's parameters (``flatten_policy`` order)
    followed by the value net's (``flatten_mlp`` order). Every weight,
    bias and ``log_std`` of ``policy`` and ``value_net`` is a view into
    ``params``, so writing into ``params`` updates both networks. ``opt``
    is the optimizer state over the whole vector. ``grads`` and ``layers``
    (of minibatch rows) are the workspace of ``ppo_update``; the two
    networks share ``layers``' hidden buffers, as ``ppo_loss_and_grads``
    runs the policy's passes before the value net's. ``grads.vec`` views
    ``opt.out`` (see ``optimize``), so an Adam agent holds four
    parameter-sized float64 vectors: ``params``, ``opt.out`` and the two
    moments; Adam's scratch is one ``optimize.BLOCK`` long.
    """

    params: np.ndarray
    policy: Policy
    value_net: Mlp
    opt: AdamState | SgdMomentumState
    grads: Gradients
    layers: LayerBuffers


@dataclass
class Gradients:
    """One gradient vector laid out like ``TrainState.params``, with per-layer views.

    ``policy`` and ``value_net`` are shaped like the agent's networks and
    view ``vec``, so writing a layer's gradient into them fills ``vec``.
    """

    vec: np.ndarray
    policy: Policy
    value_net: Mlp

    @classmethod
    def like(cls, policy: Policy, value_net: Mlp) -> "Gradients":
        vec = np.empty(policy.n_params + value_net.n_params)
        return cls(vec, *_joint_views(policy, value_net, vec))


@dataclass
class LayerBuffers:
    """Both networks' ``layer_buffers`` and their shared ``delta_buffers``, for one row count.

    The hidden layers are shared: ``value[:-1]`` are the very arrays of
    ``policy[:-1]``, so the networks' hidden widths must agree. The output
    layers never are: each network keeps its own, even when both are
    ``(rows, 1)``. Sharing is safe because ``ppo_loss_and_grads`` is done with the
    policy's activations (``backward`` overwrites them) before the value net's
    forward writes its own into the same buffers.
    """

    policy: list[np.ndarray]
    value: list[np.ndarray]
    deltas: dict[int, np.ndarray]

    @classmethod
    def like(cls, policy: Policy, value_net: Mlp, rows: int) -> "LayerBuffers":
        acts = layer_buffers(policy.mlp, rows)
        return cls(acts, [*acts[:-1], np.empty((rows, value_net.sizes[-1]))],
                   delta_buffers([policy.mlp, value_net], rows))


def _joint_views(policy: Policy, value_net: Mlp, vec: np.ndarray) -> tuple[Policy, Mlp]:
    """Networks shaped like ``policy`` and ``value_net`` viewing ``vec`` (policy first)."""
    n_policy = policy.n_params
    return unflatten_policy(policy, vec[:n_policy]), unflatten_mlp(value_net, vec[n_policy:])


def build_agent(env, config: PpoConfig, rng: np.random.Generator) -> TrainState:
    spec = env.spec
    policy = policy_init(spec.obs_dim, spec.action_dim, spec.discrete, rng, config.hidden_sizes)
    value_net = value_init(spec.obs_dim, rng, config.hidden_sizes)
    params = np.concatenate([flatten_policy(policy), flatten_mlp(value_net)])
    # Rebind first: the initial arrays are freed before the workspace below is allocated.
    policy, value_net = _joint_views(policy, value_net, params)
    opt = (AdamState.init(params.size, config.adam_beta2, config.adam_epsilon)
           if config.optimizer == "adam" else SgdMomentumState.init(params.size))
    grads = Gradients(opt.out, *_joint_views(policy, value_net, opt.out))
    return TrainState(params, policy, value_net, opt=opt, grads=grads,
                      layers=LayerBuffers.like(policy, value_net, config.minibatch_size))


def ppo_loss_and_grads(policy: Policy, value_net: Mlp, obs: np.ndarray,
                       actions: np.ndarray, old_log_probs: np.ndarray,
                       advantages: np.ndarray, returns: np.ndarray,
                       clip_epsilon: float, value_coef: float, entropy_coef: float,
                       grads: Gradients, layers: LayerBuffers | None = None,
                       ) -> tuple[float, UpdateMetrics]:
    """Composite PPO loss and its exact gradients on one minibatch.

    Loss = surrogate + value_coef * value-MSE - entropy_coef * entropy.
    The surrogate gradient flows only through samples whose unclipped
    branch is active (the clipped branch is flat in the ratio). Backward
    passes reuse the activations of the loss's own forward passes.

    The gradients are written into ``grads``; every element of
    ``grads.vec`` is overwritten. The forward passes fill ``layers``,
    sized for the minibatch's rows (fresh ones when None), and the
    backward passes consume them. The pass order is fixed: the policy's
    forward, loss head and backward, then the value net's forward and
    backward. The value forward must come after the policy backward,
    because the two share ``layers``' hidden buffers and ``backward``
    overwrites the activations; the output buffers are never shared, so
    the policy's head stays readable throughout.

    Returns:
        (total_loss, metrics).
    """
    n = obs.shape[0]
    layers = layers or LayerBuffers.like(policy, value_net, n)
    head = forward(policy.mlp, obs, layers.policy)
    discrete = policy.log_std is None
    if discrete:
        rows = np.arange(n)
        log_probs_all = log_softmax(head)
        probs = np.exp(log_probs_all)
        new_log_probs = log_probs_all[rows, actions]
        entropies = -(probs * log_probs_all).sum(axis=1)
    else:
        log_std = effective_log_std(policy)
        std = np.exp(log_std)
        new_log_probs = gaussian_log_probs(head, log_std, actions)
        entropies = np.full(n, gaussian_entropy_value(log_std))

    log_ratio = new_log_probs - old_log_probs
    ratios = np.exp(log_ratio)
    unclipped = ratios * advantages
    clipped = np.minimum(np.maximum(ratios, 1.0 - clip_epsilon),
                         1.0 + clip_epsilon) * advantages
    policy_loss = float((-np.minimum(unclipped, clipped)).sum() / n)
    entropy_mean = float(entropies.sum() / n)

    # d(policy_loss)/d(log pi): -A * r / n on the active unclipped branch.
    active = (unclipped <= clipped).astype(float)
    g_log_prob = -(advantages * ratios * active) / n

    if discrete:
        one_hot = np.zeros_like(probs)
        one_hot[rows, actions] = 1.0
        g_head = g_log_prob[:, None] * (one_hot - probs)
        # dH/dz = -p * (log p + H); the loss carries -entropy_coef * mean(H).
        g_head += (entropy_coef / n) * probs * (log_probs_all + entropies[:, None])
    else:
        diff = actions - head
        g_head = g_log_prob[:, None] * diff / std ** 2
        z2 = (diff / std) ** 2
        g_log_std = (g_log_prob[:, None] * (z2 - 1.0)).sum(axis=0) - entropy_coef
        np.multiply(g_log_std, log_std_grad_mask(policy), out=grads.policy.log_std)
    backward(policy.mlp, obs, g_head, layers.policy, grads.policy.mlp, layers.deltas)

    values = forward(value_net, obs, layers.value)[:, 0]
    value_err = values - returns
    value_loss = float((value_err ** 2).sum() / n)
    total_loss = policy_loss + value_coef * value_loss - entropy_coef * entropy_mean
    g_values = (value_coef * 2.0 / n) * value_err
    backward(value_net, obs, g_values[:, None], layers.value, grads.value_net, layers.deltas)

    approx_kl = float(((ratios - 1.0) - log_ratio).sum() / n)
    clip_fraction = np.count_nonzero(np.abs(ratios - 1.0) > clip_epsilon) / n
    metrics = UpdateMetrics(policy_loss=policy_loss, value_loss=value_loss,
                            entropy=entropy_mean, approx_kl=approx_kl,
                            clip_fraction=clip_fraction, total_loss=total_loss)
    return total_loss, metrics


def _optimizer_step(opt_state, params, grads, lr, momentum):
    if isinstance(opt_state, AdamState):
        return adam_step(opt_state, params, grads, lr, momentum)
    return sgd_momentum_step(opt_state, params, grads, lr, momentum)


def ppo_update(buffer: RolloutBuffer, state: TrainState, lr: float, momentum: float,
               config: PpoConfig, rng: np.random.Generator) -> UpdateMetrics:
    """One PPO update: several epochs of shuffled minibatches, one (lr, momentum).

    Advantages are normalized once over the whole batch. Each minibatch
    writes both networks' gradient into ``state.grads``, clips it in place
    and takes one optimizer step into the optimizer state's ``out``, which
    is checked by its min and max (NaN propagates to both), then copied into
    ``state.params``, updating both networks; so no minibatch allocates a
    parameter- or layer-sized array. Raises DivergenceError when a loss or
    new parameter is non-finite; non-finite parameters are not written.
    """
    if buffer.advantages is None or buffer.returns is None:
        raise ValueError("compute_gae must run before ppo_update")
    if buffer.consumed:
        raise RuntimeError("on-policy buffer was already consumed by an update")
    n = buffer.rewards.size
    if n % config.minibatch_size != 0:
        raise ValueError("minibatch_size must divide the number of buffered samples")
    if state.layers.value[0].shape[0] != config.minibatch_size:
        raise ValueError("state's layer buffers were made for another minibatch_size")
    buffer.consumed = True

    obs = buffer.obs.reshape(n, -1)
    actions = buffer.actions.reshape(n, *buffer.actions.shape[2:])
    old_log_probs = buffer.log_probs.reshape(n)
    advantages = normalize_advantages(buffer.advantages.reshape(n))
    returns = buffer.returns.reshape(n)

    indices = np.arange(n)
    names = [f.name for f in fields(UpdateMetrics)]
    totals = np.zeros(len(names))
    batches = 0
    for _ in range(config.update_epochs):
        rng.shuffle(indices)
        for start in range(0, n, config.minibatch_size):
            mb = indices[start:start + config.minibatch_size]
            loss, m = ppo_loss_and_grads(
                state.policy, state.value_net, obs[mb], actions[mb],
                old_log_probs[mb], advantages[mb], returns[mb],
                config.clip_epsilon, config.value_coef, config.entropy_coef, state.grads,
                state.layers)
            if not np.isfinite(loss):
                raise DivergenceError(loss)

            clip_global_norm(state.grads.vec, config.max_grad_norm)
            new_params = _optimizer_step(state.opt, state.params, state.grads.vec, lr, momentum)
            if not (np.isfinite(new_params.min()) and np.isfinite(new_params.max())):
                raise DivergenceError(loss)
            state.params[:] = new_params

            totals += [getattr(m, name) for name in names]
            batches += 1
    return UpdateMetrics(*(float(v) for v in totals / batches))


class RolloutWorker:
    """Steps a fixed set of environments and assembles on-policy buffers.

    Owns the current observation of every env (one ``(n_envs, obs_dim)``
    array), the episode-reward accumulators and the global env-step
    counter, all of which persist across rollouts (episodes may span
    buffers). Environments are stepped in index order, so the counter gives
    every individual step a unique, strictly increasing value.
    """

    def __init__(self, envs: list, seeds: list[int], action_rng: np.random.Generator) -> None:
        self.envs = envs
        self.obs = np.array([env.reset(seed=s) for env, s in zip(envs, seeds, strict=True)],
                            dtype=float)
        self.episode_return = [0.0] * len(envs)
        self.env_step = 0
        self.rng = action_rng

    def collect(self, state: TrainState, config: PpoConfig,
                ) -> tuple[RolloutBuffer, np.ndarray, list[tuple[int, float]]]:
        """Gather ``rollout_steps`` transitions per env.

        Each step runs both networks on all current observations with one
        ``forward`` of their leading layers of equal shapes, stacked
        (``stack_leading``: the weights are views of ``state.params``, the
        biases copied once per rollout). The hidden layers always stack; the
        output layers join them when their shapes agree, as for a 1-D
        continuous action, and then that one ``forward`` is the whole step.
        Otherwise (discrete logits against one value) each output layer gets
        its own ``forward``, of the stacked hidden output or, without hidden
        layers, of the observations. Layer buffers are made once per
        rollout. The random numbers of all steps are drawn before the first,
        with one generator call: the same stream as one draw per step, or
        per env in env order. Then the envs are stepped.
        Gaussian log-probabilities do not feed back into the rollout, so
        they are computed once, over all stored means and actions.
        The action kind and width are those of ``state.policy``'s head.

        Returns (buffer, bootstrap value per env, completed episodes as
        (env_step, total_reward) pairs).
        """
        t_len, n_envs = config.rollout_steps, len(self.envs)
        obs = self.obs
        obs_buf = np.empty((t_len, *obs.shape))
        rewards = np.empty((t_len, n_envs))
        values_buf = np.empty((t_len, n_envs))
        log_probs = np.empty((t_len, n_envs))
        dones = np.empty((t_len, n_envs))
        episodes: list[tuple[int, float]] = []
        discrete = state.policy.log_std is None
        if discrete:
            actions_buf = np.empty((t_len, n_envs), dtype=int)
            rows = np.arange(n_envs)
            uniforms = self.rng.random((t_len, n_envs, 1))
        else:
            act_dim = state.policy.mlp.sizes[-1]
            actions_buf = np.empty((t_len, n_envs, act_dim))
            means = np.empty((t_len, n_envs, act_dim))
            log_std = effective_log_std(state.policy)  # fixed for the whole rollout
            noise = np.exp(log_std) * self.rng.standard_normal((t_len, n_envs, act_dim))
        stack = stack_leading(state.policy.mlp, state.value_net)
        whole = stack is not None and len(stack.weights) == len(state.value_net.weights)
        if stack is not None:
            stack_acts = layer_buffers(stack, n_envs)
        if not whole:
            policy_head = Mlp(state.policy.mlp.weights[-1:], state.policy.mlp.biases[-1:])
            value_head = Mlp(state.value_net.weights[-1:], state.value_net.biases[-1:])
            policy_acts = layer_buffers(policy_head, n_envs)
            value_acts = layer_buffers(value_head, n_envs)
            policy_in, value_in = (obs, obs) if stack is None else stack_acts[-1]

        for t in range(t_len):
            obs_buf[t] = obs
            if whole:
                head, values = forward(stack, obs, stack_acts)
            else:
                if stack is not None:
                    np.tanh(forward(stack, obs, stack_acts), out=stack_acts[-1])
                head = forward(policy_head, policy_in, policy_acts)
                values = forward(value_head, value_in, value_acts)
            values_buf[t] = values[:, 0]

            if discrete:
                ls = log_softmax(head)
                cdf = np.cumsum(np.exp(ls), axis=1)
                # searchsorted(cdf[:-1], u, side="right"): <= k - 1 even if cdf[-1] <= u.
                a = (cdf[:, :-1] <= uniforms[t]).sum(axis=1)
                log_probs[t] = ls[rows, a]
                actions_buf[t] = a
                actions = a.tolist()
            else:
                means[t] = head
                actions = actions_buf[t]
                np.add(head, noise[t], out=actions)

            for e, env in enumerate(self.envs):
                tr = env.step(actions[e])
                self.env_step += 1
                self.episode_return[e] += tr.reward
                ended = tr.done or tr.truncated
                dones[t, e] = float(ended)
                rewards[t, e] = tr.reward
                if ended:
                    episodes.append((self.env_step, self.episode_return[e]))
                    self.episode_return[e] = 0.0
                    obs[e] = env.reset()
                else:
                    obs[e] = tr.next_obs

        if not discrete:
            rows_by_dim = (t_len * n_envs, act_dim)
            log_probs[:] = gaussian_log_probs(means.reshape(rows_by_dim), log_std,
                                              actions_buf.reshape(rows_by_dim)
                                              ).reshape(t_len, n_envs)
        bootstrap = forward(state.value_net, obs)[:, 0]
        buffer = RolloutBuffer(obs=obs_buf, actions=actions_buf, rewards=rewards,
                               values=values_buf, log_probs=log_probs, dones=dones)
        return buffer, bootstrap, episodes


def setup_run(env_id: str, config: PpoConfig, seed: int,
              ) -> tuple[TrainState, RolloutWorker, np.random.Generator]:
    """The seeded agent, rollout worker and minibatch-shuffle generator of one run.

    ``SeedSequence(seed)`` spawns, in this order, the generators for
    parameter initialisation, action sampling and minibatch shuffling, then
    one reset seed per env. This layout fixes every random stream of a
    run: changing it changes every run log.
    """
    children = np.random.SeedSequence(seed).spawn(3 + config.n_envs)
    init_rng, action_rng, shuffle_rng = (np.random.default_rng(c) for c in children[:3])
    env_seeds = [int(c.generate_state(1)[0]) for c in children[3:]]
    envs = [make_env(env_id) for _ in range(config.n_envs)]
    state = build_agent(envs[0], config, init_rng)
    return state, RolloutWorker(envs, env_seeds, action_rng), shuffle_rng


def run_updates(env_id: str, config: PpoConfig, seed: int,
                lrs_and_momenta: Iterable[tuple[float, float | None]]) -> Iterator[tuple]:
    """The training loop of one seeded run: one PPO update per (lr, momentum) pair.

    Sets the run up once with ``setup_run``; then, for each pair, collects a rollout, computes
    GAE and runs one ``ppo_update`` at that LR and momentum. The pairs are read lazily, one per
    update; a None momentum means "not cycled", as ``schedule_values`` yields it with no cycle,
    and applies ``config.fixed_momentum``. After each update it yields ``(lr, momentum,
    episodes, env_step, metrics)``, with the momentum applied: ``episodes`` are the
    (env_step, total_reward) pairs of the episodes that ended during the rollout and
    ``env_step`` is the worker's step counter after it. When the update raises
    DivergenceError, that exception takes the place of ``metrics`` in the last yielded tuple
    and the generator stops. Stopping early is the caller's choice: it just stops consuming.

    Each update's collect, GAE and ``ppo_update`` run under one overflow
    policy: numpy's overflow and invalid-value warnings are off, because a
    run that blows up is an outcome, which ``ppo_update`` reports as
    DivergenceError once a loss or parameter is non-finite. The yield is
    outside that ``np.errstate``, which is context-local: the caller's code
    keeps its own warnings while the generator waits.
    """
    state, worker, shuffle_rng = setup_run(env_id, config, seed)
    for lr, momentum in lrs_and_momenta:
        momentum = config.fixed_momentum if momentum is None else momentum
        with np.errstate(over="ignore", invalid="ignore"):
            buffer, bootstrap, episodes = worker.collect(state, config)
            compute_gae(buffer, config.gamma, config.gae_lambda, bootstrap)
            try:
                metrics = ppo_update(buffer, state, lr, momentum, config, shuffle_rng)
            except DivergenceError as exc:
                metrics = exc
        yield lr, momentum, episodes, worker.env_step, metrics
        if isinstance(metrics, DivergenceError):
            return


def train(env_id: str, schedule: SchedulePolicy, momentum_cycle: MomentumCycle | None,
          config: PpoConfig, seed: int, total_steps: int,
          arm: str | None = None) -> RunLog:
    """Train one seeded agent with the PPO updates of ``run_updates``: the unchecked core.

    ``harness.RunSpec`` is the checked entry. This takes any ``total_steps >= 0`` and runs
    ``config.n_updates(total_steps)`` updates, so 0 gives an empty log. The
    schedule is indexed by the update counter: update k takes the k-th ``(lr, momentum)``
    pair of ``schedule_values(schedule, momentum_cycle, 0, n_updates)``. With ``momentum_cycle``
    None the momentum is not cycled and every update applies ``config.fixed_momentum``. Cycling
    needs a cyclical schedule with ``lr_min < lr_max`` in every cycle the run reaches
    (``check_cycling``); any other schedule raises ValueError before the run is set up. The
    returned RunLog, with run id ``<arm>_seed<seed>``, has one row per completed episode and
    one per update, with strictly increasing env_step. Divergence stops the run early and
    sets the flag: an outcome, not an error.

    Divergence here means only a non-finite loss or a non-finite updated
    parameter (``ppo_update`` raises DivergenceError). ``harness.lr_find``
    also stops on a total loss above 4x the magnitude of its first update's
    and on an approximate KL above 1.0, so a run whose losses grow huge but
    stay finite is flagged by ``lr_find`` and not by ``train``.
    """
    if total_steps < 0:
        raise ValueError("total_steps must be non-negative")
    n_updates = config.n_updates(total_steps)
    if momentum_cycle is not None:
        check_cycling(schedule, n_updates)

    arm = arm if arm is not None else schedule.kind
    log = RunLog(run_id=f"{arm}_seed{seed}", arm=arm, seed=seed, env_id=env_id)

    updates = run_updates(env_id, config, seed,
                          schedule_values(schedule, momentum_cycle, 0, n_updates))
    for update_index, (lr, momentum, episodes, env_step, metrics) in enumerate(updates):
        for step_at, reward in episodes:
            log.rows.append(LogRow(env_step=step_at, update_index=update_index,
                                   episode_reward=reward, lr=lr, momentum=momentum))
        if isinstance(metrics, DivergenceError):
            log.diverged = True
            break

        # An episode that ended on the rollout's final transition shares the
        # update's env_step; fold it into the update row to keep steps unique.
        boundary_reward = None
        if episodes and episodes[-1][0] == env_step:
            boundary_reward = log.rows.pop().episode_reward
        log.rows.append(LogRow(env_step=env_step, update_index=update_index,
                               episode_reward=boundary_reward, lr=lr, momentum=momentum,
                               **{f.name: getattr(metrics, f.name) for f in fields(metrics)
                                  if f.name in COLUMNS}))
    return log
