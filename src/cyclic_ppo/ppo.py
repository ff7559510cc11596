"""On-policy clipped PPO trainer driven by step-indexed schedules.

The learning rate and momentum for update k come from the schedule module
and are held fixed across every minibatch of that update. Gradients are
hand-derived through the clipped surrogate, value MSE, and entropy bonus,
then clipped by global norm and applied by the optimize module.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .envs import DiscreteSpace, make_env
from .nn import (Mlp, Policy, backward, categorical_log_probs, effective_log_std,
                 flatten_mlp, flatten_policy, forward, gaussian_entropy_value,
                 gaussian_log_probs, log_softmax, log_std_grad_mask, policy_init,
                 unflatten_mlp, unflatten_policy, value_init)
from .nn import flatten_grads  # noqa: F401  unused; the benchmark traces it by this name
from .optimize import (AdamState, SgdMomentumState, adam_step, clip_global_norm,
                       sgd_momentum_step)
from .runlog import LogRow, RunLog
from .schedule import CONSTANT, MomentumCycle, SchedulePolicy, lr_at, momentum_at


class DivergenceError(RuntimeError):
    """Raised when a loss or parameter vector stops being finite."""

    def __init__(self, loss: float) -> None:
        super().__init__(f"training diverged (loss={loss!r})")
        self.loss = loss


@dataclass
class PpoConfig:
    """Trainer hyperparameters; schedule values are injected per update, not stored."""

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
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("gae_lambda must lie in [0, 1]")
        if not self.clip_epsilon > 0.0:
            raise ValueError("clip_epsilon must be positive")
        if self.rollout_steps < 1 or self.n_envs < 1 or self.update_epochs < 1:
            raise ValueError("rollout_steps, n_envs and update_epochs must be >= 1")
        if (self.rollout_steps * self.n_envs) % self.minibatch_size != 0:
            raise ValueError("minibatch_size must divide rollout_steps * n_envs")
        if self.value_coef < 0.0 or self.entropy_coef < 0.0:
            raise ValueError("loss coefficients must be non-negative")
        if not self.max_grad_norm > 0.0:
            raise ValueError("max_grad_norm must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if not 0.0 <= self.fixed_momentum <= 1.0:
            raise ValueError("fixed_momentum must lie in [0, 1]")


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
        if self.rewards.ndim == 1:  # single-env convenience: promote (T,) to (T, 1)
            self.obs = self.obs[:, None] if self.obs.ndim == 2 else self.obs.reshape(-1, 1)
            self.actions = self.actions[:, None] if self.actions.ndim <= 1 \
                else self.actions[:, None, :]
            self.rewards = self.rewards[:, None]
            self.values = self.values[:, None]
            self.log_probs = self.log_probs[:, None]
            self.dones = self.dones[:, None]
        t, e = self.rewards.shape
        for name in ("obs", "actions", "values", "log_probs", "dones"):
            arr = getattr(self, name)
            if arr.shape[:2] != (t, e):
                raise ValueError(f"buffer incomplete: {name} has shape {arr.shape}, "
                                 f"expected leading ({t}, {e})")

    @property
    def n_samples(self) -> int:
        return self.rewards.size


def compute_gae(buffer: RolloutBuffer, gamma: float, gae_lambda: float,
                bootstrap_value) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates for a complete buffer.

    ``bootstrap_value`` is the value estimate of the state following the
    last buffered step (scalar, or one per env); it is masked out wherever
    the last step ended its episode. Stores and returns
    ``(advantages, returns)`` with ``returns = advantages + values``.
    """
    t_len, n_envs = buffer.rewards.shape
    bootstrap = np.broadcast_to(np.asarray(bootstrap_value, dtype=float), (n_envs,))
    advantages = np.empty((t_len, n_envs))
    last_gae = np.zeros(n_envs)
    for t in range(t_len - 1, -1, -1):
        next_values = bootstrap if t == t_len - 1 else buffer.values[t + 1]
        non_terminal = 1.0 - buffer.dones[t]
        delta = buffer.rewards[t] + gamma * next_values * non_terminal - buffer.values[t]
        last_gae = delta + gamma * gae_lambda * non_terminal * last_gae
        advantages[t] = last_gae
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
    is the optimizer state over the whole vector.
    """

    params: np.ndarray
    policy: Policy
    value_net: Mlp
    opt: AdamState | SgdMomentumState


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


def _joint_views(policy: Policy, value_net: Mlp, vec: np.ndarray) -> tuple[Policy, Mlp]:
    """Networks shaped like ``policy`` and ``value_net`` viewing ``vec`` (policy first)."""
    n_policy = policy.n_params
    return unflatten_policy(policy, vec[:n_policy]), unflatten_mlp(value_net, vec[n_policy:])


def build_agent(env, config: PpoConfig, rng: np.random.Generator) -> TrainState:
    spec = env.spec
    discrete = isinstance(spec.action_space, DiscreteSpace)
    act_dim = spec.action_space.n if discrete else len(spec.action_space.low)
    policy = policy_init(spec.obs_dim, act_dim, discrete, rng, config.hidden_sizes)
    value_net = value_init(spec.obs_dim, rng, config.hidden_sizes)
    params = np.concatenate([flatten_policy(policy), flatten_mlp(value_net)])
    opt = (AdamState.init(params.size, config.adam_beta2, config.adam_epsilon)
           if config.optimizer == "adam" else SgdMomentumState.init(params.size))
    return TrainState(params, *_joint_views(policy, value_net, params), opt=opt)


def ppo_loss_and_grads(policy: Policy, value_net: Mlp, obs: np.ndarray,
                       actions: np.ndarray, old_log_probs: np.ndarray,
                       advantages: np.ndarray, returns: np.ndarray,
                       clip_epsilon: float, value_coef: float, entropy_coef: float,
                       grads: Gradients | None = None,
                       ) -> tuple[float, np.ndarray, np.ndarray, UpdateMetrics]:
    """Composite PPO loss and its exact gradients on one minibatch.

    Loss = surrogate + value_coef * value-MSE - entropy_coef * entropy.
    The surrogate gradient flows only through samples whose unclipped
    branch is active (the clipped branch is flat in the ratio). Backward
    passes reuse the activations of the loss's own forward passes.

    The gradients are written into ``grads`` (fresh ``Gradients`` when
    omitted); every element of ``grads.vec`` is overwritten.

    Returns:
        (total_loss, policy_grad_vector, value_grad_vector, metrics); the two
        vectors are the policy and value parts of ``grads.vec``.
    """
    if grads is None:
        grads = Gradients.like(policy, value_net)
    n = obs.shape[0]
    policy_acts: list[np.ndarray] = []
    head = forward(policy.mlp, obs, policy_acts)
    discrete = policy.log_std is None
    if discrete:
        log_probs_all = log_softmax(head)
        probs = np.exp(log_probs_all)
        new_log_probs = categorical_log_probs(head, actions)
        entropies = -(probs * log_probs_all).sum(axis=1)
    else:
        log_std = effective_log_std(policy)
        std = np.exp(log_std)
        new_log_probs = gaussian_log_probs(head, log_std, actions)
        entropies = np.full(n, gaussian_entropy_value(log_std))

    log_ratio = new_log_probs - old_log_probs
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.exp(log_ratio)
        unclipped = ratios * advantages
        clipped = np.clip(ratios, 1.0 - clip_epsilon, 1.0 + clip_epsilon) * advantages
        policy_loss = float(np.mean(-np.minimum(unclipped, clipped)))

        value_acts: list[np.ndarray] = []
        values = forward(value_net, obs, value_acts)[:, 0]
        value_err = values - returns
        value_loss = float(np.mean(value_err ** 2))
        entropy_mean = float(entropies.mean())
        total_loss = policy_loss + value_coef * value_loss - entropy_coef * entropy_mean

        # d(policy_loss)/d(log pi): -A * r / n on the active unclipped branch.
        active = (unclipped <= clipped).astype(float)
        g_log_prob = -(advantages * ratios * active) / n

        if discrete:
            one_hot = np.zeros_like(probs)
            one_hot[np.arange(n), actions] = 1.0
            g_head = g_log_prob[:, None] * (one_hot - probs)
            # dH/dz = -p * (log p + H); the loss carries -entropy_coef * mean(H).
            g_head += (entropy_coef / n) * probs * (log_probs_all + entropies[:, None])
            backward(policy.mlp, obs, g_head, policy_acts, grads.policy.mlp)
        else:
            diff = actions - head
            g_head = g_log_prob[:, None] * diff / std ** 2
            backward(policy.mlp, obs, g_head, policy_acts, grads.policy.mlp)
            z2 = (diff / std) ** 2
            g_log_std = (g_log_prob[:, None] * (z2 - 1.0)).sum(axis=0) - entropy_coef
            np.multiply(g_log_std, log_std_grad_mask(policy), out=grads.policy.log_std)

        g_values = (value_coef * 2.0 / n) * value_err
        backward(value_net, obs, g_values[:, None], value_acts, grads.value_net)

        approx_kl = float(np.mean((ratios - 1.0) - log_ratio))
        clip_fraction = float(np.mean(np.abs(ratios - 1.0) > clip_epsilon))
    metrics = UpdateMetrics(policy_loss=policy_loss, value_loss=value_loss,
                            entropy=entropy_mean, approx_kl=approx_kl,
                            clip_fraction=clip_fraction, total_loss=total_loss)
    n_policy = policy.n_params
    return total_loss, grads.vec[:n_policy], grads.vec[n_policy:], metrics


def _optimizer_step(opt_state, params, grads, lr, momentum):
    if isinstance(opt_state, AdamState):
        return adam_step(opt_state, params, grads, lr, momentum)
    return sgd_momentum_step(opt_state, params, grads, lr, momentum)


def ppo_update(buffer: RolloutBuffer, state: TrainState, lr: float, momentum: float,
               config: PpoConfig, rng: np.random.Generator) -> UpdateMetrics:
    """One PPO update: several epochs of shuffled minibatches, one (lr, momentum).

    Advantages are normalized once over the whole batch. Each minibatch
    writes the gradient of both networks into one vector reused across the
    update, clips it by global norm, takes one optimizer step on
    ``state.params`` and writes the result into ``state.params`` in place,
    which updates both networks. Raises
    DivergenceError when a loss or updated parameter is non-finite; a step
    with non-finite parameters is not written.
    """
    if buffer.advantages is None or buffer.returns is None:
        raise ValueError("compute_gae must run before ppo_update")
    if buffer.consumed:
        raise RuntimeError("on-policy buffer was already consumed by an update")
    buffer.consumed = True

    n = buffer.n_samples
    if n % config.minibatch_size != 0:
        raise ValueError("minibatch_size must divide the number of buffered samples")
    obs = buffer.obs.reshape(n, -1)
    actions = buffer.actions.reshape(n) if buffer.actions.ndim == 2 \
        else buffer.actions.reshape(n, -1)
    old_log_probs = buffer.log_probs.reshape(n)
    advantages = normalize_advantages(buffer.advantages.reshape(n))
    returns = buffer.returns.reshape(n)

    indices = np.arange(n)
    totals = np.zeros(6)
    batches = 0
    grads = Gradients.like(state.policy, state.value_net)
    for _ in range(config.update_epochs):
        rng.shuffle(indices)
        for start in range(0, n, config.minibatch_size):
            mb = indices[start:start + config.minibatch_size]
            loss, _, _, m = ppo_loss_and_grads(
                state.policy, state.value_net, obs[mb], actions[mb],
                old_log_probs[mb], advantages[mb], returns[mb],
                config.clip_epsilon, config.value_coef, config.entropy_coef, grads)
            if not np.isfinite(loss):
                raise DivergenceError(loss)

            clipped = clip_global_norm(grads.vec, config.max_grad_norm)
            new_params, state.opt = _optimizer_step(state.opt, state.params, clipped,
                                                    lr, momentum)
            if not np.all(np.isfinite(new_params)):
                raise DivergenceError(loss)
            state.params[:] = new_params
            # Freed now, not when the next step rebinds it: with 256-wide layers
            # peak RSS was 1 MB lower (49.2 vs 50.2 MB, median of 8 benchmark
            # runs) at the same env-steps/s.
            del new_params

            totals += (m.policy_loss, m.value_loss, m.entropy, m.approx_kl,
                       m.clip_fraction, m.total_loss)
            batches += 1
    means = [float(v) for v in totals / batches]
    return UpdateMetrics(policy_loss=means[0], value_loss=means[1], entropy=means[2],
                         approx_kl=means[3], clip_fraction=means[4], total_loss=means[5])


class RolloutWorker:
    """Steps a fixed set of environments and assembles on-policy buffers.

    Owns the episode-reward accumulators and the global env-step counter,
    both of which persist across rollouts (episodes may span buffers).
    Environments are stepped in index order, so the counter gives every
    individual step a unique, strictly increasing value.
    """

    def __init__(self, envs: list, seeds: list[int], action_rng: np.random.Generator) -> None:
        self.envs = envs
        self.obs = [env.reset(seed=s) for env, s in zip(envs, seeds)]
        self.episode_return = [0.0] * len(envs)
        self.env_step = 0
        self.rng = action_rng
        self.discrete = isinstance(envs[0].spec.action_space, DiscreteSpace)

    def collect(self, state: TrainState, config: PpoConfig,
                ) -> tuple[RolloutBuffer, np.ndarray, list[tuple[int, float]]]:
        """Gather ``rollout_steps`` transitions per env.

        Returns (buffer, bootstrap value per env, completed episodes as
        (env_step, total_reward) pairs).
        """
        t_len, n_envs = config.rollout_steps, len(self.envs)
        obs_dim = self.envs[0].spec.obs_dim
        act_dim = None if self.discrete else len(self.envs[0].spec.action_space.low)

        obs_buf = np.empty((t_len, n_envs, obs_dim))
        actions_buf = (np.empty((t_len, n_envs), dtype=int) if self.discrete
                       else np.empty((t_len, n_envs, act_dim)))
        rewards = np.empty((t_len, n_envs))
        values_buf = np.empty((t_len, n_envs))
        log_probs = np.empty((t_len, n_envs))
        dones = np.empty((t_len, n_envs))
        episodes: list[tuple[int, float]] = []
        if not self.discrete:  # log_std is fixed for the whole rollout
            log_std = effective_log_std(state.policy)
            std = np.exp(log_std)

        for t in range(t_len):
            obs_mat = np.stack(self.obs)
            head = forward(state.policy.mlp, obs_mat)
            values_buf[t] = forward(state.value_net, obs_mat)[:, 0]
            obs_buf[t] = obs_mat

            if self.discrete:
                ls = log_softmax(head)
                cdf = np.cumsum(np.exp(ls), axis=1)

            for e, env in enumerate(self.envs):
                if self.discrete:
                    a = int(np.searchsorted(cdf[e], self.rng.random(), side="right"))
                    a = min(a, ls.shape[1] - 1)
                    log_probs[t, e] = ls[e, a]
                    actions_buf[t, e] = a
                    action = a
                else:
                    noise = self.rng.standard_normal(act_dim)
                    action = head[e] + std * noise
                    log_probs[t, e] = gaussian_log_probs(head[e:e + 1], log_std,
                                                         action[None, :])[0]
                    actions_buf[t, e] = action

                tr = env.step(action)
                self.env_step += 1
                self.episode_return[e] += tr.reward
                ended = tr.done or tr.truncated
                dones[t, e] = float(ended)
                rewards[t, e] = tr.reward
                if ended:
                    episodes.append((self.env_step, self.episode_return[e]))
                    self.episode_return[e] = 0.0
                    self.obs[e] = env.reset()
                else:
                    self.obs[e] = tr.next_obs

        bootstrap = forward(state.value_net, np.stack(self.obs))[:, 0]
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
                lrs_and_momenta: Iterable[tuple[float, float]]) -> Iterator[tuple]:
    """The training loop of one seeded run: one PPO update per (lr, momentum) pair.

    Sets the run up once with ``setup_run``; then, for each pair, collects
    a rollout, computes GAE and runs one ``ppo_update`` at that LR and
    momentum. After each update it yields ``(lr, momentum, episodes,
    env_step, metrics)``: ``episodes`` are the (env_step, total_reward)
    pairs of the episodes that ended during the rollout and ``env_step`` is
    the worker's step counter after it. When the update raises
    DivergenceError, that exception takes the place of ``metrics`` in the
    last yielded tuple and the generator stops. Stopping early is the
    caller's choice: it just stops consuming.
    """
    state, worker, shuffle_rng = setup_run(env_id, config, seed)
    for lr, momentum in lrs_and_momenta:
        buffer, bootstrap, episodes = worker.collect(state, config)
        compute_gae(buffer, config.gamma, config.gae_lambda, bootstrap)
        try:
            metrics = ppo_update(buffer, state, lr, momentum, config, shuffle_rng)
        except DivergenceError as exc:
            yield lr, momentum, episodes, worker.env_step, exc
            return
        yield lr, momentum, episodes, worker.env_step, metrics


def train(env_id: str, schedule: SchedulePolicy, momentum_cycle: MomentumCycle | None,
          config: PpoConfig, seed: int, total_steps: int,
          arm: str | None = None, run_id: str | None = None) -> RunLog:
    """Train one seeded agent with the PPO updates of ``run_updates``.

    The run has ``ceil(total_steps / (rollout_steps * n_envs))`` updates.
    The schedule is indexed by the update counter: update k uses
    ``lr_at(schedule, k)`` and, when cycling is on, ``momentum_at(..., k)``;
    otherwise the optimizer keeps ``config.fixed_momentum``. The returned
    RunLog has one row per completed episode and one per update, with
    strictly increasing env_step. Divergence stops the run early and sets
    the flag; it is an outcome, not an error.
    """
    if total_steps < 0:
        raise ValueError("total_steps must be non-negative")
    cycling = momentum_cycle is not None and momentum_cycle.enabled
    if cycling and schedule.kind == CONSTANT:
        raise ValueError("momentum cycling requires a cyclical schedule")

    arm = arm if arm is not None else schedule.kind
    log = RunLog(run_id=run_id if run_id is not None else f"{arm}_seed{seed}",
                 arm=arm, seed=seed, env_id=env_id)

    n_updates = -(-total_steps // (config.rollout_steps * config.n_envs))
    schedule_values = ((lr_at(schedule, k),
                        momentum_at(schedule, momentum_cycle, k) if cycling
                        else config.fixed_momentum) for k in range(n_updates))
    updates = run_updates(env_id, config, seed, schedule_values)
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
        if (log.rows and log.rows[-1].env_step == env_step
                and log.rows[-1].episode_reward is not None):
            boundary_reward = log.rows.pop().episode_reward
        log.rows.append(LogRow(env_step=env_step, update_index=update_index,
                               episode_reward=boundary_reward, lr=lr, momentum=momentum,
                               policy_loss=metrics.policy_loss,
                               value_loss=metrics.value_loss, entropy=metrics.entropy,
                               approx_kl=metrics.approx_kl))
    return log
