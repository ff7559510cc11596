"""Experiment runner: schedule-comparison matrices, the LR finder, file output.

Configs are flat key=value text with dotted keys (documented in the
README); the built-in "paper-general" config compares triangular,
exp_range and a fixed baseline with the untuned general settings.
"""
from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import ppo
from .envs import ENV_IDS
from .ppo import DivergenceError, PpoConfig, compute_gae, ppo_update, setup_run
from .runlog import RunLogFormatError, write_runlog, write_text_atomic
from .schedule import CONSTANT, MomentumCycle, SchedulePolicy


class ConfigError(ValueError):
    """Raised for invalid or unparseable experiment configuration."""


@dataclass(frozen=True)
class Arm:
    """One schedule under comparison: a name, an LR policy, a momentum cycle."""

    name: str
    schedule: SchedulePolicy
    momentum_cycle: MomentumCycle

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("arm name must be non-empty")
        if self.momentum_cycle.enabled and self.schedule.kind == CONSTANT:
            raise ConfigError(f"arm {self.name!r}: momentum cycling needs a cyclical schedule")


@dataclass
class ExperimentConfig:
    env_id: str
    arms: list[Arm]
    seeds: list[int]
    total_steps: int
    out_dir: str = "runs"
    ppo_overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.env_id not in ENV_IDS:
            raise ConfigError(f"unknown env {self.env_id!r}, expected one of {ENV_IDS}")
        if not self.arms:
            raise ConfigError("need at least one arm")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if len({a.name for a in self.arms}) != len(self.arms):
            raise ConfigError("arm names must be unique")
        if self.total_steps <= 0:
            raise ConfigError("total_steps must be positive")


def default_ppo_config(env_id: str, overrides: dict | None = None) -> PpoConfig:
    """Per-environment trainer profile, with optional field overrides."""
    if env_id == "cartpole":
        kwargs = dict(rollout_steps=128, n_envs=8, minibatch_size=256, entropy_coef=0.0)
    else:
        kwargs = dict(rollout_steps=2048, n_envs=1, minibatch_size=64, entropy_coef=0.01)
    valid = {f.name for f in fields(PpoConfig)}
    for key, value in (overrides or {}).items():
        if key not in valid:
            raise ConfigError(f"unknown ppo option {key!r}")
        kwargs[key] = value
    try:
        return PpoConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


GENERAL_ETA_MIN = 1e-4
GENERAL_ETA_MAX = 1e-2
GENERAL_STEPSIZE = 2000
GENERAL_DECAY = 0.99
GENERAL_FIXED_LR = 1e-3


def paper_general_config(env_id: str = "cartpole", seeds=(1, 2, 3),
                         total_steps: int = 200_000,
                         out_dir: str = "runs/paper-general") -> ExperimentConfig:
    """The untuned general comparison: triangular and exp_range against a fixed LR."""
    cycle = MomentumCycle(enabled=True, m_min=0.8, m_max=1.0)
    arms = [
        Arm("triangular",
            SchedulePolicy.triangular(GENERAL_ETA_MIN, GENERAL_ETA_MAX, GENERAL_STEPSIZE),
            cycle),
        Arm("exp_range",
            SchedulePolicy.exp_range(GENERAL_ETA_MIN, GENERAL_ETA_MAX, GENERAL_STEPSIZE,
                                     GENERAL_DECAY),
            cycle),
        Arm("constant", SchedulePolicy.constant(GENERAL_FIXED_LR), MomentumCycle.disabled()),
    ]
    return ExperimentConfig(env_id=env_id, arms=list(arms), seeds=list(seeds),
                            total_steps=total_steps, out_dir=out_dir)


# ---------------------------------------------------------------------------
# flat key=value config files

def _parse_bool(value: str, key: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _build_arm(name: str, opts: dict[str, str]) -> Arm:
    kind = opts.pop("schedule", None)
    if kind is None:
        raise ConfigError(f"arm {name!r}: missing 'schedule' key")
    try:
        if kind == "constant":
            schedule = SchedulePolicy.constant(float(opts.pop("lr")))
        elif kind == "triangular":
            schedule = SchedulePolicy.triangular(float(opts.pop("lr_min")),
                                                 float(opts.pop("lr_max")),
                                                 int(opts.pop("stepsize")))
        elif kind == "exp_range":
            schedule = SchedulePolicy.exp_range(float(opts.pop("lr_min")),
                                                float(opts.pop("lr_max")),
                                                int(opts.pop("stepsize")),
                                                float(opts.pop("decay")))
        else:
            raise ConfigError(f"arm {name!r}: unknown schedule {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"arm {name!r}: missing key {exc.args[0]!r} for {kind}") from None
    except ValueError as exc:
        raise ConfigError(f"arm {name!r}: {exc}") from None

    cycle_on = _parse_bool(opts.pop("cycle_momentum", "false"), f"arm.{name}.cycle_momentum")
    m_min = float(opts.pop("momentum_min", "0.8"))
    m_max = float(opts.pop("momentum_max", "1.0"))
    if opts:
        raise ConfigError(f"arm {name!r}: unknown keys {sorted(opts)}")
    try:
        cycle = MomentumCycle(enabled=cycle_on, m_min=m_min, m_max=m_max)
    except ValueError as exc:
        raise ConfigError(f"arm {name!r}: {exc}") from None
    return Arm(name=name, schedule=schedule, momentum_cycle=cycle)


_PPO_FIELD_TYPES = {f.name: f.type for f in fields(PpoConfig)}


def _coerce_ppo_value(key: str, value: str):
    if key not in _PPO_FIELD_TYPES:
        raise ConfigError(f"unknown ppo option {key!r}")
    kind = _PPO_FIELD_TYPES[key]
    if key == "hidden_sizes":
        return tuple(int(v) for v in value.split(",") if v.strip())
    if key == "optimizer":
        return value
    if kind == "int":
        return int(value)
    return float(value)


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse the flat dotted-key grammar into an ExperimentConfig.

    Lines are ``key = value``; '#' starts a comment; blank lines are
    ignored. Recognized keys: env, seeds, total_steps, out_dir,
    ``arm.<name>.<option>`` and ``ppo.<option>``.
    """
    scalars: dict[str, str] = {}
    arm_opts: dict[str, dict[str, str]] = {}
    ppo_opts: dict[str, str] = {}
    arm_order: list[str] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("arm."):
            parts = key.split(".")
            if len(parts) != 3 or not parts[1] or not parts[2]:
                raise ConfigError(f"{source}:{line_no}: arm keys look like arm.<name>.<option>")
            if parts[1] not in arm_opts:
                arm_opts[parts[1]] = {}
                arm_order.append(parts[1])
            arm_opts[parts[1]][parts[2]] = value
        elif key.startswith("ppo."):
            ppo_opts[key[4:]] = value
        elif key in ("env", "seeds", "total_steps", "out_dir"):
            scalars[key] = value
        else:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r}")

    for required in ("env", "seeds", "total_steps"):
        if required not in scalars:
            raise ConfigError(f"{source}: missing required key {required!r}")
    try:
        seeds = [int(s) for s in scalars["seeds"].split(",") if s.strip()]
        total_steps = int(scalars["total_steps"])
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None

    arms = [_build_arm(name, dict(arm_opts[name])) for name in arm_order]
    overrides = {key: _coerce_ppo_value(key, value) for key, value in ppo_opts.items()}
    return ExperimentConfig(env_id=scalars["env"], arms=arms, seeds=seeds,
                            total_steps=total_steps,
                            out_dir=scalars.get("out_dir", "runs"),
                            ppo_overrides=overrides)


def load_config(path_or_name: str) -> ExperimentConfig:
    """Load a config file, or the built-in 'paper-general' by name."""
    if path_or_name == "paper-general":
        return paper_general_config()
    try:
        with open(path_or_name) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path_or_name!r}: {exc}") from None
    return parse_config_text(text, source=path_or_name)


def apply_overrides(config: ExperimentConfig, assignments: list[str]) -> ExperimentConfig:
    """Re-parse the config with ``key=value`` CLI assignments layered on top."""
    if not assignments:
        return config
    base = dump_config_text(config)
    extra = "\n".join(assignments)
    return parse_config_text(base + "\n" + extra, source="<cli overrides>")


def dump_config_text(config: ExperimentConfig) -> str:
    """Render a config back to the flat grammar (inverse of parse_config_text)."""
    lines = [f"env = {config.env_id}",
             f"seeds = {','.join(str(s) for s in config.seeds)}",
             f"total_steps = {config.total_steps}",
             f"out_dir = {config.out_dir}"]
    for arm in config.arms:
        prefix = f"arm.{arm.name}"
        sched = arm.schedule
        lines.append(f"{prefix}.schedule = {sched.kind}")
        if sched.kind == CONSTANT:
            lines.append(f"{prefix}.lr = {sched.eta_fixed!r}")
        else:
            lines.append(f"{prefix}.lr_min = {sched.eta_min_0!r}")
            lines.append(f"{prefix}.lr_max = {sched.eta_max_0!r}")
            lines.append(f"{prefix}.stepsize = {sched.stepsize}")
            if sched.kind == "exp_range":
                lines.append(f"{prefix}.decay = {sched.decay!r}")
        lines.append(f"{prefix}.cycle_momentum = {'true' if arm.momentum_cycle.enabled else 'false'}")
        lines.append(f"{prefix}.momentum_min = {arm.momentum_cycle.m_min!r}")
        lines.append(f"{prefix}.momentum_max = {arm.momentum_cycle.m_max!r}")
    for key, value in config.ppo_overrides.items():
        if key == "hidden_sizes":
            value = ",".join(str(v) for v in value)
        lines.append(f"ppo.{key} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# experiment execution

@dataclass
class RunError:
    run_id: str
    message: str


@dataclass
class ExperimentResult:
    log_paths: list[str]
    errors: list[RunError]


def run_experiment(config: ExperimentConfig,
                   progress=None) -> ExperimentResult:
    """Train every (arm, seed) pair and write one RunLog CSV per run.

    All arms for a given seed share that seed. Files are written
    atomically; an I/O failure is recorded per run and the remaining runs
    continue. ``progress`` (optional) is called with each finished RunLog.
    """
    ppo_config = default_ppo_config(config.env_id, config.ppo_overrides)
    paths: list[str] = []
    errors: list[RunError] = []
    for arm in config.arms:
        for seed in config.seeds:
            run_id = f"{arm.name}_seed{seed}"
            log = ppo.train(config.env_id, arm.schedule, arm.momentum_cycle,
                            ppo_config, seed=seed, total_steps=config.total_steps,
                            arm=arm.name, run_id=run_id)
            path = os.path.join(config.out_dir, f"{run_id}.csv")
            try:
                write_runlog(log, path)
            except OSError as exc:
                errors.append(RunError(run_id=run_id, message=str(exc)))
                continue
            paths.append(path)
            if progress is not None:
                progress(log)
    return ExperimentResult(log_paths=paths, errors=errors)


# ---------------------------------------------------------------------------
# learning-rate finder

# Healthy clipped-PPO updates keep the mean approximate KL within a few
# multiples of clip_epsilon**2/2 (~0.02 here, <0.03 observed); values past
# 1.0 mean the policy is jumping far outside the trust region every update.
KL_DIVERGENCE_THRESHOLD = 1.0
LOSS_BLOWUP_FACTOR = 4.0


@dataclass
class LrFindResult:
    """(lr, total_loss) samples from a linearly increasing LR sweep."""

    points: list[tuple[float, float]]
    diverged: bool


def lr_find(env_id: str, eta_start: float, eta_end: float, n_updates: int,
            seed: int, ppo_overrides: dict | None = None) -> LrFindResult:
    """Sweep the LR linearly across a short training run, logging the loss.

    Stops early and flags divergence when the optimization destabilizes:
    the total loss goes non-finite, grows past 4x the magnitude of its
    initial value, or the per-update approximate KL blows through
    KL_DIVERGENCE_THRESHOLD. (With bounded rewards the advantage-based
    value targets track the value net, so the loss alone can stay bounded
    while the policy updates are already far outside the trust region;
    the KL condition catches that regime.)
    """
    if not eta_start < eta_end:
        raise ConfigError("need eta_start < eta_end")
    if eta_start <= 0.0:
        raise ConfigError("eta_start must be positive")
    if n_updates < 2:
        raise ConfigError("need at least 2 updates")

    config = default_ppo_config(env_id, ppo_overrides)
    lrs = np.linspace(eta_start, eta_end, n_updates)
    state, worker, shuffle_rng = setup_run(env_id, config, seed)

    points: list[tuple[float, float]] = []
    diverged = False
    initial_loss: float | None = None
    for lr in lrs:
        buffer, bootstrap, _ = worker.collect(state, config)
        compute_gae(buffer, config.gamma, config.gae_lambda, bootstrap)
        try:
            metrics = ppo_update(buffer, state, float(lr), config.fixed_momentum,
                                 config, shuffle_rng)
        except DivergenceError as exc:
            points.append((float(lr), float(exc.loss)))
            diverged = True
            break
        points.append((float(lr), metrics.total_loss))
        if initial_loss is None:
            initial_loss = metrics.total_loss
        elif metrics.total_loss > LOSS_BLOWUP_FACTOR * abs(initial_loss):
            diverged = True
            break
        if metrics.approx_kl > KL_DIVERGENCE_THRESHOLD:
            diverged = True
            break
    return LrFindResult(points=points, diverged=diverged)


def dump_lr_curve(result: LrFindResult) -> str:
    buf = io.StringIO()
    buf.write(f"# diverged={'true' if result.diverged else 'false'}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("lr", "total_loss"))
    for lr, loss in result.points:
        writer.writerow((repr(float(lr)), repr(float(loss))))
    return buf.getvalue()


def write_lr_curve(result: LrFindResult, path) -> None:
    write_text_atomic(path, dump_lr_curve(result))


def read_lr_curve(path) -> LrFindResult:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith("# diverged="):
        raise RunLogFormatError(path, 1, "expected '# diverged=' metadata line")
    diverged = lines[0].split("=", 1)[1].strip() == "true"
    if len(lines) < 2 or lines[1] != "lr,total_loss":
        raise RunLogFormatError(path, 2, "expected header lr,total_loss")
    points = []
    for line_no, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise RunLogFormatError(path, line_no, f"expected 2 fields, got {len(parts)}")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise RunLogFormatError(path, line_no, f"bad float in {line!r}") from None
    return LrFindResult(points=points, diverged=diverged)
