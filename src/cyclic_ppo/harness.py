"""Experiment runner: schedule-comparison matrices and the LR finder.

The package builds every experiment config from text: flat key=value lines
with dotted keys (the grammar is in ``parse_config_text``'s docstring).
The built-in "paper-general" config is such text, ``PAPER_GENERAL``: it
compares triangular, exp_range and a fixed baseline with the untuned
general settings. A later assignment of a key replaces an earlier one,
and the CLI's ``--set`` lines are parsed after the file's, so they win.
"""
from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, fields

import numpy as np

from . import ppo
from .envs import ENV_IDS
from .ppo import DivergenceError, PpoConfig, run_updates
from .runlog import LrFindResult, RunLog, check_writable, write_runlog
from .schedule import (MOMENTUM_OPTIONS, SCHEDULE_OPTIONS, MomentumCycle, OptionError,
                       SchedulePolicy, check_cycling)


class ConfigError(ValueError):
    """Raised for invalid or unparseable experiment configuration."""


@dataclass(frozen=True)
class Arm:
    """One schedule under comparison: a name, an LR policy, a momentum cycle.

    With no cycle (None) the runs apply ``ppo.fixed_momentum`` (default 0.9);
    a cycle needs a cyclical schedule with ``lr_min < lr_max`` in every cycle
    of a run, which ``RunSpec`` checks.
    """

    name: str
    schedule: SchedulePolicy
    momentum_cycle: MomentumCycle | None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("arm name must be non-empty")
        if "/" in self.name or os.sep in self.name:  # its run logs are <out_dir>/<name>_seed<k>.csv
            raise ConfigError(f"arm name {self.name!r} must be one file-name component")
        # its run log's "# arm=<name>" line is split into lines and stripped when read
        if self.name != self.name.strip() or not self.name.isprintable():
            raise ConfigError(f"arm name {self.name!r} must be printable, without outer spaces")


def check_seed(seed: int) -> None:
    """Raise OptionError for a seed that is not an integer >= 0, which numpy would reject
    only as its run starts."""
    if not isinstance(seed, numbers.Integral):
        raise OptionError("seed", f"seed {seed!r} is not an integer")
    if seed < 0:
        raise OptionError("seed", f"seed {seed} is negative")


@dataclass(frozen=True)
class RunSpec:
    """One seeded run of one arm; a bad ``env``, ``seed`` or ``total_steps`` raises OptionError.

    A cycling arm whose LR bounds meet within the run's updates raises ConfigError
    (``check_cycling``), naming the arm.
    """

    env_id: str
    arm: Arm
    ppo: PpoConfig
    seed: int
    total_steps: int

    def __post_init__(self) -> None:
        if self.env_id not in ENV_IDS:
            raise OptionError("env", f"unknown env {self.env_id!r}, expected one of {ENV_IDS}")
        check_seed(self.seed)
        if not (isinstance(self.total_steps, numbers.Integral) and self.total_steps >= 1):
            raise OptionError("total_steps", "must be an integer >= 1")
        if self.arm.momentum_cycle is not None:
            try:
                check_cycling(self.arm.schedule, self.ppo.n_updates(self.total_steps))
            except ValueError as exc:
                raise ConfigError(f"arm {self.arm.name!r}: {exc}") from None

    def train(self) -> RunLog:
        return ppo.train(self.env_id, self.arm.schedule, self.arm.momentum_cycle, self.ppo,
                         self.seed, self.total_steps, arm=self.arm.name)


@dataclass
class ExperimentConfig:
    """Each arm once per seed, as ``runs()`` lists them. It checks only the matrix: an empty
    ``out_dir`` and empty or repeated ``seeds`` raise OptionError at that key; no arm or a
    repeated name, ConfigError."""

    env_id: str
    arms: list[Arm]
    seeds: list[int]
    total_steps: int
    ppo: PpoConfig
    out_dir: str = "runs"

    def __post_init__(self) -> None:
        if not self.out_dir:
            raise OptionError("out_dir", "must not be empty")
        if not self.seeds:
            raise OptionError("seeds", "must not be empty")
        repeated = [seed for seed in self.seeds if self.seeds.count(seed) > 1]
        if repeated:  # its runs would train again and overwrite their logs
            raise OptionError("seeds", f"seed {repeated[0]} is repeated")
        if not self.arms:
            raise ConfigError("need at least one arm")
        if len({a.name for a in self.arms}) != len(self.arms):
            raise ConfigError("arm names must be unique")
        self.runs()  # so that a bad run value fails before any run

    def runs(self) -> list[RunSpec]:
        """One RunSpec per (arm, seed), arm by arm: the order ``run_experiment`` trains them."""
        return [RunSpec(self.env_id, arm, self.ppo, seed, self.total_steps)
                for arm in self.arms for seed in self.seeds]


def default_ppo_config(env_id: str, overrides: dict | None = None) -> PpoConfig:
    """Cartpole's trainer profile, otherwise ``PpoConfig``'s defaults; then ``overrides``."""
    kwargs = dict(rollout_steps=128, n_envs=8, minibatch_size=256,
                  entropy_coef=0.0) if env_id == "cartpole" else {}
    for key, value in (overrides or {}).items():
        if f"ppo.{key}" not in _PARSERS:
            raise ConfigError(f"unknown ppo option {key!r}")
        kwargs[key] = value
    return PpoConfig(**kwargs)


PAPER_GENERAL = """\
# The untuned general comparison: triangular and exp_range against a fixed LR.
env = cartpole
seeds = 1, 2, 3
total_steps = 200000
out_dir = runs/paper-general

arm.triangular.schedule = triangular
arm.triangular.lr_min = 1e-4
arm.triangular.lr_max = 1e-2
arm.triangular.stepsize = 2000
arm.triangular.cycle_momentum = true

# exp_range first decays at update 4000 (2 x stepsize), after every built-in run ends (196
# cartpole updates, 98 pendulum or chain ones), so it trains the triangular arm's trajectory.
arm.exp_range.schedule = exp_range
arm.exp_range.lr_min = 1e-4
arm.exp_range.lr_max = 1e-2
arm.exp_range.stepsize = 2000
arm.exp_range.decay = 0.99
arm.exp_range.cycle_momentum = true

arm.constant.schedule = constant
arm.constant.lr = 1e-3
"""


def paper_general_config(env_id: str = "cartpole") -> ExperimentConfig:
    """The built-in ``PAPER_GENERAL`` comparison, run on ``env_id``."""
    return load_config("paper-general", [f"env = {env_id}"])


# ---------------------------------------------------------------------------
# flat key=value config files

def _parse_bool(value: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _build_arm(name: str, assigned: dict[str, tuple[str, str]], values: dict) -> Arm:
    """The arm ``name`` from the parsed ``values`` of its ``arm.<name>.<option>`` keys."""
    prefix = f"arm.{name}."
    keys = {key[len(prefix):]: key for key in values if key.startswith(prefix)}
    if "schedule" not in keys:
        raise ConfigError(f"arm {name!r}: missing 'schedule' key")
    kind = values[keys.pop("schedule")]
    if kind not in SCHEDULE_OPTIONS:
        raise _error_at(assigned, prefix + "schedule", f"unknown schedule {kind!r}")
    missing = [option for option in SCHEDULE_OPTIONS[kind] if option not in keys]
    if missing:
        raise ConfigError(f"arm {name!r}: missing key {missing[0]!r} for {kind}")
    args = [values[keys.pop(option)] for option in SCHEDULE_OPTIONS[kind]]
    cycle_on = "cycle_momentum" in keys and values[keys.pop("cycle_momentum")]
    if not cycle_on and keys.keys() & MOMENTUM_OPTIONS:
        raise ConfigError(f"arm {name!r}: momentum_min and momentum_max need "
                          "cycle_momentum = true; set a fixed momentum with ppo.fixed_momentum")
    bounds = {field: values[keys.pop(o)] for o, field in MOMENTUM_OPTIONS.items() if o in keys}
    if keys:
        raise _error_at(assigned, next(iter(keys.values())), "unknown arm option")
    try:
        return Arm(name, getattr(SchedulePolicy, kind)(*args),
                   MomentumCycle(**bounds) if cycle_on else None)
    except OptionError as exc:
        raise _error_at(assigned, prefix + exc.option, exc.reason) from None
    except ConfigError as exc:  # Arm's check of the name
        raise _error_at(assigned, prefix + "schedule", exc) from None
    except ValueError as exc:
        raise ConfigError(f"arm {name!r}: {exc}") from None


def _parse_ints(value: str) -> list[int]:
    items = value.split(",") if value.strip() else []  # an empty value is the empty list
    if any(not item.strip() for item in items):
        raise ValueError(f"empty item in {value!r}")
    return [int(item) for item in items]


# PpoConfig's annotations are strings (postponed evaluation), hence the keys.
_TYPES = {"int": int, "float": float, "str": str,
          "tuple[int, ...]": lambda value: tuple(_parse_ints(value))}
# The parser of every config value, by key; arm.<name>.<option> has the entry arm.<option>.
# The top-level keys have no dot, and ExperimentConfig checks their values.
_PARSERS = {"env": str, "seeds": _parse_ints, "total_steps": int, "out_dir": str,
            **{f"ppo.{f.name}": _TYPES[f.type] for f in fields(PpoConfig)},
            "arm.schedule": str, "arm.stepsize": int, "arm.cycle_momentum": _parse_bool,
            **{f"arm.{o}": float for o in ("lr", "lr_min", "lr_max", "decay", *MOMENTUM_OPTIONS)}}


def _error_at(assigned: dict[str, tuple[str, str]], key: str, reason) -> ConfigError:
    """A ConfigError naming the place where ``key`` was last set, then ``key``."""
    return ConfigError(f"{assigned[key][0]}: {key}: {reason}")


def _parse_value(assigned: dict[str, tuple[str, str]], key: str):
    """Parse the last value assigned to ``key``, reporting errors where it was set."""
    entry = "arm." + key.split(".")[2] if key.startswith("arm.") else key
    try:  # an arm option without an entry stays text, for _build_arm to reject
        return _PARSERS.get(entry, str)(assigned[key][1])
    except ValueError as exc:
        raise _error_at(assigned, key, exc) from None


def parse_config_text(text: str, source: str = "<config>", overrides=()) -> ExperimentConfig:
    """Parse the flat dotted-key grammar into an ExperimentConfig.

    Lines are ``key = value``; '#' starts a comment; blank lines are
    ignored. Recognized keys: env, seeds, total_steps, out_dir,
    ``arm.<name>.<option>`` and ``ppo.<option>``. An arm's ``schedule`` names
    a preset, and ``SCHEDULE_OPTIONS`` its options: constant ``lr``; triangular
    ``lr_min, lr_max, stepsize``; exp_range those and ``decay``. Optional:
    ``cycle_momentum``, ``momentum_min``, ``momentum_max``. ``_PARSERS`` parses
    every value (``ppo.*`` ones by their ``PpoConfig`` field's type);
    ``PpoConfig`` and ``ExperimentConfig`` check them, and a bad one is reported
    where it was set, at its key. A later assignment of a key replaces an
    earlier one. ``overrides`` are more lines of the same grammar (the CLI's
    ``--set`` values), parsed after the text's own, so they win; an error in
    the k-th is reported at ``<cli overrides>:k``.
    """
    # key -> (where it was last set, value)
    assigned: dict[str, tuple[str, str]] = {}
    numbered = [(f"{source}:{n}", raw) for n, raw in enumerate(text.splitlines(), start=1)]
    numbered += [(f"<cli overrides>:{k}", raw) for k, raw in enumerate(overrides, start=1)]

    for where, raw in numbered:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("arm."):
            parts = key.split(".")
            if len(parts) != 3 or not parts[1] or not parts[2]:
                raise ConfigError(f"{where}: arm keys look like arm.<name>.<option>")
        elif key not in _PARSERS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        assigned[key] = (where, value)

    for required in ("env", "seeds", "total_steps"):
        if required not in assigned:
            raise ConfigError(f"{source}: missing required key {required!r}")
    values = {key: _parse_value(assigned, key) for key in assigned}
    top = {key: value for key, value in values.items() if "." not in key}
    ppo_values = {key[4:]: value for key, value in values.items() if key.startswith("ppo.")}
    env_id = top.pop("env")
    try:
        ppo_config = default_ppo_config(env_id, ppo_values)
    except OptionError as exc:
        raise _error_at(assigned, "ppo." + exc.option, exc.reason) from None
    except ValueError as exc:
        raise ConfigError(f"ppo: {exc}") from None
    # dicts keep insertion order, so arms run in the order they first appear
    names = dict.fromkeys(key.split(".")[1] for key in assigned if key.startswith("arm."))
    arms = [_build_arm(name, assigned, values) for name in names]
    try:
        return ExperimentConfig(env_id=env_id, arms=arms, ppo=ppo_config, **top)
    except OptionError as exc:
        raise _error_at(assigned, "seeds" if exc.option == "seed" else exc.option,
                        exc.reason) from None


def load_config(path_or_name: str, overrides=()) -> ExperimentConfig:
    """Load a config file, or the built-in 'paper-general' by name, then ``overrides``."""
    if path_or_name == "paper-general":
        return parse_config_text(PAPER_GENERAL, "paper-general", overrides)
    try:
        with open(path_or_name) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path_or_name!r}: {exc}") from None
    return parse_config_text(text, path_or_name, overrides)


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


def run_experiment(config: ExperimentConfig, progress=None) -> ExperimentResult:
    """Train every run of ``config.runs()`` and write one RunLog CSV per run.

    All arms for a given seed share that seed. Every run's log path is checked
    first (``check_writable``), so one that cannot be written raises OSError
    before any run. Files are written atomically; an I/O failure is recorded
    per run and the remaining runs continue. ``progress`` (optional) is called
    with each finished RunLog.
    """
    runs = config.runs()
    run_paths = [os.path.join(config.out_dir, f"{run.arm.name}_seed{run.seed}.csv")
                 for run in runs]
    for path in run_paths:
        check_writable(path)
    paths: list[str] = []
    errors: list[RunError] = []
    for run, path in zip(runs, run_paths):
        log = run.train()
        try:
            write_runlog(log, path)
        except OSError as exc:
            errors.append(RunError(run_id=log.run_id, message=str(exc)))
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


def lr_find(env_id: str, eta_start: float, eta_end: float, n_updates: int,
            seed: int, ppo_overrides: dict | None = None) -> LrFindResult:
    """Sweep the LR linearly across a short training run, logging the loss.

    Stops early and flags divergence when the optimization destabilizes:
    the total loss goes non-finite, grows past 4x the magnitude of its
    initial value, or the per-update approximate KL blows through
    KL_DIVERGENCE_THRESHOLD. (With bounded rewards the advantage-based
    value targets track the value net, so the loss alone can stay bounded
    while the policy updates are already far outside the trust region;
    the KL condition catches that regime.) A bad value raises OptionError
    at ``lr_start``, ``lr_end``, ``updates`` or ``seed`` before set-up.
    """
    if not 0.0 < eta_start < math.inf:
        raise OptionError("lr_start", "must be positive and finite")
    if not eta_start < eta_end < math.inf:
        raise OptionError("lr_end", f"must be finite and above lr_start {eta_start:g}")
    if not (isinstance(n_updates, numbers.Integral) and n_updates >= 2):
        raise OptionError("updates", "must be an integer >= 2")
    check_seed(seed)

    config = default_ppo_config(env_id, ppo_overrides)
    sweep = ((float(lr), None) for lr in np.linspace(eta_start, eta_end, n_updates))
    points: list[tuple[float, float]] = []
    diverged = False
    for lr, _, _, _, metrics in run_updates(env_id, config, seed, sweep):
        failed = isinstance(metrics, DivergenceError)
        points.append((lr, float(metrics.loss) if failed else metrics.total_loss))
        # On the first update the loss rule compares the loss with itself and cannot fire.
        if failed or (metrics.total_loss > LOSS_BLOWUP_FACTOR * abs(points[0][1])
                      or metrics.approx_kl > KL_DIVERGENCE_THRESHOLD):
            diverged = True
            break
    return LrFindResult(points=points, diverged=diverged)
