"""Command-line interface: train, experiment, lr-find, plot.

Exit code 0 on success, 2 on validation errors, 1 on I/O failure. A bad value
of one flag is reported at that flag: ``error: --seed: seed -1 is negative``.
Divergence during training is a reported outcome, not a failure exit.
"""
from __future__ import annotations

import argparse
import sys

from .envs import ENV_IDS
from .harness import (Arm, ConfigError, RunSpec, default_ppo_config, load_config, lr_find,
                      run_experiment)
from .plots import PLOT_KINDS, REWARD_SMOOTHING_EPISODES, emit_plot, smoothed_rewards
from .runlog import check_writable, write_lr_curve, write_runlog
from .schedule import SCHEDULE_OPTIONS, MomentumCycle, OptionError, SchedulePolicy


def _flag(option: str) -> str:
    return "--" + option.replace("_", "-")  # argparse stores --lr-min as args.lr_min


# The flags of every preset's options; the presets that take stepsize or decay default them.
_SCHEDULE_FLAGS = tuple(dict.fromkeys(o for options in SCHEDULE_OPTIONS.values() for o in options))
_TRAIN_DEFAULTS = {"stepsize": 2000, "decay": 0.99}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclic-ppo",
        description="Cyclical learning-rate schedules driving a from-scratch PPO trainer.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one agent with one schedule")
    p_train.add_argument("--env", required=True, choices=ENV_IDS)
    p_train.add_argument("--schedule", required=True, choices=SCHEDULE_OPTIONS,
                         help="; ".join(f"{kind} takes {', '.join(map(_flag, options))}"
                                        for kind, options in SCHEDULE_OPTIONS.items()))
    p_train.add_argument("--lr", type=float, help="fixed learning rate (constant schedule)")
    p_train.add_argument("--lr-min", type=float, help="lower LR bound (cyclical schedules)")
    p_train.add_argument("--lr-max", type=float, help="upper LR bound (cyclical schedules)")
    p_train.add_argument("--stepsize", type=int, help="updates per half-cycle "
                         f"(cyclical schedules, default {_TRAIN_DEFAULTS['stepsize']})")
    p_train.add_argument("--decay", type=float, help="per-cycle bound decay "
                         f"(exp_range, default {_TRAIN_DEFAULTS['decay']})")
    p_train.add_argument("--cycle-momentum", action="store_true",
                         help="counter-cycle optimizer momentum between 1.0 and 0.8 (needs a "
                              "cyclical schedule with --lr-min < --lr-max); without it every "
                              "update applies ppo.fixed_momentum, 0.9 by default")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--total-steps", type=int, required=True)
    p_train.add_argument("--out", required=True, help="output RunLog CSV path")

    p_exp = sub.add_parser("experiment", help="run a multi-arm, multi-seed comparison")
    p_exp.add_argument("--config", required=True,
                       help="config file path, or the built-in 'paper-general'")
    p_exp.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="a config line, parsed after the lines of the config file or "
                            "of the built-in paper-general text, so a later assignment of "
                            "KEY wins (repeatable)")

    p_lrf = sub.add_parser("lr-find", help="sweep the LR linearly and log the loss")
    p_lrf.add_argument("--env", required=True, choices=ENV_IDS)
    p_lrf.add_argument("--lr-start", type=float, required=True)
    p_lrf.add_argument("--lr-end", type=float, required=True)
    p_lrf.add_argument("--updates", type=int, required=True)
    p_lrf.add_argument("--seed", type=int, default=0)
    p_lrf.add_argument("--out", required=True, help="output curve CSV path")

    p_plot = sub.add_parser("plot", help="render an SVG from run logs")
    p_plot.add_argument("--kind", required=True, choices=PLOT_KINDS)
    p_plot.add_argument("--in", dest="inputs", nargs="+", required=True,
                        help="input CSV file(s)")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    return parser


def _cmd_train(args) -> int:
    options = SCHEDULE_OPTIONS[args.schedule]
    given = {o: getattr(args, o) for o in _SCHEDULE_FLAGS if getattr(args, o) is not None}
    extra = [o for o in given if o not in options]
    if extra:
        raise OptionError(extra[0], f"the {args.schedule} schedule takes only "
                                    f"{', '.join(map(_flag, options))}")
    values = {**_TRAIN_DEFAULTS, **given}
    missing = [_flag(option) for option in options if option not in values]
    if missing:
        raise ConfigError(f"{args.schedule} schedule needs {' and '.join(missing)}")
    schedule = getattr(SchedulePolicy, args.schedule)(*(values[o] for o in options))
    arm = Arm(args.schedule, schedule, MomentumCycle() if args.cycle_momentum else None)
    run = RunSpec(args.env, arm, default_ppo_config(args.env), args.seed, args.total_steps)
    check_writable(args.out)  # so that a bad --out fails before the run, not after it
    log = run.train()
    write_runlog(log, args.out)
    episodes = log.episode_rewards()
    last = f", last episode reward {episodes[-1][1]:g}" if episodes else ""
    status = "diverged" if log.diverged else "finished"
    # train runs whole updates, so it can run more steps than were asked for
    steps = log.rows[-1].env_step if log.rows else 0
    print(f"{status}: {len(episodes)} episodes over {steps} steps{last}")
    print(f"wrote {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config, args.overrides)
    result = run_experiment(config, progress=_print_run)
    for err in result.errors:
        print(f"error in {err.run_id}: {err.message}", file=sys.stderr)
    print(f"wrote {len(result.log_paths)} run logs to {config.out_dir}")
    return 1 if result.errors else 0


def _print_run(log) -> None:
    _, means = smoothed_rewards(log)
    summary = (f"{len(means)} episodes, trailing-{REWARD_SMOOTHING_EPISODES} mean reward "
               f"{means[-1]:.1f}" if means else "no episode ended")
    status = " [diverged]" if log.diverged else ""
    print(f"{log.run_id}: {summary}{status}")


def _cmd_lr_find(args) -> int:
    check_writable(args.out)
    result = lr_find(args.env, args.lr_start, args.lr_end, args.updates, args.seed)
    write_lr_curve(result, args.out)
    status = "diverged" if result.diverged else "completed"
    print(f"lr-find {status} after {len(result.points)} updates")
    print(f"wrote {args.out}")
    return 0


def _cmd_plot(args) -> int:
    emit_plot(args.inputs, args.kind, args.out)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "experiment": _cmd_experiment,
    "lr-find": _cmd_lr_find,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OptionError as exc:  # a run or schedule value, named by its flag
        print(f"error: {_flag(exc.option)}: {exc.reason}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError and RunLogFormatError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
