"""Command-line interface: train, experiment, lr-find, plot.

Exit code 0 on success, 2 on validation errors, 1 on I/O failure.
Divergence during training is a reported outcome, not a failure exit.
"""
from __future__ import annotations

import argparse
import sys

from .envs import ENV_IDS
from .harness import (ConfigError, apply_overrides, default_ppo_config, load_config,
                      lr_find, run_experiment)
from .plots import PLOT_KINDS, emit_plot
from .ppo import train
from .runlog import RunLogFormatError, write_lr_curve, write_runlog
from .schedule import CONSTANT, EXP_RANGE, KINDS, TRIANGULAR, MomentumCycle, SchedulePolicy


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclic-ppo",
        description="Cyclical learning-rate schedules driving a from-scratch PPO trainer.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one agent with one schedule")
    p_train.add_argument("--env", required=True, choices=ENV_IDS)
    p_train.add_argument("--schedule", required=True, choices=KINDS)
    p_train.add_argument("--lr", type=float, help="fixed learning rate (constant schedule)")
    p_train.add_argument("--lr-min", type=float, help="lower LR bound (cyclical schedules)")
    p_train.add_argument("--lr-max", type=float, help="upper LR bound (cyclical schedules)")
    p_train.add_argument("--stepsize", type=int, default=2000,
                         help="updates per half-cycle (default 2000)")
    p_train.add_argument("--decay", type=float, default=0.99,
                         help="per-cycle bound decay (exp_range, default 0.99)")
    p_train.add_argument("--cycle-momentum", action="store_true",
                         help="counter-cycle optimizer momentum between 1.0 and 0.8")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--total-steps", type=int, required=True)
    p_train.add_argument("--out", required=True, help="output RunLog CSV path")

    p_exp = sub.add_parser("experiment", help="run a multi-arm, multi-seed comparison")
    p_exp.add_argument("--config", required=True,
                       help="config file path, or the built-in 'paper-general'")
    p_exp.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (repeatable)")

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


def _schedule_from_args(args) -> SchedulePolicy:
    if args.schedule == CONSTANT:
        if args.lr is None:
            raise ConfigError("constant schedule needs --lr")
        return SchedulePolicy.constant(args.lr)
    if args.lr_min is None or args.lr_max is None:
        raise ConfigError(f"{args.schedule} schedule needs --lr-min and --lr-max")
    if args.schedule == TRIANGULAR:
        return SchedulePolicy.triangular(args.lr_min, args.lr_max, args.stepsize)
    return SchedulePolicy.exp_range(args.lr_min, args.lr_max, args.stepsize, args.decay)


def _cmd_train(args) -> int:
    schedule = _schedule_from_args(args)
    cycle = MomentumCycle() if args.cycle_momentum else MomentumCycle.disabled()
    config = default_ppo_config(args.env)
    log = train(args.env, schedule, cycle, config, seed=args.seed,
                total_steps=args.total_steps)
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
    config = apply_overrides(load_config(args.config), args.overrides)
    result = run_experiment(config, progress=_print_run)
    for err in result.errors:
        print(f"error in {err.run_id}: {err.message}", file=sys.stderr)
    print(f"wrote {len(result.log_paths)} run logs to {config.out_dir}")
    return 1 if result.errors else 0


def _print_run(log) -> None:
    episodes = log.episode_rewards()
    tail = [r for _, r in episodes[-20:]]
    mean = sum(tail) / len(tail) if tail else float("nan")
    status = " [diverged]" if log.diverged else ""
    print(f"{log.run_id}: {len(episodes)} episodes, "
          f"trailing-20 mean reward {mean:.1f}{status}")


def _cmd_lr_find(args) -> int:
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
    except (ConfigError, RunLogFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
