import errno
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import cyclic_ppo
from cyclic_ppo import harness, ppo
from cyclic_ppo.cli import main
from cyclic_ppo.runlog import read_lr_curve, read_runlog

CHAIN_CONFIG = """
env = chain
seeds = 1
total_steps = 64
arm.fixed.schedule = constant
arm.fixed.lr = 0.001
ppo.rollout_steps = 16
ppo.n_envs = 2
ppo.minibatch_size = 16
ppo.update_epochs = 2
"""


def test_train_subcommand(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["train", "--env", "chain", "--schedule", "triangular",
                 "--lr-min", "1e-4", "--lr-max", "1e-2", "--stepsize", "4",
                 "--cycle-momentum", "--seed", "3", "--total-steps", "64",
                 "--out", str(out)])
    assert code == 0
    log = read_runlog(out)
    assert log.seed == 3 and log.arm == "triangular"
    assert "wrote" in capsys.readouterr().out


def test_train_reports_the_steps_it_ran(tmp_path, capsys):
    """Training runs whole 2048-step updates, so 64 requested steps run 2048."""
    out = tmp_path / "run.csv"
    assert main(["train", "--env", "chain", "--schedule", "constant", "--lr", "1e-3",
                 "--total-steps", "64", "--out", str(out)]) == 0
    printed = re.search(r"over (\d+) steps", capsys.readouterr().out)
    assert int(printed.group(1)) == read_runlog(out).rows[-1].env_step == 2048


def test_train_underflowing_cycling_bounds_fail_before_any_update(tmp_path, capsys):
    """Chain runs 2048 steps per update, so 20000 steps make 10 updates, and times 1e-300 per
    cycle the bounds of cycle 2, from update 4 at stepsize 1, are 0 == 0."""
    out = tmp_path / "r.csv"
    assert main(["train", "--env", "chain", "--schedule", "exp_range", "--lr-min", "1e-4",
                 "--lr-max", "1e-2", "--stepsize", "1", "--decay", "1e-300",
                 "--cycle-momentum", "--total-steps", "20000", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: arm 'exp_range': momentum cycling needs lr_min < lr_max in every cycle, "
        "but with decay 1e-300 they are equal from update 4\n")
    assert not out.exists()


def test_an_out_path_under_a_regular_file_is_an_io_error(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(TRAIN_CONSTANT + ["--out", str(afile / "r.csv")]) == 1
    assert capsys.readouterr().err.startswith("i/o error: ")
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(CHAIN_CONFIG + f"out_dir = {afile / 'runs'}\n")
    assert main(["experiment", "--config", str(config_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("i/o error: ")
    assert captured.out == ""  # no run trained: each finished run prints a line


def test_an_out_path_that_cannot_be_written_fails_before_any_update(tmp_path, capsys,
                                                                    monkeypatch,
                                                                    tmp_path_factory):
    def no_update(*args, **kwargs):
        raise AssertionError("an update ran")

    monkeypatch.setattr(ppo, "train", no_update)
    monkeypatch.setattr(harness, "run_updates", no_update)
    afile = tmp_path / "afile"
    afile.write_text("")
    (tmp_path / "adir").mkdir()
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(CHAIN_CONFIG + f"out_dir = {afile / 'runs'}\n")
    not_a_dir, is_a_dir = os.strerror(errno.ENOTDIR), os.strerror(errno.EISDIR)
    too_long, missing = os.strerror(errno.ENAMETOOLONG), os.strerror(errno.ENOENT)
    dangling = tmp_path_factory.mktemp("links") / "dangling"  # outside the listing below
    dangling.symlink_to(dangling.parent / "nowhere")
    long_arm = "a" * 300  # its run log's name is longer than a file name may be
    bad_log = tmp_path_factory.mktemp("inputs") / "bad.csv"  # read it, and exit 2, not 1
    bad_log.write_text("not a run log\n")
    plot = ["plot", "--kind", "reward", "--in", str(bad_log)]
    for argv, reason in ((TRAIN_CONSTANT + ["--out", str(afile / "r.csv")], not_a_dir),
                         (TRAIN_CONSTANT + ["--out", str(tmp_path / "adir")], is_a_dir),
                         (LR_FIND + ["--out", str(afile / "c.csv")], not_a_dir),
                         (["experiment", "--config", str(config_path)], not_a_dir),
                         (TRAIN_CONSTANT + ["--out", str(dangling / "r.csv")], not_a_dir),
                         (TRAIN_CONSTANT + ["--out", str(tmp_path / "sub") + os.sep], is_a_dir),
                         (["experiment", "--config", str(config_path),
                           "--set", f"out_dir = {tmp_path / 'adir'}",
                           "--set", f"arm.{long_arm}.schedule = constant",
                           "--set", f"arm.{long_arm}.lr = 1e-3"], too_long),
                         (TRAIN_CONSTANT + ["--out", ""], missing),
                         (LR_FIND + ["--out", ""], missing),
                         (plot + ["--out", str(tmp_path / "adir")], is_a_dir),
                         (plot + ["--out", ""], missing)):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("i/o error: ") and reason in captured.err
        assert captured.out == ""
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "afile", "exp.cfg"]


def test_train_validation_failure(tmp_path, capsys):
    code = main(["train", "--env", "chain", "--schedule", "constant",
                 "--seed", "0", "--total-steps", "64",
                 "--out", str(tmp_path / "x.csv")])  # missing --lr
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_train_names_exactly_the_missing_flags(tmp_path, capsys):
    code = main(["train", "--env", "chain", "--schedule", "triangular", "--lr-min", "1e-4",
                 "--total-steps", "64", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "--lr-max" in err and "--lr-min" not in err


TRAIN_CONSTANT = ["train", "--env", "chain", "--schedule", "constant", "--lr", "1e-3",
                  "--total-steps", "64"]
TRAIN_CYCLICAL = ["train", "--env", "chain", "--lr-min", "1e-4", "--lr-max", "1e-2",
                  "--total-steps", "64"]
LR_FIND = ["lr-find", "--env", "chain", "--lr-start", "1e-5", "--lr-end", "1e-4", "--updates", "2"]


# argparse keeps the last value of a repeated flag, so each case overrides one
@pytest.mark.parametrize("argv, flag", [
    (TRAIN_CONSTANT + ["--total-steps", "0"], "--total-steps"),
    (TRAIN_CONSTANT + ["--total-steps", "-5"], "--total-steps"),
    (TRAIN_CONSTANT + ["--seed", "-1"], "--seed"),
    (TRAIN_CONSTANT + ["--lr", "0"], "--lr"),
    (TRAIN_CYCLICAL + ["--schedule", "triangular", "--stepsize", "0"], "--stepsize"),
    (TRAIN_CYCLICAL + ["--schedule", "exp_range", "--decay", "1.5"], "--decay"),
    (TRAIN_CYCLICAL + ["--schedule", "triangular", "--lr-max", "inf"], "--lr-max"),
    (TRAIN_CONSTANT + ["--lr-min", "7", "--lr-max", "5"], "--lr-min"),
    (TRAIN_CONSTANT + ["--stepsize", "4"], "--stepsize"),
    (TRAIN_CONSTANT + ["--lr-max", "5"], "--lr-max"),
    (TRAIN_CYCLICAL + ["--schedule", "triangular", "--lr", "3"], "--lr"),
    (TRAIN_CYCLICAL + ["--schedule", "triangular", "--decay", "0.5"], "--decay"),
    (LR_FIND + ["--seed", "-1"], "--seed"),
    (LR_FIND + ["--lr-end", "inf"], "--lr-end"),
    (LR_FIND + ["--lr-end", "1e-5"], "--lr-end"),
    (LR_FIND + ["--lr-start", "0"], "--lr-start"),
    (LR_FIND + ["--updates", "1"], "--updates"),
], ids=["train_total_steps_zero", "train_total_steps_negative", "train_seed_negative",
        "train_lr_zero", "train_stepsize_zero", "train_decay_above_one", "train_lr_max_inf",
        "train_constant_given_lr_bounds", "train_constant_given_stepsize",
        "train_constant_given_lr_max",
        "train_triangular_given_lr", "train_triangular_given_decay",
        "lr_find_seed_negative", "lr_find_lr_end_inf", "lr_find_lr_end_not_above_start",
        "lr_find_lr_start_zero", "lr_find_updates_one"])
def test_a_bad_run_value_fails_at_its_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert not out.exists()


def test_experiment_subcommand(tmp_path, capsys):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(CHAIN_CONFIG + f"out_dir = {tmp_path / 'runs'}\n")
    code = main(["experiment", "--config", str(config_path)])
    assert code == 0
    assert (tmp_path / "runs" / "fixed_seed1.csv").exists()
    assert "1 run logs" in capsys.readouterr().out


def test_experiment_with_overrides(tmp_path):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(CHAIN_CONFIG)
    code = main(["experiment", "--config", str(config_path),
                 "--set", f"out_dir = {tmp_path / 'other'}", "--set", "seeds = 7"])
    assert code == 0
    assert (tmp_path / "other" / "fixed_seed7.csv").exists()


def test_experiment_says_when_no_episode_ended(tmp_path, capsys):
    """64 pendulum steps end none of its 200-step episodes."""
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(CHAIN_CONFIG.replace("env = chain", "env = pendulum")
                           + f"out_dir = {tmp_path / 'runs'}\n")
    assert main(["experiment", "--config", str(config_path)]) == 0
    assert "fixed_seed1: no episode ended\n" in capsys.readouterr().out


def test_experiment_missing_config(tmp_path, capsys):
    assert main(["experiment", "--config", str(tmp_path / "ghost.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_lr_find_subcommand(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(["lr-find", "--env", "chain", "--lr-start", "1e-5",
                 "--lr-end", "1e-4", "--updates", "2", "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    assert len(read_lr_curve(out).points) == 2


def test_lr_find_bad_range(tmp_path):
    assert main(["lr-find", "--env", "chain", "--lr-start", "1e-3",
                 "--lr-end", "1e-3", "--updates", "5", "--seed", "0",
                 "--out", str(tmp_path / "c.csv")]) == 2


def test_plot_subcommand(tmp_path):
    run_path = tmp_path / "run.csv"
    assert main(["train", "--env", "chain", "--schedule", "constant", "--lr", "1e-3",
                 "--seed", "0", "--total-steps", "64", "--out", str(run_path)]) == 0
    svg_path = tmp_path / "reward.svg"
    assert main(["plot", "--kind", "reward", "--in", str(run_path),
                 "--out", str(svg_path)]) == 0
    ET.parse(svg_path)


def test_plot_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nonsense\n")
    assert main(["plot", "--kind", "reward", "--in", str(bad),
                 "--out", str(tmp_path / "o.svg")]) == 2
    assert "bad.csv" in capsys.readouterr().err


def test_plot_lrfind_rejects_a_rate_without_log10(tmp_path, capsys):
    curve = tmp_path / "zero.csv"
    curve.write_text("# diverged=false\nlr,total_loss\n0.0,1.5\n0.001,1.25\n")
    assert main(["plot", "--kind", "lrfind", "--in", str(curve),
                 "--out", str(tmp_path / "o.svg")]) == 2
    assert "zero.csv" in capsys.readouterr().err


def test_plot_rejects_an_axis_wider_than_the_largest_float(tmp_path, capsys):
    curve = tmp_path / "wide.csv"
    curve.write_text("# diverged=false\nlr,total_loss\n0.001,-1e308\n0.01,1e308\n")
    assert main(["plot", "--kind", "lrfind", "--in", str(curve),
                 "--out", str(tmp_path / "o.svg")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("losses", [(0.0, 5e-324), (0.0, 2e-323),
                                    (1e-310, 1.00000000000005e-310)])
def test_plot_lrfind_of_losses_a_few_subnormals_apart(tmp_path, losses):
    """The padding of such a span underflows to 0, which left the axis no width."""
    curve = tmp_path / "subnormal.csv"
    curve.write_text(f"# diverged=false\nlr,total_loss\n0.001,{losses[0]!r}\n"
                     f"0.01,{losses[1]!r}\n")
    out = tmp_path / "o.svg"
    assert main(["plot", "--kind", "lrfind", "--in", str(curve), "--out", str(out)]) == 0
    ET.parse(out)


# The command in a child limited to 512 MB of address space, so a tick loop that never
# ends fails fast with MemoryError (or the timeout) instead of filling memory.
_MAIN_IN_512_MB = """
import resource, sys
from cyclic_ppo.cli import main
resource.setrlimit(resource.RLIMIT_AS, (512 * 2 ** 20, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(sys.argv[1:]))
"""


def test_plot_lrfind_of_losses_one_ulp_apart(tmp_path):
    """The tick step of such an axis is below its values' resolution, so adding it never
    reached the axis end."""
    curve = tmp_path / "ulp.csv"
    curve.write_text("# diverged=false\nlr,total_loss\n0.001,1.0\n0.01,1.0000000000000002\n")
    out = tmp_path / "o.svg"
    package_dir = os.path.dirname(os.path.dirname(cyclic_ppo.__file__))  # src/ or installed
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=package_dir)
    done = subprocess.run([sys.executable, "-c", _MAIN_IN_512_MB, "plot", "--kind", "lrfind",
                           "--in", str(curve), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-500:]
    ET.parse(out)


def test_a_diverging_train_run_exits_0_and_writes_nothing_to_stderr(tmp_path):
    """Divergence is an outcome the command prints, not a numpy warning on stderr."""
    package_dir = os.path.dirname(os.path.dirname(cyclic_ppo.__file__))  # src/ or installed
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=package_dir, PYTHONWARNINGS="default")
    done = subprocess.run([sys.executable, "-m", "cyclic_ppo.cli", "train", "--env", "pendulum",
                           "--schedule", "constant", "--lr", "1e300", "--total-steps", "4096",
                           "--out", str(tmp_path / "r.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert "diverged" in done.stdout


def test_experiment_with_a_flat_cycling_arm_writes_no_run_log(tmp_path, capsys):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(CHAIN_CONFIG + f"out_dir = {tmp_path / 'runs'}\n"
                           "arm.flat.schedule = triangular\narm.flat.lr_min = 1e-3\n"
                           "arm.flat.lr_max = 1e-3\narm.flat.stepsize = 4\n"
                           "arm.flat.cycle_momentum = true\n")
    assert main(["experiment", "--config", str(config_path)]) == 2
    assert "arm 'flat'" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("override", ["ppo.adam_beta2 = 1.0", "ppo.hidden_sizes = 64,0,64",
                                      "seeds = 1, -1", "seeds = 1, 1", "out_dir = "])
def test_experiment_with_a_bad_ppo_value_writes_no_run_log(tmp_path, capsys, override):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(CHAIN_CONFIG + f"out_dir = {tmp_path / 'runs'}\n")
    assert main(["experiment", "--config", str(config_path), "--set", override]) == 2
    key = override.split(" = ")[0]
    assert capsys.readouterr().err.startswith(f"error: <cli overrides>:1: {key}: ")
    assert not (tmp_path / "runs").exists()


def test_plot_schedule_of_one_log_and_of_one_log_per_preset(tmp_path):
    """4096 chain steps are 2 updates, so exp_range at stepsize 1 cycles its momentum."""
    presets = {"triangular": ["--lr-min", "1e-4", "--lr-max", "1e-2", "--stepsize", "4",
                              "--cycle-momentum"],
               "constant": ["--lr", "1e-3"],
               "exp_range": ["--lr-min", "1e-4", "--lr-max", "1e-2", "--stepsize", "1",
                             "--decay", "0.9", "--cycle-momentum"]}
    logs = [str(tmp_path / f"{schedule}.csv") for schedule in presets]
    for (schedule, flags), out in zip(presets.items(), logs):
        assert main(["train", "--env", "chain", "--schedule", schedule, *flags,
                     "--total-steps", "4096", "--out", out]) == 0
        assert read_runlog(out).arm == schedule
    for inputs in (logs[:1], logs):
        svg = tmp_path / f"schedule{len(inputs)}.svg"
        assert main(["plot", "--kind", "schedule", "--in", *inputs, "--out", str(svg)]) == 0
        ET.parse(svg)


PAPER_GENERAL_ARMS = ["triangular", "exp_range", "constant"]


@pytest.mark.parametrize("overrides, arms", [
    ([], PAPER_GENERAL_ARMS),
    (["env = pendulum", "ppo.hidden_sizes = "], PAPER_GENERAL_ARMS),
    (["arm.a&b.schedule = constant", "arm.a&b.lr = 1e-3"], PAPER_GENERAL_ARMS + ["a&b"]),
], ids=["chain", "pendulum_without_hidden_layers", "arm_name_with_markup"])
def test_paper_general_with_overrides_writes_a_log_per_arm_and_plots(tmp_path, overrides,
                                                                      arms):
    """The README's experiment, then a reward chart with one legend label per arm."""
    out_dir = tmp_path / "pg"
    tiny = ["env = chain", "seeds = 1", "total_steps = 64", f"out_dir = {out_dir}",
            "ppo.rollout_steps = 16", "ppo.n_envs = 2", "ppo.minibatch_size = 16",
            "ppo.update_epochs = 2"]
    argv = ["experiment", "--config", "paper-general"]
    for line in tiny + overrides:
        argv += ["--set", line]
    assert main(argv) == 0
    logs = [str(out_dir / f"{arm}_seed1.csv") for arm in arms]
    assert sorted(os.listdir(out_dir)) == sorted(os.path.basename(log) for log in logs)
    svg = tmp_path / "reward.svg"
    assert main(["plot", "--kind", "reward", "--in", *logs, "--out", str(svg)]) == 0
    ET.parse(svg)


def test_an_arm_name_with_a_slash_fails_the_config_and_writes_nothing(tmp_path, capsys):
    """Run logs are <out_dir>/<arm>_seed<k>.csv, so an absolute name would escape out_dir."""
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(CHAIN_CONFIG + f"out_dir = {tmp_path / 'runs'}\n")
    name = f"{tmp_path}/escaped/x"
    assert main(["experiment", "--config", str(config_path),
                 "--set", f"arm.{name}.schedule = constant",
                 "--set", f"arm.{name}.lr = 1e-3"]) == 2
    assert capsys.readouterr().err.startswith(f"error: <cli overrides>:1: arm.{name}.schedule: ")
    assert os.listdir(tmp_path) == ["exp.cfg"]
