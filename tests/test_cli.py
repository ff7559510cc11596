import re
import xml.etree.ElementTree as ET

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


def test_train_validation_failure(tmp_path, capsys):
    code = main(["train", "--env", "chain", "--schedule", "constant",
                 "--seed", "0", "--total-steps", "64",
                 "--out", str(tmp_path / "x.csv")])  # missing --lr
    assert code == 2
    assert "error" in capsys.readouterr().err


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
