import hashlib

import numpy as np
import pytest

from cyclic_ppo.harness import (Arm, ConfigError, ExperimentConfig, apply_overrides,
                                default_ppo_config, dump_config_text, load_config, lr_find,
                                paper_general_config, parse_config_text, run_experiment)
from cyclic_ppo.runlog import (LrFindResult, RunLogFormatError, dump_lr_curve, read_lr_curve,
                               read_runlog, write_lr_curve)
from cyclic_ppo.schedule import MomentumCycle, SchedulePolicy

TINY_PPO = {"rollout_steps": 16, "n_envs": 2, "minibatch_size": 16, "update_epochs": 2}

CHAIN_CONFIG = """
# three-way comparison on the tabular chain
env = chain
seeds = 1, 2
total_steps = 96
out_dir = runs/test

arm.tri.schedule = triangular
arm.tri.lr_min = 0.0001
arm.tri.lr_max = 0.01
arm.tri.stepsize = 4
arm.tri.cycle_momentum = true

arm.fixed.schedule = constant
arm.fixed.lr = 0.001

ppo.rollout_steps = 16
ppo.n_envs = 2
ppo.minibatch_size = 16
ppo.update_epochs = 2
"""


def test_parse_config_happy_path():
    config = parse_config_text(CHAIN_CONFIG)
    assert config.env_id == "chain"
    assert config.seeds == [1, 2]
    assert config.total_steps == 96
    assert [a.name for a in config.arms] == ["tri", "fixed"]
    assert config.arms[0].schedule.kind == "triangular"
    assert config.arms[0].momentum_cycle.enabled
    assert config.arms[1].schedule.eta_fixed == 0.001
    assert not config.arms[1].momentum_cycle.enabled
    assert config.ppo_overrides["rollout_steps"] == 16


def test_parse_config_roundtrip_through_dump():
    config = parse_config_text(CHAIN_CONFIG)
    assert parse_config_text(dump_config_text(config)) == config


@pytest.mark.parametrize("broken, fragment", [
    ("env = chain\nseeds = 1\n", "total_steps"),
    ("env = chain\ntotal_steps = 10\n", "seeds"),
    ("env = chain\nseeds = 1\ntotal_steps = 10\nbogus = 1\n", "unknown key"),
    ("env = chain\nseeds = 1\ntotal_steps = 10\narm.a.lr = 1\n", "schedule"),
    ("env = chain\nseeds = 1\ntotal_steps = 10\narm.a.schedule = wavy\n", "wavy"),
    ("env = mars\nseeds = 1\ntotal_steps = 10\narm.a.schedule = constant\narm.a.lr = 1\n",
     "unknown env"),
    ("env = chain\nseeds = 1\ntotal_steps = 10\nno equals sign here\n", "key = value"),
    ("env = chain\nseeds = 1\ntotal_steps = 10\n"
     "arm.a.schedule = constant\narm.a.lr = 0.001\narm.a.cycle_momentum = true\n",
     "cyclical"),
])
def test_parse_config_errors(broken, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config_text(broken)
    assert fragment in str(err.value)


def test_experiment_config_validation():
    arm = Arm("a", SchedulePolicy.constant(1e-3), MomentumCycle.disabled())
    with pytest.raises(ConfigError):
        ExperimentConfig(env_id="chain", arms=[], seeds=[1], total_steps=10)
    with pytest.raises(ConfigError):
        ExperimentConfig(env_id="chain", arms=[arm], seeds=[], total_steps=10)
    with pytest.raises(ConfigError):
        ExperimentConfig(env_id="chain", arms=[arm, arm], seeds=[1], total_steps=10)


def test_paper_general_arms():
    config = paper_general_config()
    by_name = {arm.name: arm for arm in config.arms}
    assert set(by_name) == {"triangular", "exp_range", "constant"}
    tri = by_name["triangular"].schedule
    assert (tri.eta_min_0, tri.eta_max_0, tri.stepsize) == (1e-4, 1e-2, 2000)
    exp = by_name["exp_range"].schedule
    assert exp.decay == 0.99
    assert by_name["constant"].schedule.eta_fixed == 1e-3
    for name in ("triangular", "exp_range"):
        cycle = by_name[name].momentum_cycle
        assert cycle.enabled and (cycle.m_min, cycle.m_max) == (0.8, 1.0)
    assert not by_name["constant"].momentum_cycle.enabled


def test_default_ppo_config_profiles():
    cart = default_ppo_config("cartpole")
    assert (cart.rollout_steps, cart.n_envs, cart.entropy_coef) == (128, 8, 0.0)
    pend = default_ppo_config("pendulum")
    assert (pend.rollout_steps, pend.n_envs, pend.entropy_coef) == (2048, 1, 0.01)
    with pytest.raises(ConfigError):
        default_ppo_config("cartpole", {"warp_drive": 1})


def test_load_config_builtin_and_missing(tmp_path):
    assert load_config("paper-general").env_id == "cartpole"
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.cfg"))


def test_apply_overrides():
    config = parse_config_text(CHAIN_CONFIG)
    overridden = apply_overrides(config, ["total_steps = 128", "seeds = 5"])
    assert overridden.total_steps == 128
    assert overridden.seeds == [5]
    assert overridden.arms == config.arms


def test_run_experiment_matrix(tmp_path):
    config = parse_config_text(CHAIN_CONFIG)
    config.out_dir = str(tmp_path / "runs")
    result = run_experiment(config)
    assert result.errors == []
    assert len(result.log_paths) == len(config.arms) * len(config.seeds)
    for path in result.log_paths:
        log = read_runlog(path)
        assert log.rows
        assert log.seed in config.seeds
        assert log.arm in {"tri", "fixed"}


def test_run_experiment_rerun_byte_identical(tmp_path):
    config = parse_config_text(CHAIN_CONFIG)
    payloads = []
    for attempt in range(2):
        config.out_dir = str(tmp_path / f"runs{attempt}")
        result = run_experiment(config)
        payloads.append([open(p, "rb").read() for p in sorted(result.log_paths)])
    assert payloads[0] == payloads[1]


def test_run_experiment_reports_io_error(tmp_path, monkeypatch):
    import cyclic_ppo.harness as harness_module
    config = parse_config_text(CHAIN_CONFIG)
    config.seeds = [1]
    config.out_dir = str(tmp_path / "runs")
    calls = []

    def flaky_write(log, path):
        calls.append(path)
        if len(calls) == 1:
            raise OSError("disk full")

    monkeypatch.setattr(harness_module, "write_runlog", flaky_write)
    result = run_experiment(config)
    assert len(result.errors) == 1 and "disk full" in result.errors[0].message
    assert len(calls) == 2  # the second run still executed


# ---------------------------------------------------------------------------
# LR finder

def test_lr_find_rejects_degenerate_range():
    with pytest.raises(ConfigError):
        lr_find("chain", 1e-3, 1e-3, 10, seed=0)
    with pytest.raises(ConfigError):
        lr_find("chain", 1e-3, 1e-2, 1, seed=0)


def test_lr_find_two_points_at_endpoints():
    result = lr_find("chain", 1e-5, 1e-4, 2, seed=0, ppo_overrides=TINY_PPO)
    assert len(result.points) == 2
    assert result.points[0][0] == 1e-5
    assert result.points[1][0] == 1e-4
    assert all(np.isfinite(loss) for _, loss in result.points)


# sha256 of dump_lr_curve(lr_find(...)) for each way a sweep can end, pinned
# with numpy 2.4.6 on scipy-openblas 0.3.31 and OPENBLAS_NUM_THREADS=1.
PINNED_LR_CURVE_SHA256 = {
    # completes: every LR of the sweep is applied
    ("chain", 1e-5, 1e-4, 2, 0, True):
        "e962f94e675855969ce69458e96c3cacbed3f0100f7d7752dbc68b3d0a4e22f2",
    # the loss passes 4x its initial magnitude and the KL passes 1.0 on update 2
    ("chain", 1e-3, 10.0, 8, 0, True):
        "1eeba32c85d9e08a442c8c75533b4184cec4c41e7f7a223c456e6d078516e22a",
    # only the 4x loss rule stops the sweep, on its last update
    ("chain", 1e-3, 0.3, 8, 1, True):
        "9041aac2a517c6bab3c92d81249fec10bede135d01a42253516846f2bec3715e",
    # only the KL rule stops the sweep, after 7 updates
    ("pendulum", 1e-5, 1e-1, 12, 3, False):
        "bef19d62defe51430c718d0c43a4c91be999b656520ee31eb7114982204aa90d",
    # the KL rule stops the sweep on update 1, whose loss (3e202) is still finite
    ("chain", 1e100, 1e300, 4, 0, True):
        "c84860b2fd52978a2525124549bebe6f0b2bd8004de7a6c0f422dc210b590ab2",
    # update 1 raises DivergenceError: its loss is recorded as inf
    ("chain", 1e300, 1e308, 4, 0, True):
        "93cc26448acfadd916b1e88ed0e09bc8042bdfc632979e46d4e8f92026f2378d",
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("env_id, eta_start, eta_end, n_updates, seed, tiny",
                         sorted(PINNED_LR_CURVE_SHA256))
def test_lr_find_curve_matches_pinned_digest(env_id, eta_start, eta_end, n_updates,
                                             seed, tiny):
    """Any change to what ``lr_find`` computes, or to where it stops, moves a digest."""
    result = lr_find(env_id, eta_start, eta_end, n_updates, seed=seed,
                     ppo_overrides=TINY_PPO if tiny else None)
    digest = hashlib.sha256(dump_lr_curve(result).encode()).hexdigest()
    assert digest == PINNED_LR_CURVE_SHA256[env_id, eta_start, eta_end, n_updates, seed, tiny]


def test_lr_curve_roundtrip(tmp_path):
    result = LrFindResult(points=[(1e-5, 50.25), (1e-4, 12.0)], diverged=True)
    path = tmp_path / "curve.csv"
    write_lr_curve(result, path)
    assert read_lr_curve(path) == result
    assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]  # no temp file left


def test_lr_curve_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("lr,total_loss\n1,2\n")
    with pytest.raises(Exception) as err:
        read_lr_curve(path)
    assert "diverged" in str(err.value)


def test_lr_curve_rejects_diverged_other_than_true_or_false(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("# diverged=maybe\nlr,total_loss\n0.5,1.25\n")
    with pytest.raises(RunLogFormatError) as err:
        read_lr_curve(path)
    assert f"{path}:1" in str(err.value)


def test_dump_lr_curve_format():
    text = dump_lr_curve(LrFindResult(points=[(0.5, 1.25)], diverged=False))
    assert text.splitlines() == ["# diverged=false", "lr,total_loss", "0.5,1.25"]
