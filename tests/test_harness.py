import hashlib
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from cyclic_ppo.harness import (Arm, ConfigError, ExperimentConfig, RunSpec, default_ppo_config,
                                load_config, lr_find, paper_general_config, parse_config_text,
                                run_experiment)
from cyclic_ppo.ppo import PpoConfig
from cyclic_ppo.runlog import (LrFindResult, RunLog, RunLogFormatError, dump_lr_curve,
                               dump_runlog, parse_runlog, read_lr_curve, read_runlog,
                               write_lr_curve)
from cyclic_ppo.schedule import MomentumCycle, OptionError, SchedulePolicy

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
    assert config.arms[0].momentum_cycle is not None
    assert config.arms[1].schedule == SchedulePolicy.constant(0.001)
    assert config.arms[1].momentum_cycle is None
    assert config.ppo.rollout_steps == 16


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
    ("env = chain\nseeds = 1\ntotal_steps = 10\n"
     "arm.a.schedule = triangular\narm.a.lr_min = 1e-4\narm.a.stepsize = 4\n",
     "arm 'a': missing key 'lr_max' for triangular"),
    ("env = chain\nseeds = 1\ntotal_steps = 10\narm..x = 1\n", "arm.<name>.<option>"),
])
def test_parse_config_errors(broken, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config_text(broken)
    assert fragment in str(err.value)


def test_experiment_config_validation():
    arm = Arm("a", SchedulePolicy.constant(1e-3), None)
    with pytest.raises(ConfigError):
        ExperimentConfig(env_id="chain", arms=[], seeds=[1], total_steps=10, ppo=PpoConfig())
    with pytest.raises(OptionError):
        ExperimentConfig(env_id="chain", arms=[arm], seeds=[], total_steps=10, ppo=PpoConfig())
    with pytest.raises(ConfigError):
        ExperimentConfig(env_id="chain", arms=[arm, arm], seeds=[1], total_steps=10,
                         ppo=PpoConfig())
    with pytest.raises(OptionError, match="seed 1 is repeated"):
        ExperimentConfig(env_id="chain", arms=[arm], seeds=[1, 2, 1], total_steps=10,
                         ppo=PpoConfig())
    with pytest.raises(ConfigError, match="arm name must be non-empty"):
        Arm("", SchedulePolicy.constant(1e-3), None)


@pytest.mark.parametrize("name", ["/abs/dir/x", "sub/x"])
def test_an_arm_name_is_one_file_name_component(name):
    """Run logs are <out_dir>/<arm>_seed<k>.csv, so a slash would write outside out_dir."""
    with pytest.raises(ConfigError, match="must be one file-name component"):
        Arm(name, SchedulePolicy.constant(1e-3), None)
    with pytest.raises(ConfigError) as err:
        load_config("paper-general", [f"arm.{name}.schedule = constant", f"arm.{name}.lr = 1e-3"])
    assert str(err.value) == (f"<cli overrides>:1: arm.{name}.schedule: arm name {name!r} "
                              "must be one file-name component")


@pytest.mark.parametrize("name", [" x ", "x ", "a\tb"], ids=["spaced", "trailing", "tab"])
def test_an_arm_name_is_one_printable_header_value(name):
    """A run log's header line reads back stripped, so such a name would not round-trip."""
    with pytest.raises(ConfigError, match="must be printable, without outer spaces"):
        Arm(name, SchedulePolicy.constant(1e-3), None)
    with pytest.raises(ConfigError, match="must be printable"):
        Arm("a\nb", SchedulePolicy.constant(1e-3), None)
    with pytest.raises(ConfigError) as err:
        load_config("paper-general", [f"arm.{name}.schedule = constant", f"arm.{name}.lr = 1e-3"])
    assert str(err.value) == (f"<cli overrides>:1: arm.{name}.schedule: arm name {name!r} "
                              "must be printable, without outer spaces")


def _accepted(name: str) -> bool:
    try:
        Arm(name, SchedulePolicy.constant(1e-3), None)
    except ConfigError:
        return False
    return True


@example(" x")
@example("a\nb")
@given(st.text(min_size=1))
def test_every_accepted_arm_name_round_trips_through_its_run_log(name):
    assume(_accepted(name))
    log = RunLog(run_id=f"{name}_seed1", arm=name, seed=1, env_id="chain")
    back = parse_runlog(dump_runlog(log))
    assert (back.arm, back.run_id) == (log.arm, log.run_id)


@pytest.mark.parametrize("from_override", [False, True])
def test_a_repeated_seed_names_its_line(tmp_path, from_override):
    path = tmp_path / "chain.cfg"
    if from_override:
        path.write_text(CHAIN_CONFIG)
        overrides, where = ["total_steps = 64", "seeds = 1, 1"], "<cli overrides>:2"
    else:
        path.write_text(CHAIN_CONFIG.replace("seeds = 1, 2", "seeds = 3, 1, 2, 1"))
        overrides, where = [], f"{path}:4"
    with pytest.raises(ConfigError) as err:
        load_config(str(path), overrides)
    assert str(err.value) == f"{where}: seeds: seed 1 is repeated"


CONSTANT_ARM = Arm("a", SchedulePolicy.constant(1e-3), None)


@pytest.mark.parametrize("field, value, option", [
    ("env_id", "mars", "env"), ("seed", -1, "seed"),
    ("total_steps", 0, "total_steps"), ("total_steps", -5, "total_steps"),
])
def test_run_spec_names_its_bad_value(field, value, option):
    values = dict(env_id="chain", arm=CONSTANT_ARM, ppo=PpoConfig(), seed=1, total_steps=10)
    with pytest.raises(OptionError) as err:
        RunSpec(**{**values, field: value})
    assert err.value.option == option


def test_run_spec_survives_a_pickle_round_trip():
    run = paper_general_config("chain").runs()[0]
    assert pickle.loads(pickle.dumps(run)) == run


def test_runs_list_each_arm_by_seed_in_run_experiment_order(monkeypatch, tmp_path):
    import cyclic_ppo.harness as harness_module
    config = paper_general_config("chain")
    config.out_dir = str(tmp_path)
    trained = []

    def fake_train(env_id, schedule, momentum_cycle, ppo_config, seed, total_steps, arm):
        trained.append(RunSpec(env_id, Arm(arm, schedule, momentum_cycle), ppo_config, seed,
                               total_steps))
        return RunLog(run_id=f"{arm}_seed{seed}", arm=arm, seed=seed, env_id=env_id)

    monkeypatch.setattr(harness_module.ppo, "train", fake_train)
    monkeypatch.setattr(harness_module, "write_runlog", lambda log, path: None)
    runs = config.runs()
    assert [(run.arm.name, run.seed) for run in runs] == [
        (arm, seed) for arm in ("triangular", "exp_range", "constant") for seed in (1, 2, 3)]
    assert len(run_experiment(config).log_paths) == 9
    assert trained == runs


def test_paper_general_arms():
    config = paper_general_config()
    by_name = {arm.name: arm for arm in config.arms}
    assert set(by_name) == {"triangular", "exp_range", "constant"}
    tri = by_name["triangular"].schedule
    assert (tri.eta_min_0, tri.eta_max_0, tri.stepsize) == (1e-4, 1e-2, 2000)
    exp = by_name["exp_range"].schedule
    assert exp.decay == 0.99
    assert by_name["constant"].schedule == SchedulePolicy.constant(1e-3)
    for name in ("triangular", "exp_range"):
        cycle = by_name[name].momentum_cycle
        assert cycle is not None and (cycle.m_min, cycle.m_max) == (0.8, 1.0)
    assert by_name["constant"].momentum_cycle is None


def test_default_ppo_config_profiles():
    cart = default_ppo_config("cartpole")
    assert (cart.rollout_steps, cart.n_envs, cart.entropy_coef) == (128, 8, 0.0)
    pend = default_ppo_config("pendulum")
    assert (pend.rollout_steps, pend.n_envs, pend.entropy_coef) == (2048, 1, 0.01)
    assert default_ppo_config("pendulum") == default_ppo_config("chain") == PpoConfig()
    with pytest.raises(ConfigError):
        default_ppo_config("cartpole", {"warp_drive": 1})


def test_load_config_builtin_and_missing(tmp_path):
    assert load_config("paper-general").env_id == "cartpole"
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.cfg"))


def test_apply_overrides(tmp_path):
    path = tmp_path / "chain.cfg"
    path.write_text(CHAIN_CONFIG)
    config = parse_config_text(CHAIN_CONFIG)
    overridden = load_config(str(path), ["total_steps = 128", "seeds = 5"])
    assert overridden.total_steps == 128
    assert overridden.seeds == [5]
    assert overridden.arms == config.arms


@pytest.mark.parametrize("env_id", ["cartpole", "pendulum", "chain"])
def test_paper_general_config_is_the_explicit_arms(env_id):
    cycle = MomentumCycle(m_min=0.8, m_max=1.0)
    arms = [Arm("triangular", SchedulePolicy.triangular(1e-4, 1e-2, 2000), cycle),
            Arm("exp_range", SchedulePolicy.exp_range(1e-4, 1e-2, 2000, 0.99), cycle),
            Arm("constant", SchedulePolicy.constant(1e-3), None)]
    assert paper_general_config(env_id) == ExperimentConfig(
        env_id=env_id, arms=arms, seeds=[1, 2, 3], total_steps=200_000,
        ppo=default_ppo_config(env_id), out_dir="runs/paper-general")


def test_override_error_names_the_override():
    with pytest.raises(ConfigError) as err:
        load_config("paper-general", ["seeds = 1", "total_steps 64"])
    assert str(err.value).startswith("<cli overrides>:2: ")


@pytest.mark.parametrize("from_override", [False, True])
def test_bad_ppo_value_names_its_key_and_line(tmp_path, from_override):
    path = tmp_path / "chain.cfg"
    bad = "ppo.rollout_steps = 1.5"
    if from_override:
        path.write_text(CHAIN_CONFIG)
        overrides, where = ["seeds = 1", bad], "<cli overrides>:2"
    else:
        path.write_text(CHAIN_CONFIG + bad + "\n")
        overrides, where = [], f"{path}:{len(CHAIN_CONFIG.splitlines()) + 1}"
    with pytest.raises(ConfigError) as err:
        load_config(str(path), overrides)
    assert str(err.value).startswith(f"{where}: ppo.rollout_steps: ")


@pytest.mark.parametrize("arm_lines", [
    "arm.a.schedule = constant\narm.a.lr = 0.001\narm.a.momentum_max = 0.9\n",
    "arm.a.schedule = triangular\narm.a.lr_min = 0.0001\narm.a.lr_max = 0.01\n"
    "arm.a.stepsize = 4\narm.a.momentum_min = 0.85\n",
    "arm.a.schedule = triangular\narm.a.lr_min = 0.0001\narm.a.lr_max = 0.01\n"
    "arm.a.stepsize = 4\narm.a.cycle_momentum = false\narm.a.momentum_max = 0.95\n",
])
def test_momentum_bounds_need_cycle_momentum(arm_lines):
    """Without cycling, train uses ppo.fixed_momentum, so the bounds would be ignored."""
    with pytest.raises(ConfigError) as err:
        parse_config_text("env = chain\nseeds = 1\ntotal_steps = 10\n" + arm_lines)
    assert "ppo.fixed_momentum" in str(err.value)


FLAT_ARM = """\
arm.flat.schedule = triangular
arm.flat.lr_min = 0.001
arm.flat.lr_max = 0.001
arm.flat.stepsize = 4
arm.flat.cycle_momentum = true
"""


def test_cycling_arm_with_equal_bounds_is_a_config_error(tmp_path):
    path = tmp_path / "flat.cfg"
    path.write_text(CHAIN_CONFIG + FLAT_ARM)
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value).startswith("arm 'flat': ") and "lr_min < lr_max" in str(err.value)


# exp_range bounds times 1e-300 per cycle: cycle 1 is still apart, cycle 2 underflows to 0 == 0
UNDERFLOWING_ARM = ["env = chain", "arm.exp_range.stepsize = 1", "arm.exp_range.decay = 1e-300"]


def test_cycling_arm_whose_bounds_underflow_within_the_run_is_a_config_error():
    """Chain runs 2048 steps per update, so 4 updates stay in cycles 0 and 1 and 5 do not."""
    assert load_config("paper-general", UNDERFLOWING_ARM + ["total_steps = 8192"]).runs()
    with pytest.raises(ConfigError) as err:
        load_config("paper-general", UNDERFLOWING_ARM + ["total_steps = 8193"])
    assert str(err.value) == ("arm 'exp_range': momentum cycling needs lr_min < lr_max in every "
                              "cycle, but with decay 1e-300 they are equal from update 4")


@pytest.mark.parametrize("override, where_and_key", [
    ("arm.triangular.lr_max = 1e-2x", "<cli overrides>:1: arm.triangular.lr_max: "),
    ("env = mars", "<cli overrides>:1: env: "),
    ("arm.exp_range.cycle_momentum = maybe", "<cli overrides>:1: arm.exp_range.cycle_momentum: "),
    ("arm.constant.momentum = 0.9", "<cli overrides>:1: arm.constant.momentum: "),
    ("total_steps = 0", "<cli overrides>:1: total_steps: "),
    ("total_steps = -5", "<cli overrides>:1: total_steps: "),
    ("seeds = ", "<cli overrides>:1: seeds: "),
    ("seeds = 1, -1", "<cli overrides>:1: seeds: "),
    ("seeds = 1,,2", "<cli overrides>:1: seeds: empty item in '1,,2'"),
    ("ppo.hidden_sizes = 64,,32", "<cli overrides>:1: ppo.hidden_sizes: empty item in "),
], ids=["arm_number", "env", "arm_boolean", "arm_unknown_option", "total_steps_zero",
        "total_steps_negative", "seeds_empty", "seeds_negative", "seeds_empty_item",
        "hidden_sizes_empty_item"])
def test_arm_option_and_env_errors_name_their_override(override, where_and_key):
    with pytest.raises(ConfigError) as err:
        load_config("paper-general", [override])
    assert str(err.value).startswith(where_and_key)


def test_bad_stepsize_names_its_file_and_line(tmp_path):
    path = tmp_path / "chain.cfg"
    path.write_text(CHAIN_CONFIG.replace("arm.tri.stepsize = 4", "arm.tri.stepsize = 4.5"))
    line = CHAIN_CONFIG.splitlines().index("arm.tri.stepsize = 4") + 1
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value).startswith(f"{path}:{line}: arm.tri.stepsize: ")


def test_zero_stepsize_names_its_file_and_line(tmp_path):
    path = tmp_path / "chain.cfg"
    path.write_text(CHAIN_CONFIG.replace("arm.tri.stepsize = 4", "arm.tri.stepsize = 0"))
    line = CHAIN_CONFIG.splitlines().index("arm.tri.stepsize = 4") + 1
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value) == f"{path}:{line}: arm.tri.stepsize: must be >= 1"


@pytest.mark.parametrize("line, key", [
    ("arm.tri.lr_max = 0.01", "arm.tri.lr_max"),
    ("arm.fixed.lr = 0.001", "arm.fixed.lr"),
])
def test_an_infinite_upper_bound_names_its_file_and_line(tmp_path, line, key):
    path = tmp_path / "chain.cfg"
    path.write_text(CHAIN_CONFIG.replace(line, f"{key} = inf"))
    number = CHAIN_CONFIG.splitlines().index(line) + 1
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value) == f"{path}:{number}: {key}: must be finite"


@pytest.mark.parametrize("override", [
    "arm.exp_range.decay = 1.5",
    "arm.exp_range.stepsize = 0",
    "arm.triangular.lr_min = 0",
    "arm.constant.lr = -1e-3",
    "arm.triangular.momentum_min = -0.1",
    "arm.triangular.momentum_max = 1.2",
])
def test_a_range_error_of_one_option_names_its_key_and_line(override):
    key = override.split(" = ")[0]
    with pytest.raises(ConfigError) as err:
        load_config("paper-general", [override])
    assert str(err.value).startswith(f"<cli overrides>:1: {key}: ")


@pytest.mark.parametrize("override", [
    "ppo.gamma = 1.5",
    "ppo.gae_lambda = -0.1",
    "ppo.fixed_momentum = 1.1",
    "ppo.clip_epsilon = 0",
    "ppo.max_grad_norm = -1",
    "ppo.adam_epsilon = 0",
    "ppo.value_coef = -0.5",
    "ppo.entropy_coef = -0.01",
    "ppo.value_coef = inf",
    "ppo.entropy_coef = inf",
    "ppo.adam_epsilon = inf",
    "ppo.rollout_steps = 0",
    "ppo.n_envs = 0",
    "ppo.update_epochs = 0",
    "ppo.minibatch_size = 0",
    "ppo.optimizer = rmsprop",
    "ppo.adam_beta2 = 1.0",
    "ppo.adam_beta2 = -0.5",
    "ppo.hidden_sizes = 64,0,64",
    "ppo.hidden_sizes = -3",
])
def test_a_range_error_of_one_ppo_field_names_its_key_and_line(tmp_path, override):
    key = override.split(" = ")[0]
    path = tmp_path / "chain.cfg"
    path.write_text(CHAIN_CONFIG + override + "\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value).startswith(f"{path}:{len(CHAIN_CONFIG.splitlines()) + 1}: {key}: ")
    with pytest.raises(ConfigError) as err:
        load_config("paper-general", ["env = chain", override])
    assert str(err.value).startswith(f"<cli overrides>:2: {key}: ")


def test_a_minibatch_size_that_does_not_divide_the_rollout_names_ppo():
    with pytest.raises(ConfigError) as err:
        load_config("paper-general", ["ppo.minibatch_size = 100"])
    assert str(err.value) == "ppo: minibatch_size must divide rollout_steps * n_envs"


def test_an_unknown_ppo_field_names_its_line():
    with pytest.raises(ConfigError) as err:
        load_config("paper-general", ["ppo.warp_drive = 1"])
    assert str(err.value) == "<cli overrides>:1: unknown key 'ppo.warp_drive'"


@pytest.mark.parametrize("overrides", [
    ["arm.triangular.lr_min = 0.1"],
    ["arm.triangular.momentum_min = 0.95", "arm.triangular.momentum_max = 0.9"],
], ids=["lr_min_above_lr_max", "momentum_min_above_momentum_max"])
def test_a_rule_across_options_names_the_arm(overrides):
    with pytest.raises(ConfigError) as err:
        load_config("paper-general", overrides)
    assert str(err.value).startswith("arm 'triangular': ")


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


# sha256 of the run logs run_experiment(parse_config_text(CHAIN_CONFIG)) writes,
# pinned with numpy 2.4.6 on scipy-openblas 0.3.31 and OPENBLAS_NUM_THREADS=1.
PINNED_CHAIN_CONFIG_SHA256 = {
    "tri_seed1.csv": "3ceb5f037dfba7ac21df4fcd1afb44e354fd7f3eda91da9fe0d74ee6772580ad",
    "tri_seed2.csv": "1cbc426f1a3ce3e333221531400a85871e5be9946e5f99359744379968aba640",
    "fixed_seed1.csv": "b7b07513400b2cb94c38ddba27d9ebbb20e3a165688151151675fe7d742edc94",
    "fixed_seed2.csv": "380fe7a5215f316058ca54dec97843a0565ff6f3be341c096473c0f6dad2fd26",
}


def test_run_experiment_logs_match_pinned_digests(tmp_path):
    """Any change to how a config resolves its trainer, or to what it trains, moves one."""
    config = parse_config_text(CHAIN_CONFIG)
    config.out_dir = str(tmp_path)
    result = run_experiment(config)
    assert result.errors == []
    digests = {Path(path).name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
               for path in result.log_paths}
    assert digests == PINNED_CHAIN_CONFIG_SHA256


def test_run_experiment_rerun_byte_identical(tmp_path):
    config = parse_config_text(CHAIN_CONFIG)
    payloads = []
    for attempt in range(2):
        config.out_dir = str(tmp_path / f"runs{attempt}")
        result = run_experiment(config)
        payloads.append([Path(p).read_bytes() for p in sorted(result.log_paths)])
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
    for start, end, updates, option in ((1e-3, 1e-3, 10, "lr_end"), (1e-3, 1e-2, 1, "updates"),
                                        (0.0, 1e-2, 10, "lr_start"),
                                        (1e-3, math.inf, 10, "lr_end")):
        with pytest.raises(OptionError) as err:
            lr_find("chain", start, end, updates, seed=0)
        assert err.value.option == option


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
