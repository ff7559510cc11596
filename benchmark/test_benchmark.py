"""Tests of the benchmark itself: span arithmetic, wrapping hygiene, emitted metrics."""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cyclic_ppo.runlog import dump_runlog
from tracer import Tracer, targets, traced_calls
from workloads import WORKLOADS, OutputCheck, check_log, run_train, runlog_digest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("root"):          # 0 .. 10
        with tracer.span("a"):         # 1 .. 5
            with tracer.span("b"):     # 2 .. 3
                pass
        with tracer.span("a"):         # 6 .. 7
            pass

    assert tracer.parents == [-1, 0, 1, 0]
    assert tracer.durations() == [10.0, 4.0, 1.0, 1.0]
    assert tracer.self_times() == [5.0, 3.0, 1.0, 1.0]
    summary = tracer.summary()
    assert (summary["a"].calls, summary["a"].total_s, summary["a"].self_s) == (2, 5.0, 4.0)
    assert tracer.top_level() == [0, 1, 1, 3]
    assert tracer.total_under("b", "a") == 1.0
    assert tracer.total_under("a", "root") == 0.0


def test_wrapped_function_records_nested_spans_and_sizes():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x * 2, size=lambda x: x)
    outer = tracer.wrap("outer", lambda x: inner(x) + 1)

    assert outer(3) == 7
    assert tracer.names == ["outer", "inner"]
    assert tracer.parents == [-1, 0]
    assert tracer.sizes == [1, 3]
    assert tracer.self_times() == [2.0, 1.0]


def _originals():
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets()]


def test_every_wrapped_attribute_is_restored():
    before = _originals()
    workload = WORKLOADS["cartpole-8x128"]
    tracer = Tracer()
    with traced_calls(tracer):
        assert all(vars(owner)[attr] is not original for owner, attr, original in before)
        run_train(workload, seed=1, updates=1)
    assert all(vars(owner)[attr] is original for owner, attr, original in before)
    assert {"ppo.collect", "ppo.update", "envs.step", "optimize.adam_step"} <= set(tracer.names)

    with pytest.raises(ZeroDivisionError), traced_calls(Tracer()):
        1 / 0
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_the_run_log_unchanged(name):
    workload = WORKLOADS[name]
    plain = run_train(workload, seed=2, updates=1)
    with traced_calls(Tracer()):
        traced = run_train(workload, seed=2, updates=1)
    assert check_log(plain, workload, 1) == []
    assert runlog_digest(dump_runlog(traced)) == runlog_digest(dump_runlog(plain))


def test_output_check_fails_a_wrong_or_changed_run_log():
    workload = WORKLOADS["cartpole-8x128"]
    log = run_train(workload, seed=3, updates=2)
    check = OutputCheck(workload, updates=2)
    check.record(log, runlog_digest(dump_runlog(log)))
    assert (check.attempted, check.failed) == (1, 0)

    check.record(log, "0" * 64)
    log.diverged = True
    log.update_rows()[0].lr *= 2.0
    log.update_rows()[1].value_loss = float("nan")
    problems = check_log(log, workload, 2)
    assert problems == ["run diverged", "update 0 logged lr/momentum off the schedule",
                        "non-finite loss in update 1"]
    assert "2 update rows, expected 3" in check_log(log, workload, 3)
    assert (check.attempted, check.failed) == (2, 1)


def _run(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(cwd / "benchmark" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    proc = _run("--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2

    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0
    if not trace:
        # One timed repeat between two reference-loop runs: the scaled rate is
        # the measured one divided by the host's speed relative to the reference.
        detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
        assert math.isclose(result["metrics"]["env_steps_per_s"]["value"] * detail["host_speed"],
                            detail["measured_env_steps_per_s"], rel_tol=1e-9)


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cartpole-8x128", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
