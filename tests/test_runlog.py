import math
import os
import stat
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cyclic_ppo.plots import emit_plot
from cyclic_ppo.runlog import (LogRow, LrFindResult, RunLog, RunLogFormatError, dump_lr_curve,
                               dump_runlog, parse_runlog, read_lr_curve, read_runlog,
                               write_lr_curve, write_runlog)


def _sample_log():
    rows = [
        LogRow(env_step=37, update_index=0, episode_reward=37.0, lr=1e-4, momentum=1.0),
        LogRow(env_step=64, update_index=0, episode_reward=None, lr=1e-4, momentum=1.0,
               policy_loss=-0.0123, value_loss=48.25, entropy=0.6931471805599453,
               approx_kl=1.5e-5),
        LogRow(env_step=101, update_index=1, episode_reward=27.0,
               lr=0.00505, momentum=0.9),
    ]
    return RunLog(run_id="triangular_seed1", arm="triangular", seed=1,
                  env_id="cartpole", diverged=False, rows=rows)


def test_roundtrip_exact():
    log = _sample_log()
    assert parse_runlog(dump_runlog(log)) == log


def test_roundtrip_preserves_float_bits():
    log = RunLog(run_id="r", arm="a", seed=0, env_id="chain", rows=[
        LogRow(env_step=1, update_index=0, episode_reward=0.1 + 0.2,
               lr=1e-4 + (1e-2 - 1e-4) * 0.5, momentum=1.0 - (1.0 - 0.8) * 0.3)])
    back = parse_runlog(dump_runlog(log))
    assert back.rows[0].episode_reward == log.rows[0].episode_reward
    assert back.rows[0].lr == log.rows[0].lr
    assert back.rows[0].momentum == log.rows[0].momentum


def test_dump_is_deterministic():
    assert dump_runlog(_sample_log()) == dump_runlog(_sample_log())


def test_diverged_flag_roundtrip():
    log = _sample_log()
    log.diverged = True
    assert parse_runlog(dump_runlog(log)).diverged


def test_write_is_atomic(tmp_path, monkeypatch):
    log = _sample_log()
    path = tmp_path / "runs" / "log.csv"
    write_runlog(log, path)
    assert read_runlog(path) == log
    assert [p for p in os.listdir(tmp_path / "runs") if p.endswith(".tmp")] == []

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        write_runlog(log, tmp_path / "runs" / "other.csv")
    assert sorted(os.listdir(tmp_path / "runs")) == ["log.csv"]  # the temp file is gone


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
def test_written_files_get_the_mode_open_would_give_them(tmp_path, umask):
    """Not mkstemp's 0600: under umask 022 a run log, an LR curve and an SVG are 0644."""
    old = os.umask(umask)
    try:
        write_runlog(_sample_log(), tmp_path / "r.csv")
        write_lr_curve(LrFindResult(points=[(1e-4, 1.0), (1e-3, 0.5)], diverged=False),
                       tmp_path / "c.csv")
        emit_plot([tmp_path / "r.csv"], "reward", tmp_path / "r.svg")
    finally:
        os.umask(old)
    assert {name: stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in os.listdir(tmp_path)
            } == dict.fromkeys(["r.csv", "c.csv", "r.svg"], 0o666 & ~umask)


def test_episode_and_update_row_views():
    log = _sample_log()
    assert log.episode_rewards() == [(37, 37.0), (101, 27.0)]
    assert len(log.update_rows()) == 1


def test_parse_reports_file_and_line():
    text = dump_runlog(_sample_log())
    lines = text.splitlines()
    lines[7] = "1,2,3"  # wrong field count on a data row
    with pytest.raises(RunLogFormatError) as err:
        parse_runlog("\n".join(lines), path="some.csv")
    assert "some.csv:8" in str(err.value)
    lines = text.splitlines()
    lines[2] = "# seed 1"
    with pytest.raises(RunLogFormatError) as err:
        parse_runlog("\n".join(lines), path="some.csv")
    assert str(err.value).startswith("some.csv:3: metadata line without '='")


def test_parse_rejects_missing_metadata():
    text = dump_runlog(_sample_log())
    body = "\n".join(line for line in text.splitlines() if not line.startswith("# seed"))
    with pytest.raises(RunLogFormatError):
        parse_runlog(body)


def test_parse_rejects_bad_header():
    with pytest.raises(RunLogFormatError):
        parse_runlog("# run_id=x\n# arm=a\n# seed=0\n# env=chain\n# diverged=false\n"
                     "wrong,header\n")


def test_parse_rejects_bad_float():
    text = dump_runlog(_sample_log()).replace("48.25", "forty-eight")
    with pytest.raises(RunLogFormatError) as err:
        parse_runlog(text, path="x.csv")
    assert "x.csv" in str(err.value)



@pytest.mark.parametrize("column, row", [("lr", "37,0,37.0,abc,1.0,,,,"),
                                         ("momentum", "37,0,37.0,0.0001,abc,,,,")])
def test_parse_names_line_and_column_of_bad_required_float(column, row):
    lines = dump_runlog(_sample_log()).splitlines()
    lines[6] = row
    with pytest.raises(RunLogFormatError) as err:
        parse_runlog("\n".join(lines), path="x.csv")
    assert "x.csv:7" in str(err.value) and column in str(err.value)


def test_parse_rejects_diverged_other_than_true_or_false():
    text = dump_runlog(_sample_log()).replace("# diverged=false", "# diverged=maybe")
    with pytest.raises(RunLogFormatError) as err:
        parse_runlog(text, path="x.csv")
    assert "x.csv:5" in str(err.value)


def test_parse_reports_bad_seed_at_its_line():
    text = dump_runlog(_sample_log()).replace("# seed=1", "# seed=one")
    with pytest.raises(RunLogFormatError) as err:
        parse_runlog(text, path="x.csv")
    assert err.value.line_no == 3 and "x.csv:3" in str(err.value)


@pytest.mark.parametrize("read, text, first, repeat", [
    (read_runlog, dump_runlog(_sample_log()), "# seed=1", "# seed=2"),
    (read_lr_curve, dump_lr_curve(LrFindResult(points=[(1e-4, 0.5)], diverged=False)),
     "# diverged=false", "# diverged=true"),
], ids=["runlog", "lr_curve"])
def test_parse_rejects_a_repeated_metadata_key_at_its_second_line(tmp_path, read, text,
                                                                   first, repeat):
    path = tmp_path / "table.csv"
    path.write_text(text.replace(first, f"{first}\n{repeat}"))
    line_no = text.splitlines().index(first) + 2
    key = first[2:].split("=")[0]
    with pytest.raises(RunLogFormatError) as err:
        read(path)
    assert err.value.line_no == line_no
    assert str(err.value) == f"{path}:{line_no}: metadata key {key!r} repeats line {line_no - 1}"

# Floats a table must carry bit for bit, plus ints, which a float column may be handed.
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, math.nan,
                                1.7976931348623157e308, 0.1 + 0.2])
_NUMBERS = st.one_of(_EDGE_FLOATS, st.floats(), st.integers(-2**53, 2**53))


def _same_bits(written, read) -> bool:
    """True when ``read`` is ``written`` as a float, bit for bit; any NaN matches any NaN."""
    if written is None or read is None:
        return written is None and read is None
    if math.isnan(written):
        return math.isnan(read)
    return struct.pack("<d", float(written)) == struct.pack("<d", read)


@st.composite
def _log_rows(draw):
    optional = st.one_of(st.none(), _NUMBERS)
    steps = st.one_of(st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64))
    return LogRow(env_step=draw(steps), update_index=draw(st.integers()),
                  episode_reward=draw(optional), lr=draw(_NUMBERS), momentum=draw(_NUMBERS),
                  policy_loss=draw(optional), value_loss=draw(optional),
                  entropy=draw(optional), approx_kl=draw(optional))


@given(rows=st.lists(_log_rows(), max_size=8), seed=st.integers(), diverged=st.booleans())
def test_runlog_roundtrip_is_bit_exact(rows, seed, diverged):
    log = RunLog(run_id="r_seed1", arm="r", seed=seed, env_id="chain", diverged=diverged,
                 rows=rows)
    back = parse_runlog(dump_runlog(log))
    assert (back.run_id, back.arm, back.seed, back.env_id, back.diverged) == \
        (log.run_id, log.arm, log.seed, log.env_id, log.diverged)
    assert len(back.rows) == len(rows)
    for row, got in zip(rows, back.rows):
        assert (got.env_step, got.update_index) == (row.env_step, row.update_index)
        for column in ("episode_reward", "lr", "momentum", "policy_loss", "value_loss",
                       "entropy", "approx_kl"):
            assert _same_bits(getattr(row, column), getattr(got, column)), column


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(points=st.lists(st.tuples(_NUMBERS, _NUMBERS), max_size=8), diverged=st.booleans())
def test_lr_curve_roundtrip_is_bit_exact(tmp_path, points, diverged):
    path = tmp_path / "curve.csv"
    write_lr_curve(LrFindResult(points=points, diverged=diverged), path)
    back = read_lr_curve(path)
    assert back.diverged == diverged
    assert len(back.points) == len(points)
    for (lr, loss), (got_lr, got_loss) in zip(points, back.points):
        assert _same_bits(lr, got_lr) and _same_bits(loss, got_loss)
    # every value is written as repr(float(v)), so an int point 1 reads "1.0"
    assert path.read_text().splitlines()[2:] == [f"{float(lr)!r},{float(loss)!r}"
                                                 for lr, loss in points]
