import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from cyclic_ppo.harness import lr_find
from cyclic_ppo.plots import emit_plot, smoothed_rewards
from cyclic_ppo.ppo import PpoConfig, train
from cyclic_ppo.runlog import LogRow, LrFindResult, RunLog, write_lr_curve, write_runlog
from cyclic_ppo.schedule import MomentumCycle, SchedulePolicy

TINY = PpoConfig(rollout_steps=16, n_envs=2, minibatch_size=16, update_epochs=2)


def _training_log(seed=1):
    return train("chain", SchedulePolicy.triangular(1e-4, 1e-2, 4), MomentumCycle(),
                 TINY, seed=seed, total_steps=320)


# sha256 of each plot kind, drawn from the seed-1 and seed-2 runs of
# _training_log and from one lr_find sweep in the same TINY setup whose second
# update diverges to an infinite loss; pinned with numpy 2.4.6 on
# scipy-openblas 0.3.31 and OPENBLAS_NUM_THREADS=1.
PINNED_SVG_SHA256 = {
    "reward": "f2448430cbb3b91c592c71e03a6cecc09c8b323bd7141c0d158adbaee4b61003",
    "schedule": "8c69817791737d876db806ff34e564cd69a13c72fae7493852f3335642979626",
    "lrfind": "e525d4a9761ae7a570b7df6d5bc3f417f242cc70864bd6f4c1b9eb51a5e06cc8",
}


def _polyline_points(svg_text):
    return re.findall(r'<polyline[^>]*points="([^"]*)"', svg_text)


@pytest.mark.parametrize("kind", sorted(PINNED_SVG_SHA256))
def test_plot_matches_pinned_digest(tmp_path, kind):
    """Any change to what a chart draws, or to how its CSV is read back, moves a digest."""
    if kind == "lrfind":
        curve = lr_find("chain", 1e-3, 1e300, 4, seed=0, ppo_overrides=dataclasses.asdict(TINY))
        assert curve.points[-1][1] == float("inf")  # the chart drops that point
        paths = [tmp_path / "curve.csv"]
        write_lr_curve(curve, paths[0])
    else:
        paths = [tmp_path / f"seed{seed}.csv" for seed in (1, 2)]
        for seed, path in zip((1, 2), paths):
            write_runlog(_training_log(seed), path)
    out = tmp_path / f"{kind}.svg"
    emit_plot(paths, kind, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SVG_SHA256[kind]


def test_reward_plot_valid_svg(tmp_path):
    log_path = tmp_path / "run.csv"
    write_runlog(_training_log(), log_path)
    out = tmp_path / "reward.svg"
    emit_plot([log_path], "reward", out)
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    assert _polyline_points(out.read_text())


def test_identical_logs_identical_polylines(tmp_path):
    log = _training_log()
    paths = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        write_runlog(log, path)
        paths.append(path)
    out = tmp_path / "overlay.svg"
    emit_plot(paths, "reward", out)
    points = _polyline_points(out.read_text())
    assert len(points) == 2
    assert points[0] == points[1]


def test_empty_series_still_renders_axes_and_legend(tmp_path):
    empty = RunLog(run_id="dead_seed0", arm="dead", seed=0, env_id="chain",
                   diverged=True, rows=[])
    path = tmp_path / "dead.csv"
    write_runlog(empty, path)
    out = tmp_path / "empty.svg"
    emit_plot([path], "reward", out)
    text = out.read_text()
    ET.fromstring(text)
    assert _polyline_points(text) == []
    assert "dead" in text  # legend label survives
    assert "<rect" in text  # axes frame drawn


def test_a_legend_label_with_markup_characters_is_escaped(tmp_path):
    log = RunLog(run_id="a&b<c_seed0", arm="a&b<c", seed=0, env_id="chain",
                 diverged=False, rows=[])
    path = tmp_path / "amp.csv"
    write_runlog(log, path)
    out = tmp_path / "amp.svg"
    emit_plot([path], "reward", out)
    labels = [t.text for t in ET.parse(out).getroot().iter("{http://www.w3.org/2000/svg}text")]
    assert "a&b<c" in labels


def test_schedule_plot_two_panels(tmp_path):
    path = tmp_path / "run.csv"
    write_runlog(_training_log(), path)
    out = tmp_path / "schedule.svg"
    emit_plot([path], "schedule", out)
    text = out.read_text()
    ET.fromstring(text)
    assert len(_polyline_points(text)) == 2  # lr waveform + momentum waveform
    assert "learning rate" in text and "momentum" in text


def test_schedule_plot_waveform_tracks_log(tmp_path):
    log = _training_log()
    path = tmp_path / "run.csv"
    write_runlog(log, path)
    out = tmp_path / "schedule.svg"
    emit_plot([path], "schedule", out)
    lr_points = _polyline_points(out.read_text())[0].split()
    assert len(lr_points) == len(log.update_rows())


def test_lrfind_plot(tmp_path):
    curve = LrFindResult(points=[(10 ** e, 50.0 - e) for e in range(-5, -1)],
                         diverged=True)
    path = tmp_path / "curve.csv"
    write_lr_curve(curve, path)
    out = tmp_path / "lrfind.svg"
    emit_plot([path], "lrfind", out)
    text = out.read_text()
    ET.fromstring(text)
    assert len(_polyline_points(text)) == 1
    assert "diverged" in text


def test_plot_writes_into_a_new_directory_atomically(tmp_path):
    path = tmp_path / "curve.csv"
    write_lr_curve(LrFindResult(points=[(1e-4, 2.0), (1e-3, 1.0)], diverged=False), path)
    out = tmp_path / "new_dir" / "lrfind.svg"
    emit_plot([path], "lrfind", out)
    ET.fromstring(out.read_text())
    assert [p.name for p in out.parent.iterdir()] == ["lrfind.svg"]  # no temp file left


def test_plot_rejects_unknown_kind(tmp_path):
    with pytest.raises(ValueError):
        emit_plot([tmp_path / "x.csv"], "histogram", tmp_path / "out.svg")
    with pytest.raises(ValueError):
        emit_plot([], "reward", tmp_path / "out.svg")


def test_plot_reports_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("# run_id=x\n# arm=a\n# seed=zero\n# env=chain\n# diverged=false\n")
    with pytest.raises(Exception) as err:
        emit_plot([bad], "reward", tmp_path / "out.svg")
    assert "bad.csv" in str(err.value)


def test_smoothing_window():
    rows = [LogRow(env_step=i + 1, update_index=0, episode_reward=float(i),
                   lr=1e-3, momentum=0.9) for i in range(30)]
    log = RunLog(run_id="r", arm="a", seed=0, env_id="chain", rows=rows)
    xs, ys = smoothed_rewards(log, window=20)
    assert xs[0] == 1.0 and ys[0] == 0.0
    assert ys[4] == sum(range(5)) / 5  # shorter prefix window
    assert ys[-1] == sum(range(10, 30)) / 20


# Run in a child limited to 512 MB of address space, so a tick loop that never
# ends fails fast with MemoryError (or the timeout) instead of filling memory.
# One BLAS thread keeps numpy's own reservation far below that limit.
_TICKS_ON_A_ONE_ULP_AXIS = """
import math, resource
from cyclic_ppo.plots import _data_range, _nice_ticks
resource.setrlimit(resource.RLIMIT_AS, (512 * 2 ** 20, resource.getrlimit(resource.RLIMIT_AS)[1]))
print(_nice_ticks(*_data_range([1e300, math.nextafter(1e300, 2e300)])))
"""


def test_ticks_of_an_axis_one_ulp_wide_end():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _TICKS_ON_A_ONE_ULP_AXIS], env=env,
                          capture_output=True, text=True, timeout=20)
    assert done.returncode == 0, done.stderr[-500:]
    assert done.stdout.strip() == "[1e+300]"
