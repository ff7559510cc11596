"""Standalone SVG plots for run logs: reward curves, schedule waveforms, LR sweeps.

The writer is deliberately minimal and fully deterministic: the same
input logs always produce byte-identical SVG, and identical series render
identical polyline point data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .runlog import RunLog, read_lr_curve, read_runlog, write_text_atomic

PLOT_KINDS = ("reward", "schedule", "lrfind")
PALETTE = ("#2ca02c", "#00bfff", "#9467bd", "#ff7f0e", "#d62728", "#8c564b")
REWARD_SMOOTHING_EPISODES = 20

WIDTH, HEIGHT = 640, 400
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 62, 16, 28, 42


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round-numbered ticks within ``[lo, hi]``, about ``target`` of them."""
    span = hi - lo
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= target:
            break
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        if t + step == t:  # an axis a few ulps wide: the step is below t's resolution
            break
        t += step
    return [t for t in ticks if lo <= t <= hi]


@dataclass
class _Panel:
    """Maps a data rectangle onto a pixel rectangle (y grows upward in data)."""

    px_left: float
    px_top: float
    px_right: float
    px_bottom: float
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        fx = (x - self.x_min) / (self.x_max - self.x_min)
        fy = (y - self.y_min) / (self.y_max - self.y_min)
        return (self.px_left + fx * (self.px_right - self.px_left),
                self.px_bottom - fy * (self.px_bottom - self.px_top))


def _data_range(values: list[float], pad: float = 0.05) -> tuple[float, float]:
    if not values:
        return 0.0, 1.0
    lo, hi = min(values), max(values)
    if pad * (hi - lo) == 0.0:  # equal values, or a span so small its padding underflows
        lo, hi = lo - 0.5, hi + 0.5
    span = hi - lo
    padded = lo - pad * span, hi + pad * span
    if not math.isfinite(padded[1] - padded[0]):
        raise ValueError(f"values from {lo!r} to {hi!r} are too far apart to draw on one "
                         "axis: its span exceeds the largest float")
    return padded


def _panel_frame(panel: _Panel, x_label: str, y_label: str) -> list[str]:
    left, top, right, bottom = panel.px_left, panel.px_top, panel.px_right, panel.px_bottom
    parts = [f'<rect x="{left:.2f}" y="{top:.2f}" width="{right - left:.2f}" '
             f'height="{bottom - top:.2f}" fill="none" stroke="#333" stroke-width="1"/>']
    for tx in _nice_ticks(panel.x_min, panel.x_max):
        px, _ = panel.to_px(tx, panel.y_min)
        parts.append(f'<line x1="{px:.2f}" y1="{bottom:.2f}" x2="{px:.2f}" '
                     f'y2="{bottom + 4:.2f}" stroke="#333" stroke-width="1"/>')
        parts.append(f'<text x="{px:.2f}" y="{bottom + 16:.2f}" font-size="10" '
                     f'text-anchor="middle" fill="#333">{tx:g}</text>')
    for ty in _nice_ticks(panel.y_min, panel.y_max):
        _, py = panel.to_px(panel.x_min, ty)
        parts.append(f'<line x1="{left - 4:.2f}" y1="{py:.2f}" x2="{left:.2f}" '
                     f'y2="{py:.2f}" stroke="#333" stroke-width="1"/>')
        parts.append(f'<text x="{left - 6:.2f}" y="{py + 3:.2f}" font-size="10" '
                     f'text-anchor="end" fill="#333">{ty:g}</text>')
    mid_x = (left + right) / 2.0
    parts.append(f'<text x="{mid_x:.2f}" y="{bottom + 32:.2f}" font-size="11" '
                 f'text-anchor="middle" fill="#000">{x_label}</text>')
    mid_y = (top + bottom) / 2.0
    parts.append(f'<text x="14" y="{mid_y:.2f}" font-size="11" text-anchor="middle" '
                 f'fill="#000" transform="rotate(-90 14 {mid_y:.2f})">{y_label}</text>')
    return parts


def _polyline(panel: _Panel, xs: list[float], ys: list[float], color: str) -> str:
    points = " ".join(f"{px:.2f},{py:.2f}" for px, py in (panel.to_px(x, y)
                                                          for x, y in zip(xs, ys)))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'


def _escape(text: str) -> str:
    """``text`` as SVG character data: a label from data, such as an arm name, may hold & or <."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _legend(labels: list[str], colors: list[str], x: float, y: float) -> list[str]:
    parts = []
    for i, (label, color) in enumerate(zip(labels, colors)):
        row_y = y + 14 * i
        parts.append(f'<rect x="{x:.2f}" y="{row_y:.2f}" width="10" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{x + 14:.2f}" y="{row_y + 9:.2f}" font-size="11" '
                     f'fill="#000">{_escape(label)}</text>')
    return parts


def _svg_document(parts: list[str], height: int = HEIGHT) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
            f'viewBox="0 0 {WIDTH} {height}">')
    body = "\n".join([head,
                      f'<rect x="0" y="0" width="{WIDTH}" height="{height}" fill="#ffffff"/>',
                      *parts,
                      "</svg>"])
    return body + "\n"


def smoothed_rewards(log: RunLog,
                     window: int = REWARD_SMOOTHING_EPISODES) -> tuple[list[float], list[float]]:
    """Episode rewards vs env_step, smoothed by a trailing mean over ``window``."""
    episodes = log.episode_rewards()
    xs, ys = [], []
    for i, (step, _) in enumerate(episodes):
        chunk = [r for _, r in episodes[max(0, i - window + 1):i + 1]]
        xs.append(float(step))
        ys.append(sum(chunk) / len(chunk))
    return xs, ys


def _chart_svg(panels: list, labels: list[str], x_label: str, height: int = HEIGHT) -> str:
    """Panels stacked over one shared x axis, with a legend label per series.

    Each panel is a ``(top, bottom, y_label, series)`` entry: its pixel rows
    and one ``(xs, ys)`` series per label. Series i has the same color in
    every panel.
    """
    x_min, x_max = _data_range([x for *_, series in panels for xs, _ in series for x in xs])
    frames, parts = [], []
    for top, bottom, y_label, series in panels:
        y_min, y_max = _data_range([y for _, ys in series for y in ys])
        frame = _Panel(MARGIN_LEFT, top, WIDTH - MARGIN_RIGHT, bottom,
                       x_min, x_max, y_min, y_max)
        frames.append(frame)
        parts += _panel_frame(frame, x_label, y_label)
    colors = [PALETTE[i % len(PALETTE)] for i in range(len(labels))]
    for i, color in enumerate(colors):
        for frame, (*_, series) in zip(frames, panels):
            if series[i][0]:  # a series with no points draws no line
                parts.append(_polyline(frame, *series[i], color))
    parts += _legend(labels, colors, MARGIN_LEFT + 8, MARGIN_TOP + 6)
    return _svg_document(parts, height)


def emit_plot(input_paths: list, kind: str, out_path) -> None:
    """Render one SVG from run-log or LR-curve CSVs.

    ``kind`` selects the figure: 'reward' overlays smoothed episode-reward
    curves, 'schedule' draws the LR and momentum waveforms per update, and
    'lrfind' draws loss against the swept learning rate.
    """
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r}, expected one of {PLOT_KINDS}")
    if not input_paths:
        raise ValueError("need at least one input file")
    if kind == "lrfind":
        curves = [read_lr_curve(p) for p in input_paths]
        for path, curve in zip(input_paths, curves):
            bad = [lr for lr, _ in curve.points if not 0.0 < lr < math.inf]
            if bad:
                raise ValueError(f"{path}: learning rate {bad[0]!r} has no log10; "
                                 "the chart needs positive finite rates")
        series = [([math.log10(lr) for lr, loss in c.points if math.isfinite(loss)],
                   [loss for _, loss in c.points if math.isfinite(loss)]) for c in curves]
        svg = _chart_svg([(MARGIN_TOP, HEIGHT - MARGIN_BOTTOM, "total loss", series)],
                         ["diverged" if c.diverged else "completed" for c in curves],
                         "log10 learning rate")
    elif kind == "reward":
        logs = [read_runlog(p) for p in input_paths]
        svg = _chart_svg([(MARGIN_TOP, HEIGHT - MARGIN_BOTTOM, "episode reward (trailing mean)",
                           [smoothed_rewards(log) for log in logs])],
                         [log.arm for log in logs], "env step")
    else:
        logs = [read_runlog(p) for p in input_paths]
        rows = [log.update_rows() for log in logs]
        lrs = [([float(r.update_index) for r in rs], [r.lr for r in rs]) for rs in rows]
        moms = [(xs, [r.momentum for r in rs]) for (xs, _), rs in zip(lrs, rows)]
        height = 560
        mid = height // 2
        svg = _chart_svg([(MARGIN_TOP, mid - 26, "learning rate", lrs),
                          (mid + 16, height - MARGIN_BOTTOM, "momentum", moms)],
                         [log.arm for log in logs], "update", height)
    write_text_atomic(out_path, svg)
