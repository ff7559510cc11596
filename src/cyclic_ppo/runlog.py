"""The package's CSV tables: run logs of seeded runs, and LR-finder curves.

Both kinds share one format, written by ``dump_table`` and read by
``parse_table``: ``# key=value`` metadata lines, a header naming the
columns, then one line per row. Floats are written with ``repr`` so
parsing recovers bit-identical values; an absent value is an empty field.
A run log's columns are the fields of ``LogRow``: episode rows carry the
finished episode's reward (loss fields empty), update rows carry the
update's loss metrics (episode field empty unless an episode ended exactly
on the rollout boundary). ``momentum`` is the schedule's value, before Adam or
SGD clamp it to ``MOMENTUM_CEILING`` (0.999). An LR curve's columns are ``lr``
and ``total_loss``.
"""
from __future__ import annotations

import csv
import errno
import io
import numbers
import os
import tempfile
from dataclasses import dataclass, field, fields


class RunLogFormatError(ValueError):
    """Raised for malformed run-log CSV, with file and line context."""

    def __init__(self, path, line_no: int, message: str) -> None:
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


@dataclass
class LogRow:
    """A run-log line; ``momentum`` is the schedule's value, before the optimizer
    clamps it to ``optimize.MOMENTUM_CEILING`` (0.999)."""

    env_step: int
    update_index: int
    episode_reward: float | None
    lr: float
    momentum: float
    policy_loss: float | None = None
    value_loss: float | None = None
    entropy: float | None = None
    approx_kl: float | None = None


@dataclass
class RunLog:
    run_id: str
    arm: str
    seed: int
    env_id: str
    diverged: bool = False
    rows: list[LogRow] = field(default_factory=list)

    def episode_rewards(self) -> list[tuple[int, float]]:
        """(env_step, reward) for every completed episode, in order."""
        return [(r.env_step, r.episode_reward) for r in self.rows
                if r.episode_reward is not None]

    def update_rows(self) -> list[LogRow]:
        return [r for r in self.rows if r.policy_loss is not None]


@dataclass
class LrFindResult:
    """(lr, total_loss) samples from a linearly increasing LR sweep."""

    points: list[tuple[float, float]]
    diverged: bool


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, numbers.Integral):  # numpy integers too, so they parse back
        return str(value)
    return repr(float(value))


def _parse_flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


# LogRow's annotations are strings (postponed evaluation), hence the keys.
_PARSERS = {"int": int, "float": float,
            "float | None": lambda text: None if text == "" else float(text)}
_ROW_PARSERS = {f.name: _PARSERS[f.type] for f in fields(LogRow)}
COLUMNS = tuple(_ROW_PARSERS)
_RUNLOG_META = {"run_id": str, "arm": str, "seed": int, "env": str, "diverged": _parse_flag}
_LR_CURVE_COLUMNS = {"lr": float, "total_loss": float}


def dump_table(meta: dict, columns, rows) -> str:
    """CSV text: a '# key=value' line per ``meta`` entry, the header, one line per row."""
    buf = io.StringIO()
    for key, value in meta.items():
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(value) for value in row] for row in rows)
    return buf.getvalue()


def _convert(parse, text: str, path, line_no: int, what: str):
    try:
        return parse(text)
    except ValueError:
        raise RunLogFormatError(path, line_no, f"bad {what} {text!r}") from None


def parse_table(text: str, path, required_meta: dict, columns: dict):
    """Parse ``dump_table`` output into (metadata, rows of values).

    ``required_meta`` maps each metadata key, and ``columns`` each column in
    file order, to the function that parses its text; a ValueError from one
    becomes a RunLogFormatError at that value's line, as does a repeated metadata
    key at its second line. Keys not in ``required_meta`` are ignored. Blank data
    lines are skipped.
    """
    lines = text.splitlines()
    found: dict[str, tuple[int, str]] = {}
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        body = lines[i][1:].strip()
        if "=" not in body:
            raise RunLogFormatError(path, i + 1, f"metadata line without '=': {lines[i]!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key in found:
            raise RunLogFormatError(path, i + 1, f"metadata key {key!r} repeats line "
                                                 f"{found[key][0]}")
        found[key] = (i + 1, value)
        i += 1
    meta = {}
    for key, parse in required_meta.items():
        if key not in found:
            raise RunLogFormatError(path, i + 1, f"missing metadata key {key!r}")
        line_no, value = found[key]
        meta[key] = _convert(parse, value, path, line_no, key)
    if i >= len(lines) or tuple(next(csv.reader([lines[i]]))) != tuple(columns):
        raise RunLogFormatError(path, i + 1, f"expected header {','.join(columns)}")

    rows = []
    for line_no, line in enumerate(lines[i + 1:], start=i + 2):
        if not line.strip():
            continue
        values = next(csv.reader([line]))
        if len(values) != len(columns):
            raise RunLogFormatError(path, line_no,
                                    f"expected {len(columns)} fields, got {len(values)}")
        rows.append([_convert(parse, value, path, line_no, f"{column} value")
                     for (column, parse), value in zip(columns.items(), values)])
    return meta, rows


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` atomically: a temp file in the target directory, then rename.

    The file gets the mode ``open(path, "w")`` would give it, not mkstemp's 0600."""
    directory = os.path.dirname(os.fspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def check_writable(path) -> None:
    """Raise OSError where ``write_text_atomic(path, ...)`` would fail for want of a place:
    ``path`` is empty, is or ends as a directory, its nearest existing ancestor (a dangling
    link included) is not a writable directory, or one of its new names is too long there."""
    if not os.fspath(path):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.fspath(path).endswith(("/", os.sep)) or os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    path = os.path.abspath(path)
    ancestor = os.path.dirname(path)
    while not os.path.lexists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), ancestor)
    if not os.access(ancestor, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), ancestor)
    name_max = os.pathconf(ancestor, "PC_NAME_MAX")
    if any(len(os.fsencode(name)) > name_max
           for name in os.path.relpath(path, ancestor).split(os.sep)):
        raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), path)


def dump_runlog(log: RunLog) -> str:
    meta = {"run_id": log.run_id, "arm": log.arm, "seed": log.seed, "env": log.env_id,
            "diverged": "true" if log.diverged else "false"}
    return dump_table(meta, COLUMNS, ([getattr(r, c) for c in COLUMNS] for r in log.rows))


def write_runlog(log: RunLog, path) -> None:
    write_text_atomic(path, dump_runlog(log))


def parse_runlog(text: str, path="<string>") -> RunLog:
    meta, rows = parse_table(text, path, _RUNLOG_META, _ROW_PARSERS)
    return RunLog(run_id=meta["run_id"], arm=meta["arm"], seed=meta["seed"],
                  env_id=meta["env"], diverged=meta["diverged"],
                  rows=[LogRow(*values) for values in rows])


def read_runlog(path) -> RunLog:
    with open(path) as f:
        return parse_runlog(f.read(), path=path)


def dump_lr_curve(result: LrFindResult) -> str:
    return dump_table({"diverged": "true" if result.diverged else "false"}, _LR_CURVE_COLUMNS,
                      ((float(lr), float(loss)) for lr, loss in result.points))


def write_lr_curve(result: LrFindResult, path) -> None:
    write_text_atomic(path, dump_lr_curve(result))


def read_lr_curve(path) -> LrFindResult:
    with open(path) as f:
        meta, rows = parse_table(f.read(), path, {"diverged": _parse_flag}, _LR_CURVE_COLUMNS)
    return LrFindResult(points=[tuple(values) for values in rows], diverged=meta["diverged"])
