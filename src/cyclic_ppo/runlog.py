"""Time-indexed training record for one seeded run, with CSV serialization.

Two row flavors share one layout: episode rows carry the finished
episode's reward (loss fields empty), update rows carry the update's loss
metrics (episode field empty unless an episode ended exactly on the
rollout boundary). Floats are written with ``repr`` so parsing the file
recovers bit-identical values.
"""
from __future__ import annotations

import csv
import io
import os
import tempfile
from dataclasses import dataclass, field

COLUMNS = ("env_step", "update_index", "episode_reward", "lr", "momentum",
           "policy_loss", "value_loss", "entropy", "approx_kl")


class RunLogFormatError(ValueError):
    """Raised for malformed run-log CSV, with file and line context."""

    def __init__(self, path, line_no: int, message: str) -> None:
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


@dataclass
class LogRow:
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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def dump_runlog(log: RunLog) -> str:
    """Serialize to CSV text: '# key=value' metadata lines, header, rows."""
    buf = io.StringIO()
    buf.write(f"# run_id={log.run_id}\n")
    buf.write(f"# arm={log.arm}\n")
    buf.write(f"# seed={log.seed}\n")
    buf.write(f"# env={log.env_id}\n")
    buf.write(f"# diverged={'true' if log.diverged else 'false'}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for r in log.rows:
        writer.writerow([_fmt(r.env_step), _fmt(r.update_index), _fmt(r.episode_reward),
                         _fmt(r.lr), _fmt(r.momentum), _fmt(r.policy_loss),
                         _fmt(r.value_loss), _fmt(r.entropy), _fmt(r.approx_kl)])
    return buf.getvalue()


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` atomically: a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.fspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_runlog(log: RunLog, path) -> None:
    write_text_atomic(path, dump_runlog(log))


def _parse_opt_float(text: str, path, line_no: int, column: str) -> float | None:
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        raise RunLogFormatError(path, line_no, f"bad float {text!r} in column {column}") from None


def parse_runlog(text: str, path="<string>") -> RunLog:
    meta: dict[str, str] = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        body = lines[i][1:].strip()
        if "=" not in body:
            raise RunLogFormatError(path, i + 1, f"metadata line without '=': {lines[i]!r}")
        key, value = body.split("=", 1)
        meta[key.strip()] = value.strip()
        i += 1
    for key in ("run_id", "arm", "seed", "env", "diverged"):
        if key not in meta:
            raise RunLogFormatError(path, i, f"missing metadata key {key!r}")
    if i >= len(lines) or tuple(next(csv.reader([lines[i]]))) != COLUMNS:
        raise RunLogFormatError(path, i + 1, f"expected header {','.join(COLUMNS)}")

    rows: list[LogRow] = []
    for line_no, line in enumerate(lines[i + 1:], start=i + 2):
        if not line.strip():
            continue
        fields = next(csv.reader([line]))
        if len(fields) != len(COLUMNS):
            raise RunLogFormatError(path, line_no,
                                    f"expected {len(COLUMNS)} fields, got {len(fields)}")
        try:
            env_step = int(fields[0])
            update_index = int(fields[1])
        except ValueError:
            raise RunLogFormatError(path, line_no, "bad integer field") from None
        if fields[3] == "" or fields[4] == "":
            raise RunLogFormatError(path, line_no, "lr and momentum are required")
        rows.append(LogRow(
            env_step=env_step,
            update_index=update_index,
            episode_reward=_parse_opt_float(fields[2], path, line_no, "episode_reward"),
            lr=float(fields[3]),
            momentum=float(fields[4]),
            policy_loss=_parse_opt_float(fields[5], path, line_no, "policy_loss"),
            value_loss=_parse_opt_float(fields[6], path, line_no, "value_loss"),
            entropy=_parse_opt_float(fields[7], path, line_no, "entropy"),
            approx_kl=_parse_opt_float(fields[8], path, line_no, "approx_kl"),
        ))
    try:
        seed = int(meta["seed"])
    except ValueError:
        raise RunLogFormatError(path, 0, f"bad seed {meta['seed']!r}") from None
    return RunLog(run_id=meta["run_id"], arm=meta["arm"], seed=seed,
                  env_id=meta["env"], diverged=meta["diverged"] == "true", rows=rows)


def read_runlog(path) -> RunLog:
    with open(path) as f:
        return parse_runlog(f.read(), path=path)
