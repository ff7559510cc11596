"""Benchmark workloads: fixed-size ``train()`` calls and the check of their output.

Every workload is the paper's general arm (triangular LR 1e-4..1e-2,
stepsize 2000 updates, momentum counter-cycled 0.8..1.0) on one env
profile. A repeat is one closed-loop, single-process ``train()`` call of a
fixed number of updates; the benchmark seed is passed to ``train``.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from cyclic_ppo.harness import default_ppo_config, paper_general_config
from cyclic_ppo.ppo import PpoConfig, train
from cyclic_ppo.runlog import RunLog
from cyclic_ppo.schedule import lr_at, momentum_at


@dataclass(frozen=True)
class Workload:
    env_id: str
    updates: int  # PPO updates per repeat, sized so one repeat takes about 1 s
    overrides: dict = field(default_factory=dict)

    def config(self) -> PpoConfig:
        return default_ppo_config(self.env_id, self.overrides)

    def env_steps(self, updates: int) -> int:
        config = self.config()
        return updates * config.rollout_steps * config.n_envs


# Why these three: cartpole-8x128 is update-heavy (16 minibatches of 256 per
# update) with a batched 8-env rollout; pendulum-1x2048 is rollout- and
# per-call-heavy (scalar env steps, batch-1 forwards, Gaussian head, 128
# minibatches of 64 per update), so batched-compute gains barely show there;
# cartpole-wide256 makes the nn layer matmul-bound, where Python overhead is
# small and FLOP changes show.
WORKLOADS = {
    "cartpole-8x128": Workload("cartpole", updates=16),
    "pendulum-1x2048": Workload("pendulum", updates=4),
    "cartpole-wide256": Workload("cartpole", updates=4,
                                 overrides={"hidden_sizes": (256, 256)}),
}


def general_arm(env_id: str):
    """The triangular arm of the paper's general comparison: (schedule, momentum cycle)."""
    arm = next(a for a in paper_general_config(env_id).arms if a.name == "triangular")
    return arm.schedule, arm.momentum_cycle


def run_train(workload: Workload, seed: int, updates: int) -> RunLog:
    schedule, cycle = general_arm(workload.env_id)
    return train(workload.env_id, schedule, cycle, workload.config(), seed,
                 workload.env_steps(updates))


def check_log(log: RunLog, workload: Workload, updates: int) -> list[str]:
    """Problems with one run's output; empty when it is as the trainer promises."""
    schedule, cycle = general_arm(workload.env_id)
    problems = []
    if log.diverged:
        problems.append("run diverged")
    rows = log.update_rows()
    if len(rows) != updates:
        problems.append(f"{len(rows)} update rows, expected {updates}")
    for row in rows:
        losses = (row.policy_loss, row.value_loss, row.entropy, row.approx_kl)
        if not all(math.isfinite(v) for v in losses):
            problems.append(f"non-finite loss in update {row.update_index}")
        k = row.update_index
        if row.lr != lr_at(schedule, k) or row.momentum != momentum_at(schedule, cycle, k):
            problems.append(f"update {k} logged lr/momentum off the schedule")
    steps = [r.env_step for r in log.rows]
    if any(b <= a for a, b in zip(steps, steps[1:])):
        problems.append("env_step not strictly increasing")
    expected_steps = workload.env_steps(updates)
    if steps and steps[-1] != expected_steps:
        problems.append(f"last env_step {steps[-1]}, expected {expected_steps}")
    return problems


def runlog_digest(text: str) -> str:
    """sha256 of a run log's CSV text, as written by ``dump_runlog``."""
    return hashlib.sha256(text.encode()).hexdigest()


class OutputCheck:
    """Checks every repeat of one run and counts those that fail.

    A repeat fails when ``check_log`` finds a problem or when its run log
    digest differs from the run's first repeat: the same seed must give
    bit-identical output, traced or not.
    """

    def __init__(self, workload: Workload, updates: int) -> None:
        self.workload = workload
        self.updates = updates
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.problems: list[str] = []

    def record(self, log: RunLog, digest: str) -> None:
        self.attempted += 1
        problems = check_log(log, self.workload, self.updates)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"run log digest {digest[:12]} differs from {self.digest[:12]}")
        if problems:
            self.failed += 1
            self.problems += [f"repeat {self.attempted}: {p}" for p in problems]
