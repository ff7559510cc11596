"""The host-speed reference: a fixed loop the program under test cannot change.

A shared host's speed swings by a third within seconds to minutes. Timed
next to the program, this loop swings with it, so figures scaled by its
speed show the program's own changes and little of the host's.
"""
from __future__ import annotations

import math
import time

import numpy as np

# The loop's speed, in iterations per second of wall and of CPU time, on a
# 2-vCPU cloud host at a typical moment. The benchmark's timings are scaled
# to a host of exactly this speed.
REFERENCE_LOOPS_PER_S = 6_000.0


def reference_loop(iterations: int = 2_000) -> tuple[float, float]:
    """Iterations per second of a fixed loop, in wall and in CPU time.

    The loop does what ``train()`` does, in like proportions: a batched
    layer and its weight gradient on 256x64 inputs, a batch-1 layer, small
    numpy calls, and CartPole-like scalar float arithmetic in Python. It calls no code of the
    program, so only the host can change its speed.
    """
    rng = np.random.default_rng(0)
    x = rng.standard_normal((256, 64))
    w = rng.standard_normal((64, 64)) * 0.1
    state = [0.01, 0.0, 0.02, 0.0]
    c0, t0 = time.process_time(), time.perf_counter()
    for _ in range(iterations):
        h = np.tanh(x @ w)
        grad = x.T @ (1.0 - h * h)
        w[0, 0] = float(np.tanh(x[0] @ w)[0] + grad[0, 0]) * 1e-9
        pos, vel, angle, spin = state
        cos, sin = math.cos(angle), math.sin(angle)
        temp = (0.5 + 0.05 * spin * spin * sin) / 1.1
        accel = (9.8 * sin - cos * temp) / (0.5 * (4.0 / 3.0 - 0.1 * cos * cos / 1.1))
        state = [pos + 0.02 * vel, vel + 0.02 * temp, angle + 0.02 * spin, spin + 0.02 * accel]
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return iterations / wall, iterations / cpu
