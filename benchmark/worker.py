"""Child process of ``run.py``: one timed or traced run of a workload.

``run.py`` starts this file with the BLAS thread variables set to 1 and
``src`` on the path. Prints one JSON object on stdout.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import cyclic_ppo
from cyclic_ppo.runlog import dump_runlog
from reference import REFERENCE_LOOPS_PER_S, reference_loop
from tracer import Tracer, traced_calls
from workloads import WORKLOADS, OutputCheck, run_train, runlog_digest

ROOT = Path(__file__).resolve().parent.parent


def timed_run(check: OutputCheck, seed: int, seconds: float) -> dict:
    """Repeat ``train()`` untraced until ``seconds`` have passed; medians per repeat.

    The first repeat warms caches and is checked but not timed. The
    reference loop runs before the first timed repeat and after each one;
    each repeat's rate is scaled by the mean speed of the loop runs on
    either side of it, to the speed of a host that runs the loop at
    ``REFERENCE_LOOPS_PER_S``.
    """
    log = run_train(check.workload, seed, check.updates)
    check.record(log, runlog_digest(dump_runlog(log)))

    rates, cpu_per_kstep, scaled_rates, scaled_cpu = [], [], [], []
    loops = [reference_loop()]
    deadline = time.perf_counter() + seconds
    while not rates or time.perf_counter() < deadline:
        c0, t0 = time.process_time(), time.perf_counter()
        log = run_train(check.workload, seed, check.updates)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        loops.append(reference_loop())
        check.record(log, runlog_digest(dump_runlog(log)))
        steps = log.rows[-1].env_step
        rates.append(steps / wall)
        cpu_per_kstep.append(cpu * 1e3 / (steps / 1e3))
        # Loop speeds, in iterations per wall and per CPU second, on either side.
        (wall_speed0, cpu_speed0), (wall_speed1, cpu_speed1) = loops[-2:]
        scaled_rates.append(rates[-1] * 2 * REFERENCE_LOOPS_PER_S / (wall_speed0 + wall_speed1))
        scaled_cpu.append(cpu_per_kstep[-1] * (cpu_speed0 + cpu_speed1)
                          / (2 * REFERENCE_LOOPS_PER_S))
    return {
        "env_steps_per_s": statistics.median(scaled_rates),
        "cpu_ms_per_kstep": statistics.median(scaled_cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "host_speed": statistics.median(w for w, _ in loops) / REFERENCE_LOOPS_PER_S,
        "measured_env_steps_per_s": statistics.median(rates),
        "measured_cpu_ms_per_kstep": statistics.median(cpu_per_kstep),
        "timed_repeats": len(rates),
    }


def layer_metrics(tracer: Tracer, train_span: int) -> dict:
    """Per-layer numbers of one traced ``train()`` call, keyed by metric name."""
    totals = tracer.summary()

    def total(name, field="total_s"):
        return getattr(totals[name], field) if name in totals else 0.0

    def calls(name):
        return totals[name].calls if name in totals else 0

    train_s = tracer.ends[train_span] - tracer.starts[train_span]
    top_s = total("ppo.collect") + total("ppo.compute_gae") + total("ppo.update")
    return {
        "envs.step_calls": calls("envs.step"),
        "envs.step_s": total("envs.step"),
        "envs.step_us": total("envs.step") * 1e6 / calls("envs.step"),
        "envs.reset_calls": calls("envs.reset"),
        "nn.forward_calls": calls("nn.forward"),
        "nn.forward_rows_per_call": totals["nn.forward"].size / calls("nn.forward"),
        "collect.forward_s": tracer.total_under("nn.forward", "ppo.collect"),
        "update.forward_s": tracer.total_under("nn.forward", "ppo.update"),
        "nn.backward_calls": calls("nn.backward"),
        "nn.backward_s": total("nn.backward"),
        "nn.flatten_calls": calls("nn.flatten"),
        "nn.flatten_s": total("nn.flatten"),
        "nn.log_probs_s": total("nn.log_probs"),
        "ppo.collect_s": total("ppo.collect"),
        "ppo.collect_self_s": total("ppo.collect", "self_s"),
        "ppo.compute_gae_s": total("ppo.compute_gae"),
        "ppo.update_s": total("ppo.update"),
        "ppo.update_self_s": total("ppo.update", "self_s"),
        "ppo.loss_and_grads_calls": calls("ppo.loss_and_grads"),
        "ppo.loss_and_grads_s": total("ppo.loss_and_grads"),
        "ppo.loss_and_grads_self_s": total("ppo.loss_and_grads", "self_s"),
        "ppo.train_s": train_s,
        "ppo.train_self_s": total("ppo.train", "self_s"),
        "ppo.top_span_share": top_s / train_s,
        "optimize.adam_step_calls": calls("optimize.adam_step"),
        "optimize.adam_step_s": total("optimize.adam_step"),
        "optimize.clip_global_norm_s": total("optimize.clip_global_norm"),
        "optimize.steps_per_minibatch": calls("optimize.adam_step") / calls("ppo.loss_and_grads"),
        "runlog.dump_s": total("runlog.dump"),
    }


def iteration_ms(tracer: Tracer, train_span: int) -> list[float]:
    """Wall time from each ``collect`` start to the next; the last ends with ``train()``."""
    starts = [s for n, s in zip(tracer.names, tracer.starts) if n == "ppo.collect"]
    bounds = starts + [tracer.ends[train_span]]
    return [(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])]


def traced_run(check: OutputCheck, seed: int, seconds: float, spans_path: Path) -> dict:
    """Alternate traced and untraced repeats; per-layer medians over the traced ones.

    One untraced warm-up repeat comes first. Every repeat, traced or not,
    must give the same run log digest: tracing may not change the result.
    The spans of the last traced repeat are written to ``spans_path``.
    """
    log = run_train(check.workload, seed, check.updates)
    check.record(log, runlog_digest(dump_runlog(log)))

    per_repeat, iter_ms, traced_walls, plain_walls = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not per_repeat or time.perf_counter() < deadline:
        tracer = Tracer()
        with traced_calls(tracer), tracer.span("ppo.train") as train_span:
            log = run_train(check.workload, seed, check.updates)
        with tracer.span("runlog.dump"):
            text = dump_runlog(log)
        check.record(log, runlog_digest(text))
        traced_walls.append(tracer.ends[train_span] - tracer.starts[train_span])
        per_repeat.append(layer_metrics(tracer, train_span) | {"runlog.bytes": len(text.encode())})
        iter_ms += iteration_ms(tracer, train_span)

        t0 = time.perf_counter()
        log = run_train(check.workload, seed, check.updates)
        plain_walls.append(time.perf_counter() - t0)
        check.record(log, runlog_digest(dump_runlog(log)))
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_csv(spans_path)

    deciles = statistics.quantiles(iter_ms, n=10)
    return {key: statistics.median_low(m[key] for m in per_repeat) for key in per_repeat[0]} | {
        "ppo.iter_ms_p50": deciles[4],
        "ppo.iter_ms_p90": deciles[8],
        "ppo.iter_samples": len(iter_ms),
        "trace.overhead_ratio": statistics.median(traced_walls) / statistics.median(plain_walls),
        "trace.repeats": len(per_repeat),
    }


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha(root: Path) -> str:
    """HEAD commit read from ``.git`` files, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src" / "cyclic_ppo").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if ROOT / "src" not in Path(cyclic_ppo.__file__).resolve().parents:
        raise SystemExit(f"cyclic_ppo imported from {cyclic_ppo.__file__}, not {ROOT / 'src'}")

    workload = WORKLOADS[args.workload]
    check = OutputCheck(workload, workload.updates)
    if args.trace:
        spans = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}.spans.csv"
        metrics = traced_run(check, args.seed, args.seconds, spans)
    else:
        metrics = timed_run(check, args.seed, args.seconds)
    print(json.dumps({
        "attempted": check.attempted,
        "failed": check.failed,
        "problems": check.problems[:20],
        "digest": check.digest,
        "updates": check.updates,
        "metrics": metrics,
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
