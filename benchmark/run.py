"""Benchmark of ``cyclic_ppo.ppo.train``: one workload, timed or traced.

    python3 benchmark/run.py --workload cartpole-8x128 --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics: throughput, CPU per step and
set-up time, each scaled to a host of reference speed, and peak memory.
``--trace 1`` prints the per-layer metrics of a separate run with every
layer wrapped in spans. The last stdout line is the result as JSON; the line
before it records the run log digest, the measured (unscaled) figures and the
environment. Exits non-zero without a result when the program is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up probes run on each side of the worker, so one slow phase of a shared
# host does not shift them all.
SETUP_PROBES_PER_SIDE = 8
# Set to 1 for every measured process. Users run many arms x seeds side by
# side, one process per core; and on a shared host a second BLAS thread that
# spin-waits for a busy core measures the scheduler, not the program.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = os.environ | dict.fromkeys(BLAS_THREAD_VARS, "1")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def run_child(script: str, args: list[str], timeout: float) -> dict:
    """Run ``script`` from this directory and return the JSON object it prints last."""
    proc = subprocess.run([sys.executable, str(HERE / script), *args], cwd=ROOT,
                          env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long after one warm-up repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if not (ROOT / "src" / "cyclic_ppo" / "__init__.py").is_file():
        print(f"error: no program to measure at {ROOT / 'src' / 'cyclic_ppo'}", file=sys.stderr)
        return 2

    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    probe_args = [args.workload, str(args.seed)]
    probes = 0 if args.trace else SETUP_PROBES_PER_SIDE

    def setup_probes() -> list[dict]:
        return [run_child("setup_probe.py", probe_args, timeout=30) for _ in range(probes)]

    setup = setup_probes()
    result = run_child("worker.py", run_args, timeout=args.seconds + 120)
    setup += setup_probes()
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(p["scaled_setup_s"] for p in setup)
        result["metrics"]["measured_setup_s"] = statistics.median(p["setup_s"] for p in setup)
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "updates_per_repeat": result["updates"], "runlog_sha256": result["digest"],
        "problems": result["problems"], "environment": result["environment"],
        "detail": {k: v for k, v in result["metrics"].items() if k not in metrics},
    }))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
