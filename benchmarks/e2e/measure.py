"""The run subprocess: set up one workload, run its job once, check the
outputs, write the measurements as JSON.

``run.py`` starts this file in a fresh interpreter per run, so ``setup_s``
starts before ``import repro`` and ``ru_maxrss`` belongs to this run alone.
"""

from __future__ import annotations

import time

ENTRY = time.perf_counter()  # before any other import: set-up includes them

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from repro.autograd import blas_thread_info, get_backend, get_default_dtype  # noqa: E402
from repro.flare import SimulatorRunner, set_console_level  # noqa: E402

from benchmarks.e2e import workloads  # noqa: E402


def provenance() -> dict:
    blas = blas_thread_info()
    git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    revision = git.stdout.strip() if git.returncode == 0 else "not a git checkout"
    return {
        "cores": len(os.sched_getaffinity(0)),
        "blas_library": blas["library"],
        "blas_threads": blas["threads"],
        "array_backend": get_backend(),
        "default_dtype": np.dtype(get_default_dtype()).name,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": revision,
        "max_parallel": workloads.MAX_PARALLEL,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--patients", type=int, default=workloads.PATIENTS)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dir", type=Path, required=True,
                        help="existing scratch directory for this run")
    args = parser.parse_args()

    set_console_level(logging.WARNING)
    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.generate(workload, args.seed, args.seconds, args.patients)
    recorder = None
    if args.trace:
        from benchmarks.e2e import replay, tracing

        recorder = tracing.Recorder(args.dir)
        job = tracing.wrap_job(inputs, recorder)
    else:
        job = inputs.job()
    runner = SimulatorRunner(job, n_clients=workloads.N_SITES, seed=args.seed,
                             max_parallel=workloads.MAX_PARALLEL,
                             run_dir=args.dir / "run")
    setup_s = time.perf_counter() - ENTRY

    run_entry = time.monotonic()
    result = runner.run()
    run_return = time.monotonic()
    server_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    worker_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    stats = result.stats
    round_seconds = [record.seconds for record in stats.rounds]
    steady = round_seconds[1:]
    attempted, failed = workloads.task_counts(stats)
    problems = workloads.check(inputs, stats, result.final_weights)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "job_s": (run_return - run_entry, "s"),
        "round_s": (median(steady), "s"),
        "server_peak_rss_mb": (server_rss, "MB"),
        # on the memory fabric the clients are threads of this process
        "worker_peak_rss_mb": (worker_rss if workload.transport != "memory"
                               else server_rss, "MB"),
        "wire_mb": (stats.bytes_delivered / 1e6, "MB"),
        "final_loss": (stats.final_global_metric("valid_loss"), "-"),
        "task_fail_share": (failed / attempted, "ratio"),
    }
    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "rounds": inputs.rounds, "provenance": provenance(),
        "attempted": attempted, "failed": failed,
        "digest": workloads.checkpoint_digest(result.final_weights),
        "initial_loss": inputs.initial_loss,
        "round_s_samples": len(steady),
        "round_s_p75": quantiles(steady, n=4)[2] if len(steady) > 1 else steady[0],
        "round_s_max": max(steady),
        "end_to_end": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in end_to_end.items()},
    }

    if recorder is not None:
        # client threads (named "client-<site>" by the simulator) the async
        # job gave up joining may still be training; let them finish so
        # their spans count and the replay runs alone
        deadline = time.monotonic() + 30.0
        for thread in threading.enumerate():
            if thread.name.startswith("client-"):
                thread.join(max(0.0, deadline - time.monotonic()))
        recorder.dump()
        layers = tracing.attribute(recorder.load(), round_seconds, run_entry,
                                   run_return, workloads.MAX_PARALLEL)
        if workload.mode == "sync" and layers["controller.round_coverage"] < 0.95:
            problems.append("controller.round_coverage "
                            f"{layers['controller.round_coverage']:.3f} < 0.95")
        layers.update(replay.replay(inputs, result.final_weights, args.dir))
        report["per_layer"] = {name: {"value": value, "unit": unit_of(name)}
                               for name, value in layers.items()}
    report["problems"] = problems
    (args.dir / "report.json").write_text(json.dumps(report))
    return 1 if problems else 0


def unit_of(name: str) -> str:
    for suffix, unit in (("mb_per_s", "MB/s"), ("_s", "s"), ("_mb", "MB"),
                         ("_calls", "count"), ("processes", "count")):
        if name.endswith(suffix):
            return unit
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
