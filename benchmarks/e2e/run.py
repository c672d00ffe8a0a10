"""The benchmark's one command.

Three ways in, one code path:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    one run of one workload (the form ``BENCHMARK.json`` names); the last
    line of standard output is the result as one JSON object.
``python -m benchmarks.e2e [--seed N] [--runs K] [--workload W ...] [--out F]``
    the full report: per workload, K untraced runs (seeds N..N+K-1) and one
    traced run of seed N; prints every metric by name with its unit, checks
    the outputs and the trace gates, exits non-zero on any failure.
``python -m benchmarks.e2e compare A.json B.json``
    verdicts between two ``--out`` files.

Every run is a fresh ``measure.py`` subprocess; this process only waits.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import compare  # noqa: E402

WORK = HERE / ".work"
RUN_TIMEOUT = 170  # the contract allows a run 180 s
OVERHEAD_LIMIT = 1.05


def measure(workload: str, seed: int, seconds: float, trace: int,
            patients: int | None = None) -> dict:
    """Run ``measure.py`` once in its own process group and return its report.

    The scratch directory (run dir, span files, the program's temp files)
    lives under this package and is removed afterwards.
    """
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    command = [sys.executable, str(HERE / "measure.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--dir", str(directory)]
    if patients is not None:
        command += ["--patients", str(patients)]
    process = subprocess.Popen(command, stdout=sys.stderr, cwd=ROOT,
                               env=dict(os.environ, TMPDIR=str(directory)),
                               start_new_session=True)
    try:
        process.wait(timeout=RUN_TIMEOUT)
        report_path = directory / "report.json"
        if not report_path.is_file():
            raise SystemExit(f"{workload} seed {seed}: measure.py exited "
                             f"{process.returncode} without a report")
        return json.loads(report_path.read_text())
    finally:
        # the job joins its own workers; this reaps whatever a crash or a
        # timeout left behind, so no process outlives the run
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        shutil.rmtree(directory, ignore_errors=True)


def print_report(report: dict) -> None:
    mode = "traced" if report["trace"] else "untraced"
    print(f"== {report['workload']}  seed={report['seed']}  {mode}  "
          f"rounds={report['rounds']} ==")
    sections = [("end_to_end", report["end_to_end"])]
    if report["trace"]:
        sections.append(("per_layer", report["per_layer"]))
    for title, metrics in sections:
        print(f"  [{title}]")
        for name, metric in metrics.items():
            note = ""
            if name == "round_s":
                note = (f"   (n={report['round_s_samples']}, "
                        f"p75 {report['round_s_p75']:.4f}, "
                        f"max {report['round_s_max']:.4f})")
            print(f"  {name:34s} {metric['value']:14.6f} {metric['unit']}{note}")
    print(f"  tasks attempted={report['attempted']} failed={report['failed']}  "
          f"initial_loss={report['initial_loss']:.4f}  digest={report['digest'][:16]}")
    for problem in report["problems"]:
        print(f"  INCORRECT: {problem}")


def print_provenance(provenance: dict) -> None:
    print("== provenance ==")
    for key, value in provenance.items():
        print(f"  {key:16s} {value}")


def contract_run(args, spec: dict) -> int:
    """One run; last stdout line is the contract's JSON object."""
    report = measure(args.workload[0], args.seed, args.seconds, args.trace,
                     args.patients)
    print_provenance(report["provenance"])
    print_report(report)
    section, source = (("per_layer", report["per_layer"]) if args.trace
                       else ("end_to_end", report["end_to_end"]))
    metrics = {entry["name"]: source[entry["name"]] for entry in spec[section]}
    print(json.dumps({"correct": not report["problems"],
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 1 if report["problems"] else 0


def job_seconds(report: dict) -> float:
    return report["end_to_end"]["job_s"]["value"]


def full_report(args, spec: dict) -> int:
    names = args.workload or [entry["name"] for entry in spec["workloads"]]
    runs, failures = [], []
    for index, name in enumerate(names):
        # seed N runs last so that the traced run of seed N follows it directly
        untraced = [measure(name, args.seed + offset, args.seconds, 0, args.patients)
                    for offset in [*range(1, args.runs), 0]]
        traced = measure(name, args.seed, args.seconds, 1, args.patients)
        overhead = job_seconds(traced) / job_seconds(untraced[-1])
        if overhead > OVERHEAD_LIMIT:
            # this box's speed drifts by more than the limit within minutes;
            # a real overhead shows against the run after as well, a drift
            # does not
            untraced.append(measure(name, args.seed, args.seconds, 0, args.patients))
            overhead = min(overhead, job_seconds(traced) / job_seconds(untraced[-1]))
        traced["per_layer"]["trace.overhead_ratio"] = {"value": overhead,
                                                       "unit": "ratio"}
        if index == 0:
            print_provenance(traced["provenance"])
        for report in untraced + [traced]:
            print_report(report)
            failures += [f"{name} seed {report['seed']}: {problem}"
                         for problem in report["problems"]]
        if overhead > OVERHEAD_LIMIT:
            failures.append(f"{name}: trace.overhead_ratio {overhead:.3f} > "
                            f"{OVERHEAD_LIMIT}")
        # same seed, same checkpoint: the wrappers did not perturb the
        # computation (the async workload's folds depend on thread timing)
        if (name not in compare.ASYNC_WORKLOADS
                and traced["digest"] != untraced[-1]["digest"]):
            failures.append(f"{name}: traced and untraced runs of seed {args.seed} "
                            "produced different checkpoints")
        runs += untraced + [traced]
    if args.out is not None:
        args.out.write_text(json.dumps({"runs": runs}, indent=1))
    for failure in failures:
        print(f"FAILED: {failure}")
    print("all checks passed" if not failures else f"{len(failures)} check(s) failed")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a TERM must unwind through measure()'s finally, which reaps the run
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[entry["name"] for entry in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="nominal job length; scales the round counts")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one workload once, traced or not, and end with "
                             "the result as a JSON line")
    parser.add_argument("--runs", type=int, default=1,
                        help="full report: untraced runs per workload")
    parser.add_argument("--out", type=Path, help="full report: write runs as JSON")
    parser.add_argument("--patients", type=int,
                        help="cohort size (self-test scale; not comparable)")
    args = parser.parse_args(argv)
    if args.trace is None:
        return full_report(args, spec)
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace needs exactly one --workload")
    return contract_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
