#!/usr/bin/env python
"""Massive-cohort smoke: a deterministic 1,000-client async federated run.

Provisions a 1,000-site federation on the in-memory fabric and runs the
FedBuff-style ``Buffered`` commit policy of :class:`ScatterAndGather` for a few global
commits under the sequential (``threads=False``) drive, then gates on the
three massive-cohort guarantees:

1. **Bounded materialization** — the run's high-water mark of
   simultaneously-decoded client updates (``stats
   .peak_materialized_updates``) must stay at/below a hard cap that is
   O(1) in the cohort size: the streaming fold admits one update at a
   time no matter how many sites exist.
2. **Peak RSS** — the resident set of the whole process (provisioning,
   1,000 registered endpoints, the run itself), sampled by a
   :class:`repro.obs.sysmon.SysMonitor`, must stay under a budget sized
   for O(concurrency), not O(cohort), in-flight model payloads; the peak
   also lands on each run's ``stats.peak_rss_bytes`` for ``runs diff``.
3. **Bit-reproducibility** — two same-seed runs must produce identical
   final weights, identical per-update staleness sequences and identical
   per-window wire-byte counts.

Both run dirs are registered in the run registry (PR 5 tooling) and diffed
on the deterministic dimensions; any divergence exits non-zero.  CI runs
this as the ``cohort-smoke`` job and uploads the summary + diff artifacts.

Usage::

    python scripts/cohort_smoke.py --run-dir runs/cohort-smoke
    python scripts/cohort_smoke.py --clients 200 --commits 2   # quick local
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.flare import (  # noqa: E402
    DXO,
    DataKind,
    FLContext,
    FLJob,
    Learner,
    MetaKey,
    SimulatorRunner,
)
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.obs.sysmon import SysMonitor  # noqa: E402


class CohortLearner(Learner):
    """Instant deterministic learner: nudges every weight by a per-site delta.

    The model is a single 512x512 fp32 matrix (~1 MiB), so an accidental
    O(cohort) materialization (1,000 decoded updates alive at once) costs
    ~1 GiB and trips the RSS gate, while the intended O(1) streaming fold
    does not.
    """

    def __init__(self, site_name: str) -> None:
        super().__init__(name="CohortLearner")
        self.site_name = site_name
        index = int(site_name.rsplit("-", 1)[-1])
        self.delta = 0.001 * (1 + index % 13)
        self.steps = 1 + index % 7

    def train(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        updated = {key: np.asarray(value) + np.float32(self.delta)
                   for key, value in dxo.data.items()}
        return DXO(DataKind.WEIGHTS, data=updated,
                   meta={MetaKey.NUM_STEPS_CURRENT_ROUND: self.steps})


def initial_weights(dim: int) -> dict[str, np.ndarray]:
    return {"dense.weight": np.zeros((dim, dim), dtype=np.float32)}


def run_once(args, run_dir: Path, monitor: SysMonitor):
    job = FLJob(
        name="cohort-smoke",
        initial_weights=initial_weights(args.dim),
        learner_factory=CohortLearner,
        num_rounds=args.commits,
        mode="async",
        buffer_size=args.buffer,
        concurrency=args.concurrency,
        staleness_alpha=0.5,
        sampler="uniform",
        evaluator=lambda weights: {
            "mean_weight": float(np.mean(weights["dense.weight"]))},
    )
    started = time.perf_counter()
    result = SimulatorRunner(job, n_clients=args.clients, seed=args.seed,
                             run_dir=run_dir, threads=False,
                             key_bits=128).run()
    elapsed = time.perf_counter() - started
    monitor.sample()  # fold this run's high water into the peak
    result.stats.peak_rss_bytes = int(monitor.peak_rss_bytes)
    result.stats.save_json(run_dir / "stats.json")
    return elapsed, result


def staleness_trace(stats) -> list[int]:
    return [c.staleness for r in stats.rounds for c in r.client_records]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run-dir", default="runs/cohort-smoke")
    parser.add_argument("--out", default="cohort_smoke.json")
    parser.add_argument("--clients", type=int, default=1000)
    parser.add_argument("--commits", type=int, default=2)
    parser.add_argument("--buffer", type=int, default=32)
    parser.add_argument("--concurrency", type=int, default=64)
    parser.add_argument("--dim", type=int, default=512,
                        help="model is one dim x dim fp32 matrix")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--max-materialized", type=int, default=2,
                        help="hard cap on simultaneously-decoded updates")
    parser.add_argument("--max-rss-mb", type=int, default=1024,
                        help="peak-RSS budget for the whole process")
    parser.add_argument("--registry", default=os.environ.get("BENCH_REGISTRY",
                                                             "runs"),
                        help="run-registry root ('' skips registration)")
    args = parser.parse_args(argv)

    base_dir = Path(args.run_dir)
    if base_dir.exists():
        shutil.rmtree(base_dir)

    # Whole-process resource monitor (replaces the ru_maxrss one-shot): a
    # private registry keeps it out of the runs' own telemetry, so the
    # bit-reproducibility gate is untouched by the sampling thread.
    monitor = SysMonitor(registry=MetricsRegistry(), interval=0.5,
                         process="cohort-smoke").start()
    runs = []
    for label in ("a", "b"):
        print(f"run {label}: {args.clients} clients, {args.commits} commits, "
              f"buffer {args.buffer}, concurrency {args.concurrency}",
              file=sys.stderr)
        runs.append(run_once(args, base_dir / f"run-{label}", monitor))
    (elapsed_a, result_a), (elapsed_b, result_b) = runs
    monitor.stop()

    failures: list[str] = []

    # 1. bounded materialization
    peaks = [result_a.stats.peak_materialized_updates,
             result_b.stats.peak_materialized_updates]
    if max(peaks) > args.max_materialized:
        failures.append(
            f"peak materialized updates {max(peaks)} exceeds the cap "
            f"{args.max_materialized} — the fold is buffering the cohort")

    # 2. peak RSS as sampled by the resource monitor across both runs
    peak_rss_mb = monitor.peak_rss_bytes / 2**20
    if peak_rss_mb > args.max_rss_mb:
        failures.append(f"peak RSS {peak_rss_mb:.0f} MiB exceeds the "
                        f"{args.max_rss_mb} MiB budget")

    # 3. bit-reproducibility across same-seed runs
    if set(result_a.final_weights) != set(result_b.final_weights) or not all(
            np.array_equal(result_a.final_weights[k], result_b.final_weights[k])
            for k in result_a.final_weights):
        failures.append("same-seed runs produced different final weights")
    if staleness_trace(result_a.stats) != staleness_trace(result_b.stats):
        failures.append("same-seed runs saw different staleness sequences")
    if [r.bytes_on_wire for r in result_a.stats.rounds] != \
            [r.bytes_on_wire for r in result_b.stats.rounds]:
        failures.append("same-seed runs put different bytes on the wire")

    quorum = [r.quorum_met for r in result_a.stats.rounds]
    if not all(quorum) or len(quorum) != args.commits:
        failures.append(f"expected {args.commits} committed windows, "
                        f"got quorum flags {quorum}")

    summary = {
        "cohort": {
            "clients": args.clients,
            "commits": args.commits,
            "buffer_size": args.buffer,
            "concurrency": args.concurrency,
            "model_bytes": args.dim * args.dim * 4,
            "transport": "memory (sequential drive, threads=False)",
        },
        "gates": {
            "max_materialized": args.max_materialized,
            "max_rss_mb": args.max_rss_mb,
        },
        "observed": {
            "peak_materialized_updates": max(peaks),
            "peak_rss_mb": round(peak_rss_mb, 1),
            "wallclock_s": [round(elapsed_a, 2), round(elapsed_b, 2)],
            "staleness_max": max(staleness_trace(result_a.stats), default=0),
            "bytes_on_wire": [r.bytes_on_wire for r in result_a.stats.rounds],
            "final_mean_weight": float(
                np.mean(result_a.final_weights["dense.weight"])),
            "bit_identical": not failures,
        },
        "failures": failures,
    }
    Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {args.out}")
    print(f"  peak materialized {max(peaks)} (cap {args.max_materialized}), "
          f"peak RSS {peak_rss_mb:.0f} MiB (cap {args.max_rss_mb} MiB), "
          f"wallclock {elapsed_a:.1f}s/{elapsed_b:.1f}s")

    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    if failures:
        return 1

    # registry + deterministic diff gate: the two same-seed runs must be
    # indistinguishable on every deterministic dimension
    if args.registry:
        cli = [sys.executable, "-m", "repro.obs", "runs"]
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        for label in ("a", "b"):
            subprocess.run(cli + ["register", str(base_dir / f"run-{label}"),
                                  "--name", f"cohort-smoke-{label}",
                                  "--kind", "run", "--root", args.registry,
                                  "--note",
                                  f"{args.clients}-client async run {label}"],
                           check=True, env=env)
        verdict = subprocess.run(
            cli + ["diff", "cohort-smoke-a", "cohort-smoke-b",
                   "--root", args.registry,
                   "--dimensions", "round_bytes,final_metric,alerts"],
            env=env)
        if verdict.returncode != 0:
            print("error: same-seed cohort runs diverged in the registry "
                  f"diff (exit {verdict.returncode})", file=sys.stderr)
            return 1
        print("runs diff: run-a matches run-b on "
              "round_bytes,final_metric,alerts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
