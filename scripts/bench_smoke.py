#!/usr/bin/env python
"""Abbreviated parallel-training A/B: serial fabric vs the shm worker pool.

Runs the same 2-round federated bert-mini MLM job in strictly interleaved
pairs — serial (threaded clients on the in-memory bus), then the persistent
shared-memory worker pool (``transport="shm"``), then serial again, ... —
and then:

1. asserts the final global checkpoints are **bit-identical** across every
   run (a speedup against a run that computed something different is
   meaningless);
2. writes ``BENCH_pr<N>.json`` with per-pair wall-clock times, the
   min/median speedup, and the machine context (core count, BLAS pool,
   active array backend) so a 1-core CI ratio cannot be misread as the
   architecture's ceiling;
3. registers the report plus both run dirs in the run registry and diffs
   pool against serial on the *deterministic* dimensions only
   (``round_bytes``, ``alerts``) — exit 2 if the fabrics diverge.  (The
   pool's live registry counts parent-sent traffic only — children's
   counters are fork-private until the telemetry merge — so its
   ``round_bytes`` reads *lower* than serial by a fixed accounting factor;
   the gate still catches the regression direction: duplicated traffic or
   resend storms push it up.)

The measurement protocol is documented in "Measuring parallel rounds" in
``docs/PERFORMANCE.md``.  CI runs this as the ``bench-smoke`` job.

Usage::

    python scripts/bench_smoke.py --run-dir runs/bench-smoke
    BENCH_PR=7 python scripts/bench_smoke.py --run-dir /tmp/bs --pairs 3
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.autograd import blas_thread_info, get_backend  # noqa: E402
from repro.autograd.backend import active_backend  # noqa: E402
from repro.data import (  # noqa: E402
    CohortSpec,
    EhrTokenizer,
    MlmCollator,
    SequenceDataset,
    encode_cohort,
    generate_cohort,
    partition_balanced,
)
from repro.flare import FLJob, SimulatorRunner  # noqa: E402
from repro.models import build_mlm_model  # noqa: E402
from repro.obs import HealthMonitor  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.training import MlmPretrainLearner  # noqa: E402


def build_job(model_name: str, rounds: int, clients: int) -> FLJob:
    """A small but *real* federated MLM job on a synthetic EHR cohort."""
    cohort = generate_cohort(CohortSpec(n_patients=240, seed=5))
    tokenizer = EhrTokenizer(cohort.vocab, max_len=24)
    dataset = encode_cohort(cohort, tokenizer)
    sequences = SequenceDataset(dataset.input_ids, dataset.attention_mask)
    shard_indices = partition_balanced(len(sequences), clients, seed=0)
    shards = {f"site-{i + 1}": sequences.subset(s)
              for i, s in enumerate(shard_indices)}
    site_seeds = {name: 100 + i for i, name in enumerate(sorted(shards))}
    vocab_size = len(cohort.vocab)

    def model_factory():
        return build_mlm_model(model_name, vocab_size=vocab_size, seed=0,
                               max_seq_len=24)

    def learner_factory(client_name: str) -> MlmPretrainLearner:
        # per-site collator: its masking RNG advances per call, so sharing
        # one would tie the masks to scheduling instead of the seed
        collator = MlmCollator(cohort.vocab, seed=site_seeds[client_name])
        return MlmPretrainLearner(
            site_name=client_name, model_factory=model_factory,
            train_data=shards[client_name], collator=collator,
            local_epochs=1, batch_size=16, lr=1e-3,
            seed=site_seeds[client_name])

    return FLJob(name="bench-smoke",
                 initial_weights=model_factory().state_dict(),
                 learner_factory=learner_factory, num_rounds=rounds,
                 min_clients=clients, result_timeout=300.0)


def run_once(job: FLJob, transport: str, run_dir: Path, clients: int):
    # the health monitor makes the run dir self-describing (stats.json +
    # health.jsonl) for the registry diff below; it arms on both sides, so
    # its overhead cancels out of the A/B ratio
    start = time.perf_counter()
    result = SimulatorRunner(replace(job, transport=transport), n_clients=clients,
                             seed=7, run_dir=run_dir,
                             health=HealthMonitor(run_dir=run_dir)).run()
    return time.perf_counter() - start, result


def checkpoints_identical(a, b) -> bool:
    return (set(a.final_weights) == set(b.final_weights)
            and all(np.array_equal(a.final_weights[k], b.final_weights[k])
                    for k in a.final_weights))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--out", default=None,
                        help="report path (default BENCH_pr<N>.json)")
    parser.add_argument("--pairs", type=int,
                        default=int(os.environ.get("BENCH_PAIRS", "2")),
                        help="interleaved serial/pool pairs (default 2)")
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--model", default="bert-mini")
    parser.add_argument("--registry", default=os.environ.get("BENCH_REGISTRY",
                                                             "runs"),
                        help="run-registry root ('' skips registration)")
    args = parser.parse_args(argv)

    bench_pr = int(os.environ.get("BENCH_PR", "7"))
    out_path = Path(args.out or f"BENCH_pr{bench_pr}.json")
    base_dir = Path(args.run_dir)
    if base_dir.exists():
        shutil.rmtree(base_dir)

    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cores = os.cpu_count() or 1

    job = build_job(args.model, args.rounds, args.clients)
    times: dict[str, list[float]] = {"serial": [], "pool": []}
    results: dict[str, list] = {"serial": [], "pool": []}
    for pair in range(1, args.pairs + 1):
        for side, transport in (("serial", "memory"), ("pool", "shm")):
            print(f"pair {pair}/{args.pairs}: {side} ({transport})",
                  file=sys.stderr)
            elapsed, result = run_once(job, transport,
                                       base_dir / f"{side}-{pair}",
                                       args.clients)
            times[side].append(elapsed)
            results[side].append(result)

    # 1. determinism gate: every run, on either fabric, must land on the
    # same global checkpoint before a single number is reported
    reference = results["serial"][0]
    for side in ("serial", "pool"):
        for index, result in enumerate(results[side]):
            if not checkpoints_identical(reference, result):
                print(f"error: {side} run {index + 1} diverged from the "
                      "serial reference checkpoint", file=sys.stderr)
                return 1
    print(f"checkpoints bit-identical across "
          f"{args.pairs * 2} runs x 2 fabrics "
          f"({len(reference.final_weights)} tensors)")

    # 2. the report
    speedups = [s / p for s, p in zip(times["serial"], times["pool"])]
    registry = MetricsRegistry()
    for side in ("serial", "pool"):
        for elapsed in times[side]:
            registry.histogram("bench.parallel_run_seconds",
                               side=side).observe(elapsed)
            registry.histogram("bench.parallel_round_seconds",
                               side=side).observe(elapsed / args.rounds)
    registry.gauge("bench.parallel_speedup_best").set(max(speedups))
    registry.gauge("bench.parallel_speedup_median").set(
        statistics.median(speedups))
    registry.gauge("bench.cores").set(cores)

    head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True).stdout.strip()
    report = {
        "protocol": {
            "pr": bench_pr,
            "candidate_ref": head,
            "workload": (f"{args.rounds}-round {args.clients}-client "
                         f"federated {args.model} MLM pretraining, "
                         "synthetic EHR cohort (240 patients, seq 24, "
                         "batch 16, 1 local epoch)"),
            "comparison": ("serial = threaded clients on the in-memory bus; "
                           "pool = one forked process per client on the shm "
                           "fabric, strictly interleaved serial/pool pairs"),
            "pairs": args.pairs,
            "cores": cores,
            "backend": active_backend().describe(),
            "default_backend": get_backend(),
            "blas": blas_thread_info(),
            "note": ("with W workers on C cores the ideal speedup is "
                     "min(W, C) minus coordination; on a 1-core machine the "
                     "pool cannot beat serial — this A/B still gates "
                     "determinism and catches pathological overhead"),
        },
        "wallclock": {
            "serial_s": [round(t, 3) for t in times["serial"]],
            "pool_s": [round(t, 3) for t in times["pool"]],
            "serial_round_s_min": round(min(times["serial"]) / args.rounds, 3),
            "pool_round_s_min": round(min(times["pool"]) / args.rounds, 3),
            "speedup_by_pair": [round(s, 3) for s in speedups],
            "speedup_best": round(max(speedups), 3),
            "speedup_median": round(statistics.median(speedups), 3),
        },
        "determinism": {
            "checkpoints_bit_identical": True,
            "tensors": len(reference.final_weights),
            "runs_compared": args.pairs * 2,
        },
        "metrics": registry.to_dict(),
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    print(f"  serial round min {report['wallclock']['serial_round_s_min']}s, "
          f"pool round min {report['wallclock']['pool_round_s_min']}s, "
          f"speedup best {report['wallclock']['speedup_best']}x "
          f"(cores={cores})")

    # 3. registry + deterministic diff gate (PR 5 tooling): pool vs serial
    # on dimensions that cannot flake on runner load
    if args.registry:
        cli = [sys.executable, "-m", "repro.obs", "runs"]
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        subprocess.run(cli + ["register", str(out_path),
                              "--name", f"bench-pr{bench_pr}-smoke",
                              "--kind", "bench", "--root", args.registry,
                              "--note", "serial vs shm worker pool"],
                       check=True, env=env)
        for side in ("serial", "pool"):
            subprocess.run(cli + ["register", str(base_dir / f"{side}-1"),
                                  "--name", f"bench-smoke-{side}",
                                  "--kind", "run", "--root", args.registry,
                                  "--note", f"{side} side of the A/B"],
                           check=True, env=env)
        verdict = subprocess.run(
            cli + ["diff", "bench-smoke-serial", "bench-smoke-pool",
                   "--root", args.registry,
                   "--dimensions", "round_bytes,alerts"],
            env=env)
        if verdict.returncode != 0:
            print("error: pool run regressed vs serial on deterministic "
                  f"dimensions (exit {verdict.returncode})", file=sys.stderr)
            return 1
        print("runs diff: pool matches serial on round_bytes,alerts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
