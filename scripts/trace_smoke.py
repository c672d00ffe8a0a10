#!/usr/bin/env python
"""Distributed-tracing smoke run: one merged trace from a socket federation.

Runs a small deterministic 2-round federated job with one OS process per
client over the TCP socket transport, telemetry armed, then asserts the
distributed-tracing contract on the merged ``trace.jsonl``:

- one ``trace_id`` across the header, every process join marker and the
  end footer;
- globally unique, process-prefixed span ids;
- every worker ``client_task`` a child of the server's ``round`` span for
  the same round, and every ``local_train`` under a ``client_task``;
- clock-aligned timestamps: child intervals nest inside their remote
  parent's interval on the server's timeline;
- the report CLI renders the run, and the Chrome trace-event export
  round-trips.

CI runs this as the ``trace-smoke`` job and uploads ``trace.jsonl`` plus
the Chrome export.

Usage::

    python scripts/trace_smoke.py --run-dir runs/trace-smoke
    python scripts/trace_smoke.py --run-dir /tmp/smoke --rounds 3 --clients 4
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.flare import DXO, DataKind, FLJob, Learner, MetaKey, SimulatorRunner  # noqa: E402
from repro.obs import export_chrome_trace, trace as obs_trace  # noqa: E402
from repro.obs.report import load_trace, load_trace_events, render_report  # noqa: E402
from repro.obs.rundir import TRACE_FILE  # noqa: E402

ALIGN_SLACK = 0.005  # seconds; offsets are exact, this covers float rounding


class TracedLearner(Learner):
    """Deterministic learner opening a local_train span per task."""

    def __init__(self, site_name: str) -> None:
        super().__init__(name="TracedLearner")
        self.site_name = site_name

    def train(self, dxo: DXO, fl_ctx) -> DXO:
        round_number = int(fl_ctx.get_prop("current_round", 0))
        with obs_trace.span("local_train", site=self.site_name):
            data = {k: np.asarray(v) + 1.0 for k, v in dxo.data.items()}
        return DXO(DataKind.WEIGHTS, data=data,
                   meta={MetaKey.NUM_STEPS_CURRENT_ROUND: 10,
                         "train_loss": 1.0 / (1 + round_number)})

    def validate(self, dxo: DXO, fl_ctx) -> dict[str, float]:
        mean = float(np.mean([np.mean(np.asarray(v))
                              for v in dxo.data.values()]))
        return {"valid_acc": mean}


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"error: {message}")
        raise SystemExit(1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--clients", type=int, default=2)
    args = parser.parse_args(argv)

    run_dir = Path(args.run_dir)
    if run_dir.exists():
        shutil.rmtree(run_dir)

    weights = {"layer.weight": np.zeros((8, 8), dtype=np.float32),
               "layer.bias": np.zeros(8, dtype=np.float32)}
    job = FLJob(name="trace-smoke", initial_weights=weights,
                learner_factory=lambda name: TracedLearner(name),
                num_rounds=args.rounds, min_clients=args.clients,
                transport="socket")
    result = SimulatorRunner(job, n_clients=args.clients, seed=0,
                             run_dir=run_dir,
                             telemetry=True, telemetry_flush=0.2).run()
    check(result.stats.num_rounds == args.rounds,
          f"run finished {result.stats.num_rounds} of {args.rounds} rounds")

    trace_path = run_dir / TRACE_FILE
    check(trace_path.exists(), f"run wrote no {TRACE_FILE}")
    events = load_trace_events(trace_path)
    spans = load_trace(trace_path)

    header = next(e for e in events if e.get("schema"))
    trace_ids = {header["trace_id"]}
    trace_ids |= {e["trace_id"] for e in events
                  if e.get("event") in ("process", "end") and "trace_id" in e}
    check(len(trace_ids) == 1,
          f"expected one trace_id, found {sorted(trace_ids)}")
    check(any(e.get("event") == "end" for e in events),
          "trace stream has no end footer")

    ids = [s["span_id"] for s in spans]
    check(len(ids) == len(set(ids)), "span-id collision in merged trace")
    for span in spans:
        check(span["span_id"].startswith(span["process"] + "-"),
              f"span id {span['span_id']!r} not prefixed with its process")

    rounds = {s["attrs"]["round"]: s for s in spans if s["name"] == "round"}
    tasks = [s for s in spans if s["name"] == "client_task"]
    trains = [s for s in spans if s["name"] == "local_train"]
    check(len(rounds) == args.rounds, f"expected {args.rounds} round spans")
    check(len(tasks) == args.rounds * args.clients,
          f"expected {args.rounds * args.clients} client_task spans, "
          f"got {len(tasks)}")
    worker_processes = {s["process"] for s in tasks}
    check(len(worker_processes) == args.clients,
          f"client_task spans from {sorted(worker_processes)}, "
          f"expected {args.clients} worker processes")
    task_ids = {s["span_id"] for s in tasks}
    for task in tasks:
        parent = rounds[task["attrs"]["round"]]
        check(task["parent_id"] == parent["span_id"],
              f"client_task {task['span_id']} not under its round span")
        check(task["t_start"] >= parent["t_start"] - ALIGN_SLACK
              and task["t_end"] <= parent["t_end"] + ALIGN_SLACK,
              f"client_task {task['span_id']} interval escapes its round "
              "after clock alignment")
    check(len(trains) == args.rounds * args.clients,
          "every task should record one local_train")
    for train in trains:
        check(train["parent_id"] in task_ids,
              f"local_train {train['span_id']} not under a client_task")

    report = render_report(run_dir)
    check("client_task" in report and "round" in report,
          "report CLI missed the federation spans")

    chrome_path = export_chrome_trace(trace_path)
    payload = json.loads(chrome_path.read_text())
    complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    check(len(complete) == len(spans),
          "Chrome export span count mismatch")
    check(payload["otherData"]["trace_id"] == header["trace_id"],
          "Chrome export lost the trace_id")

    print(f"merged trace OK: {len(spans)} spans, {args.clients} worker "
          f"process(es), trace_id {header['trace_id']}")
    print(f"artifacts: {trace_path}, {chrome_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
