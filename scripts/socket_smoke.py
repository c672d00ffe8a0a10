#!/usr/bin/env python
"""Multi-process federation smoke run: sockets vs memory, same checkpoints.

Runs the same small deterministic federated job twice — once with threaded
clients on the in-memory bus, once with one OS process per client over the
TCP socket transport — with the health monitor armed on both, then asserts
the two fabrics produced bit-identical global checkpoints, that the socket
hub's receive buffers stayed within one update plus 64 KiB of control frames
(``stats.peak_receive_buffer_bytes``, the receive budget) and that no node
read a frame without a credit (``transport.credit_overdrafts`` in
``metrics.json``).  CI runs this as
the ``socket-smoke`` job and uploads the socket run's ``health.jsonl`` and
``stats.json``.

Usage::

    python scripts/socket_smoke.py --run-dir runs/socket-smoke
    python scripts/socket_smoke.py --run-dir /tmp/smoke --rounds 3 --clients 6
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
from repro.obs import HealthMonitor  # noqa: E402
from repro.obs.report import load_health  # noqa: E402
from repro.obs.rundir import HEALTH_FILE, METRICS_FILE  # noqa: E402


class ArithmeticLearner(Learner):
    """Deterministic learner: adds +1 to every weight, no RNG, no clock."""

    def __init__(self, site_name: str) -> None:
        super().__init__(name="ArithmeticLearner")
        self.site_name = site_name

    def train(self, dxo: DXO, fl_ctx) -> DXO:
        round_number = int(fl_ctx.get_prop("current_round", 0))
        data = {k: np.asarray(v) + 1.0 for k, v in dxo.data.items()}
        return DXO(DataKind.WEIGHTS, data=data,
                   meta={MetaKey.NUM_STEPS_CURRENT_ROUND: 10,
                         "train_loss": 1.0 / (1 + round_number)})

    def validate(self, dxo: DXO, fl_ctx) -> dict[str, float]:
        mean = float(np.mean([np.mean(np.asarray(v))
                              for v in dxo.data.values()]))
        return {"valid_acc": mean}


# 1 MiB + 2 KiB: an update is far above the frame size that takes a receive
# credit, so the hub's budget is exercised, and small enough for any runner.
WEIGHTS = {"layer.weight": np.zeros((512, 512), dtype=np.float32),
           "layer.bias": np.zeros(512, dtype=np.float32)}
# an update on the wire: the tensors plus codec manifest and envelope headers
LARGEST_PAYLOAD = sum(value.nbytes for value in WEIGHTS.values()) + 4096
# frames under the credit floor (control, telemetry) may sit beside it
CONTROL_SLACK = 64 << 10


def run_once(transport: str, run_dir: Path, rounds: int, clients: int):
    weights = {key: value.copy() for key, value in WEIGHTS.items()}
    job = FLJob(name="socket-smoke", initial_weights=weights,
                learner_factory=lambda name: ArithmeticLearner(name),
                num_rounds=rounds, min_clients=2, transport=transport)
    runner = SimulatorRunner(job, n_clients=clients, seed=0, run_dir=run_dir,
                             health=HealthMonitor(run_dir=run_dir), telemetry=True)
    return runner.run()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--clients", type=int, default=4)
    args = parser.parse_args(argv)

    base_dir = Path(args.run_dir)
    if base_dir.exists():
        shutil.rmtree(base_dir)

    results = {transport: run_once(transport, base_dir / transport,
                                   args.rounds, args.clients)
               for transport in ("memory", "socket")}

    memory_result, socket_result = results["memory"], results["socket"]
    for key in memory_result.final_weights:
        if not np.array_equal(memory_result.final_weights[key],
                              socket_result.final_weights[key]):
            print(f"error: checkpoint mismatch between fabrics at {key!r}")
            return 1
    print(f"checkpoints bit-identical across fabrics "
          f"({len(memory_result.final_weights)} tensors)")

    for transport, result in results.items():
        stats = result.stats
        print(f"{transport}: rounds={stats.num_rounds} "
              f"delivered={stats.messages_delivered} "
              f"bytes={stats.bytes_delivered} retries={stats.retries}")
        if stats.num_rounds != args.rounds:
            print(f"error: {transport} run finished {stats.num_rounds} of "
                  f"{args.rounds} rounds")
            return 1
        health_path = result.run_dir / HEALTH_FILE
        if not health_path.exists():
            print(f"error: {transport} run wrote no {HEALTH_FILE}")
            return 1
        round_records = [record for record in load_health(health_path)
                         if record["event"] == "round"]
        if len(round_records) != args.rounds:
            print(f"error: {transport} health log holds "
                  f"{len(round_records)} round records, "
                  f"expected {args.rounds}")
            return 1
    peak = socket_result.stats.peak_receive_buffer_bytes
    recorded = json.loads((socket_result.run_dir / "stats.json").read_text())
    print(f"socket hub receive buffers: peak {peak} bytes = "
          f"{peak / LARGEST_PAYLOAD:.2f} updates (budget 1, {args.clients} sites)")
    if not 0 < peak <= LARGEST_PAYLOAD + CONTROL_SLACK:
        print(f"error: peak_receive_buffer_bytes {peak} outside "
              f"(0, {LARGEST_PAYLOAD} + {CONTROL_SLACK}]")
        return 1
    metrics = json.loads((socket_result.run_dir / METRICS_FILE).read_text())
    overdrafts = sum(counter["value"] for counter in metrics["counters"]
                     if counter["name"] == "transport.credit_overdrafts")
    if overdrafts:
        print(f"error: {overdrafts:g} frame(s) read without a receive credit")
        return 1
    if recorded.get("peak_receive_buffer_bytes") != peak:
        print("error: stats.json does not carry peak_receive_buffer_bytes")
        return 1
    print(f"health artifacts: "
          f"{', '.join(str(r.run_dir / HEALTH_FILE) for r in results.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
