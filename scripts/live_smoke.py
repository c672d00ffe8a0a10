#!/usr/bin/env python
"""Live-operations smoke: scrape a federation mid-run and gate on the result.

Runs a short socket-transport federation with the metrics exporter armed
(``SimulatorRunner(metrics_port=0)``) and, while rounds are executing,
scrapes ``/metrics`` and ``/healthz`` exactly as a Prometheus server or a
liveness probe would.  The gates:

1. every scrape parses under the Prometheus text exposition format
   (:func:`repro.obs.exporter.parse_prometheus_text` raises on a malformed
   line);
2. at least one **mid-run** scrape carries ``sys_rss_bytes`` gauges tagged
   for the server AND every client process — proof that worker resource
   samples stream through the telemetry deltas while the run is live;
3. the core federation/transport series are present
   (``federation_rounds``, ``transport_messages_delivered``);
4. ``/healthz`` returns valid JSON with a status field.

Artifacts (for CI upload): the widest mid-run scrape (``scrape.txt``), the
last ``/healthz`` body (``healthz.json``) and a pass/fail summary
(``live_smoke.json``).  Exits non-zero on any gate failure.

Usage::

    python scripts/live_smoke.py --out-dir live-smoke
    python scripts/live_smoke.py --rounds 3 --clients 4 --train-seconds 0.5
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import urllib.request
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
from repro.obs.exporter import parse_prometheus_text  # noqa: E402


class PacedLearner(Learner):
    """Deterministic learner that sleeps long enough to be scraped mid-round."""

    train_seconds = 0.5

    def __init__(self, site_name: str) -> None:
        super().__init__(name="PacedLearner")
        self.site_name = site_name

    def train(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        time.sleep(self.train_seconds)
        updated = {key: np.asarray(value) + np.float32(0.01)
                   for key, value in dxo.data.items()}
        return DXO(DataKind.WEIGHTS, data=updated,
                   meta={MetaKey.NUM_STEPS_CURRENT_ROUND: 1})


def scrape_loop(runner: SimulatorRunner, scrapes: list, healthz: list,
                stop: threading.Event, period: float) -> None:
    while not stop.is_set():
        exporter = runner.metrics_exporter
        if exporter is not None:
            url = exporter.url
            try:
                with urllib.request.urlopen(url + "/metrics",
                                            timeout=2) as response:
                    scrapes.append(response.read().decode())
                with urllib.request.urlopen(url + "/healthz",
                                            timeout=2) as response:
                    healthz.append(response.read().decode())
            except Exception:
                pass  # exporter mid-start or mid-teardown; keep polling
        stop.wait(period)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="live-smoke")
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--clients", type=int, default=3)
    parser.add_argument("--train-seconds", type=float, default=0.5,
                        help="per-client sleep per round (scrape window)")
    parser.add_argument("--scrape-period", type=float, default=0.1)
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    PacedLearner.train_seconds = args.train_seconds

    job = FLJob(
        name="live-smoke",
        initial_weights={"dense.weight": np.zeros((16, 16), dtype=np.float32)},
        learner_factory=PacedLearner,
        num_rounds=args.rounds,
        evaluator=lambda weights: {
            "mean_weight": float(np.mean(weights["dense.weight"]))},
        transport="socket",
    )
    runner = SimulatorRunner(job, n_clients=args.clients, seed=3,
                             run_dir=out_dir / "run",
                             metrics_port=0, sysmon=args.scrape_period,
                             telemetry_flush=args.scrape_period)

    scrapes: list[str] = []
    healthz: list[str] = []
    stop = threading.Event()
    scraper = threading.Thread(
        target=scrape_loop, args=(runner, scrapes, healthz, stop,
                                  args.scrape_period), daemon=True)
    scraper.start()
    result = runner.run()
    stop.set()
    scraper.join(timeout=5)

    failures: list[str] = []
    expected_sites = {f"site-{i + 1}" for i in range(args.clients)}

    # gate 1: every scrape parses
    parsed = []
    for index, text in enumerate(scrapes):
        try:
            parsed.append(parse_prometheus_text(text))
        except ValueError as error:
            failures.append(f"scrape {index} unparseable: {error}")
            parsed.append([])

    # gate 2: some mid-run scrape shows RSS for the server and every site
    best_index, best_procs = -1, set()
    for index, samples in enumerate(parsed):
        procs = {labels.get("process") for name, labels, _ in samples
                 if name == "sys_rss_bytes"}
        if len(procs) > len(best_procs):
            best_index, best_procs = index, procs
    if not best_procs >= {"server"} | expected_sites:
        failures.append(
            f"no scrape carried sys_rss_bytes for server + all sites; best "
            f"saw {sorted(p for p in best_procs if p)}")

    # gate 3: core series present in some scrape (federation_rounds only
    # appears once the first round closes, which may postdate the widest
    # resource scrape)
    if parsed and any(samples for samples in parsed):
        names = {name for samples in parsed for name, _, _ in samples}
        for series in ("federation_rounds", "transport_messages_delivered"):
            if series not in names:
                failures.append(f"core series {series} missing from "
                                "every scrape")
    else:
        failures.append("no scrapes succeeded at all")

    # gate 4: /healthz is valid JSON with a status
    last_healthz: dict = {}
    if healthz:
        try:
            last_healthz = json.loads(healthz[-1])
            if "status" not in last_healthz:
                failures.append("/healthz JSON lacks a status field")
        except json.JSONDecodeError as error:
            failures.append(f"/healthz body is not JSON: {error}")
    else:
        failures.append("no /healthz responses received")

    if result.stats.num_rounds != args.rounds:
        failures.append(f"expected {args.rounds} rounds, "
                        f"got {result.stats.num_rounds}")

    (out_dir / "scrape.txt").write_text(
        scrapes[best_index] if best_index >= 0 else "")
    (out_dir / "healthz.json").write_text(
        json.dumps(last_healthz, indent=2) + "\n")
    summary = {
        "config": {"rounds": args.rounds, "clients": args.clients,
                   "transport": "socket",
                   "train_seconds": args.train_seconds},
        "observed": {
            "scrapes": len(scrapes),
            "rss_processes": sorted(p for p in best_procs if p),
            "peak_rss_bytes": result.stats.peak_rss_bytes,
            "healthz_status": last_healthz.get("status"),
        },
        "failures": failures,
    }
    (out_dir / "live_smoke.json").write_text(
        json.dumps(summary, indent=2) + "\n")

    print(f"live-smoke: {len(scrapes)} scrape(s), rss processes "
          f"{sorted(p for p in best_procs if p)}, healthz "
          f"{last_healthz.get('status')!r}")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
