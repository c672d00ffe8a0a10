"""One smoke runner for the federation's end-to-end gates.

    python -m repro.smoke <scenario> [--run-dir DIR]

Each scenario runs a small, seeded federated job, writes its run
directories under ``--run-dir`` (default ``runs/<scenario>``; emptied
first, and the run registry's root), and exits 0 when every gate holds or
1 with an ``error:`` line naming the first gate that failed.  Sizes, seeds
and budgets are constants of this module, not options.

``fabrics``
    A 2-round 4-site federated bert-mini MLM job on the memory, shm and
    socket fabrics, health monitor and telemetry armed.  The three global
    checkpoints are bit-identical; each run finishes every round and logs
    one health round record per round; on socket the hub's receive buffers
    peak within one encoded update plus 64 KiB of control frames (and
    ``stats.json`` carries that peak) with no frame read without a receive
    credit; ``runs diff`` of shm against memory on ``round_bytes,alerts``
    exits 0.
``trace``
    A 2-round 2-site socket run: one merged, clock-aligned ``trace.jsonl``
    (one trace id, process-prefixed unique span ids, ``client_task`` under
    its ``round``, ``local_train`` under a ``client_task``); ``repro.obs
    tail`` reaches the footer, ``repro.obs report`` renders the federation
    spans, and the Chrome export round-trips.
``health``
    A 2-round 4-site run diffs against ``benchmarks/baselines/health-clean``
    with exit 0; the same run with site-2 pushing against the cohort names
    site-2 in ``diverging-client`` alerts and diffs with exit 2; the report
    renders.
``live``
    A 2-round 3-site socket run with the metrics exporter armed, scraped
    mid-run: every scrape parses as Prometheus text, one scrape carries
    ``sys_rss_bytes`` for the server and every site, the core federation
    and transport series appear, ``/healthz`` is JSON with a status, and
    ``repro.obs tail`` follows the finished run to its footer with one line
    per round and one per site task.
``cohort``
    Two same-seed 1,000-site FedBuff-style runs of 2 commits: at most 2
    updates materialized at once, peak RSS within 1024 MiB, identical
    weights, staleness and wire bytes, and a registry diff that exits 0.
``wire``
    A 2-round 2-site job uncompressed, under ``delta+fp16`` and under
    ``delta+fp16+topk:0.1``: each compressed run puts fewer encoded bytes
    on the wire than the uncompressed one, and top-k stays within 176,000
    encoded bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import shutil
import sys
import threading
import time
import urllib.request
from dataclasses import replace
from http.client import HTTPException
from pathlib import Path
from typing import Callable

import numpy as np

from .data import (CohortSpec, EhrTokenizer, MlmCollator, SequenceDataset,
                   encode_cohort, generate_cohort, partition_balanced)
from .flare import DXO, DataKind, FLJob, Learner, MetaKey, SimulatorRunner
from .models import build_mlm_model
from .obs import HealthMonitor
from .obs import trace as obs_trace
from .obs.chrome import export_chrome_trace
from .obs.exporter import parse_prometheus_text
from .obs.metrics import MetricsRegistry
from .obs.report import load_health, load_trace, load_trace_events
from .obs.report import main as obs_cli
from .obs.rundir import HEALTH_FILE, METRICS_FILE, STATS_FILE, TRACE_FILE
from .obs.sysmon import SysMonitor
from .training import MlmPretrainLearner

HEALTH_BASELINE = (Path(__file__).resolve().parents[2]
                   / "benchmarks" / "baselines" / "health-clean")


class SmokeFailure(Exception):
    """A gate did not hold; the message says which."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def obs(*argv: str | Path) -> int:
    """``python -m repro.obs <argv>`` in this process; returns its exit code."""
    return obs_cli([str(arg) for arg in argv])


def obs_output(*argv: str | Path) -> tuple[int, str]:
    """:func:`obs` with its stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = obs(*argv)
    return code, out.getvalue()


def register_and_diff(root: Path, runs: dict[str, Path], dimensions: str) -> int:
    """Register ``runs`` (name -> dir) under ``root`` and diff the second
    against the first on ``dimensions``; returns the diff's exit code."""
    for name, path in runs.items():
        code = obs("runs", "register", path, "--name", name, "--kind", "run",
                   "--root", root)
        check(code == 0, f"could not register {path} (exit {code})")
    baseline, candidate = runs
    return obs("runs", "diff", baseline, candidate, "--root", root,
               "--dimensions", dimensions)


def same_weights(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def site_index(site_name: str) -> int:
    return int(site_name.rsplit("-", 1)[-1])


class ArithmeticLearner(Learner):
    """Deterministic learner: adds ``step`` to every weight, no RNG, no clock.

    Each task opens a ``local_train`` span (a no-op without telemetry);
    ``pause`` sleeps that long first, so a scraper sees the run mid-round.
    """

    def __init__(self, site_name: str, step: float = 1.0, steps: int = 10,
                 pause: float = 0.0) -> None:
        super().__init__(name="ArithmeticLearner")
        self.site_name = site_name
        self.step = step
        self.steps = steps
        self.pause = pause

    def train(self, dxo: DXO, fl_ctx) -> DXO:
        round_number = int(fl_ctx.get_prop("current_round", 0))
        time.sleep(self.pause)
        with obs_trace.span("local_train", site=self.site_name):
            data = {k: np.asarray(v) + self.step for k, v in dxo.data.items()}
        return DXO(DataKind.WEIGHTS, data=data,
                   meta={MetaKey.NUM_STEPS_CURRENT_ROUND: self.steps,
                         "train_loss": 1.0 / (1 + round_number)})

    def validate(self, dxo: DXO, fl_ctx) -> dict[str, float]:
        return {"valid_acc": mean_weight(dxo.data)}


class DriftLearner(Learner):
    """Adds seeded N(0, 1e-3) noise per site: an update that compresses like
    a trained one (most entries small, none zero)."""

    def __init__(self, site_name: str) -> None:
        super().__init__(name="DriftLearner")
        # seeded by site index: hash() of a str is salted per interpreter
        self.rng = np.random.default_rng(site_index(site_name))

    def train(self, dxo: DXO, fl_ctx) -> DXO:
        data = {k: np.asarray(v) + self.rng.normal(0, 1e-3, np.shape(v))
                .astype(np.asarray(v).dtype) for k, v in dxo.data.items()}
        return DXO(DataKind.WEIGHTS, data=data,
                   meta={MetaKey.NUM_STEPS_CURRENT_ROUND: 1})

    def validate(self, dxo: DXO, fl_ctx) -> dict[str, float]:
        return {"valid_acc": 0.0}


def mean_weight(weights: dict) -> float:
    return float(np.mean([np.mean(np.asarray(v)) for v in weights.values()]))


def small_weights() -> dict[str, np.ndarray]:
    return {"layer.weight": np.zeros((8, 8), dtype=np.float32),
            "layer.bias": np.zeros(8, dtype=np.float32)}


# ---------------------------------------------------------------------------
# fabrics
# ---------------------------------------------------------------------------
FABRICS = ("memory", "shm", "socket")
FABRIC_ROUNDS, FABRIC_SITES = 2, 4
# frames under the receive-credit floor (control, telemetry) may sit beside
# the one update a node holds
CONTROL_SLACK = 64 << 10


def mlm_job() -> FLJob:
    """A small but real federated bert-mini MLM job on a synthetic cohort."""
    cohort = generate_cohort(CohortSpec(n_patients=240, seed=5))
    dataset = encode_cohort(cohort, EhrTokenizer(cohort.vocab, max_len=24))
    sequences = SequenceDataset(dataset.input_ids, dataset.attention_mask)
    shards = {f"site-{i + 1}": sequences.subset(indices) for i, indices in
              enumerate(partition_balanced(len(sequences), FABRIC_SITES, seed=0))}

    def model_factory():
        return build_mlm_model("bert-mini", vocab_size=len(cohort.vocab),
                               seed=0, max_seq_len=24)

    def learner_factory(site_name: str) -> MlmPretrainLearner:
        # one collator per site: its masking RNG advances per call, so a
        # shared one would tie the masks to scheduling instead of the seed
        seed = 100 + site_index(site_name)
        return MlmPretrainLearner(
            site_name=site_name, model_factory=model_factory,
            train_data=shards[site_name],
            collator=MlmCollator(cohort.vocab, seed=seed),
            local_epochs=1, batch_size=16, lr=1e-3, seed=seed)

    return FLJob(name="fabrics", initial_weights=model_factory().state_dict(),
                 learner_factory=learner_factory, num_rounds=FABRIC_ROUNDS,
                 min_clients=FABRIC_SITES, result_timeout=300.0)


def fabrics(run_dir: Path) -> None:
    job = mlm_job()
    results = {}
    for transport in FABRICS:
        path = run_dir / transport
        results[transport] = SimulatorRunner(
            replace(job, transport=transport), n_clients=FABRIC_SITES, seed=7,
            run_dir=path, telemetry=True,
            health=HealthMonitor(run_dir=path)).run()

    reference = results["memory"].final_weights
    for transport, result in results.items():
        check(set(result.final_weights) == set(reference),
              f"{transport} checkpoint holds other tensors than memory's")
        for key in reference:
            check(np.array_equal(reference[key], result.final_weights[key]),
                  f"checkpoint mismatch between fabrics at {key!r} "
                  f"(memory vs {transport})")
    print(f"checkpoints bit-identical across {', '.join(FABRICS)} "
          f"({len(reference)} tensors)")

    for transport, result in results.items():
        stats = result.stats
        print(f"{transport}: rounds={stats.num_rounds} "
              f"delivered={stats.messages_delivered} "
              f"bytes={stats.bytes_delivered} retries={stats.retries}")
        check(stats.num_rounds == FABRIC_ROUNDS,
              f"{transport} run finished {stats.num_rounds} of "
              f"{FABRIC_ROUNDS} rounds")
        health_path = result.run_dir / HEALTH_FILE
        check(health_path.exists(), f"{transport} run wrote no {HEALTH_FILE}")
        round_records = [record for record in load_health(health_path)
                         if record["event"] == "round"]
        check(len(round_records) == FABRIC_ROUNDS,
              f"{transport} health log holds {len(round_records)} round "
              f"records, expected {FABRIC_ROUNDS}")

    socket_run = results["socket"]
    # one encoded update; its meta and envelope headers ride in the slack
    update = len(DXO(DataKind.WEIGHTS, data=reference).to_bytes())
    peak = socket_run.stats.peak_receive_buffer_bytes
    print(f"socket hub receive buffers: peak {peak} bytes = "
          f"{peak / update:.2f} updates (budget 1, {FABRIC_SITES} sites)")
    check(0 < peak <= update + CONTROL_SLACK,
          f"peak_receive_buffer_bytes {peak} outside "
          f"(0, {update} + {CONTROL_SLACK}]")
    recorded = json.loads((socket_run.run_dir / STATS_FILE).read_text())
    check(recorded.get("peak_receive_buffer_bytes") == peak,
          "stats.json does not carry peak_receive_buffer_bytes")
    metrics = json.loads((socket_run.run_dir / METRICS_FILE).read_text())
    overdrafts = sum(counter["value"] for counter in metrics["counters"]
                     if counter["name"] == "transport.credit_overdrafts")
    check(not overdrafts,
          f"{overdrafts:g} frame(s) read without a receive credit")

    verdict = register_and_diff(
        run_dir, {"fabrics-memory": run_dir / "memory",
                  "fabrics-shm": run_dir / "shm"}, "round_bytes,alerts")
    check(verdict == 0, "shm run regressed vs memory on deterministic "
                        f"dimensions (exit {verdict})")


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------
TRACE_ROUNDS, TRACE_SITES = 2, 2
ALIGN_SLACK = 0.005  # seconds; clock offsets are exact, this covers rounding


def trace(run_dir: Path) -> None:
    job = FLJob(name="trace-smoke", initial_weights=small_weights(),
                learner_factory=ArithmeticLearner, num_rounds=TRACE_ROUNDS,
                min_clients=TRACE_SITES, transport="socket")
    result = SimulatorRunner(job, n_clients=TRACE_SITES, seed=0,
                             run_dir=run_dir, telemetry=True,
                             telemetry_flush=0.2).run()
    check(result.stats.num_rounds == TRACE_ROUNDS,
          f"run finished {result.stats.num_rounds} of {TRACE_ROUNDS} rounds")

    trace_path = run_dir / TRACE_FILE
    check(trace_path.exists(), f"run wrote no {TRACE_FILE}")
    events = load_trace_events(trace_path)
    spans = load_trace(trace_path)

    header = next(e for e in events if e.get("schema"))
    trace_ids = {header["trace_id"]}
    trace_ids |= {e["trace_id"] for e in events
                  if e.get("event") in ("process", "end") and "trace_id" in e}
    check(len(trace_ids) == 1, f"expected one trace_id, found {sorted(trace_ids)}")
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
    check(len(rounds) == TRACE_ROUNDS, f"expected {TRACE_ROUNDS} round spans")
    check(len(tasks) == TRACE_ROUNDS * TRACE_SITES,
          f"expected {TRACE_ROUNDS * TRACE_SITES} client_task spans, "
          f"got {len(tasks)}")
    worker_processes = {s["process"] for s in tasks}
    check(len(worker_processes) == TRACE_SITES,
          f"client_task spans from {sorted(worker_processes)}, "
          f"expected {TRACE_SITES} worker processes")
    task_ids = {s["span_id"] for s in tasks}
    for task in tasks:
        parent = rounds[task["attrs"]["round"]]
        check(task["parent_id"] == parent["span_id"],
              f"client_task {task['span_id']} not under its round span")
        check(task["t_start"] >= parent["t_start"] - ALIGN_SLACK
              and task["t_end"] <= parent["t_end"] + ALIGN_SLACK,
              f"client_task {task['span_id']} interval escapes its round "
              "after clock alignment")
    check(len(trains) == TRACE_ROUNDS * TRACE_SITES,
          "every task should record one local_train")
    for train in trains:
        check(train["parent_id"] in task_ids,
              f"local_train {train['span_id']} not under a client_task")

    check(obs("tail", run_dir, "--idle-timeout", 5) == 0,
          "repro.obs tail saw no trace records")
    code, report = obs_output("report", run_dir)
    check(code == 0 and "client_task" in report and "round" in report,
          "report CLI missed the federation spans")

    chrome_path = export_chrome_trace(trace_path)
    payload = json.loads(chrome_path.read_text())
    complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    check(len(complete) == len(spans), "Chrome export span count mismatch")
    check(payload["otherData"]["trace_id"] == header["trace_id"],
          "Chrome export lost the trace_id")
    print(f"merged trace OK: {len(spans)} spans, {TRACE_SITES} worker "
          f"process(es), trace_id {header['trace_id']}")


# ---------------------------------------------------------------------------
# health
# ---------------------------------------------------------------------------
DIVERGING_SITE = "site-2"


def health_run(run_dir: Path, diverge: str | None):
    job = FLJob(
        name="health-smoke", initial_weights=small_weights(),
        learner_factory=lambda name: ArithmeticLearner(
            name, step=-40.0 if name == diverge else 1.0),
        num_rounds=2, min_clients=2,
        evaluator=lambda weights: {"valid_acc": round(mean_weight(weights), 6)})
    result = SimulatorRunner(job, n_clients=4, seed=0, run_dir=run_dir,
                             telemetry=True,
                             health=HealthMonitor(run_dir=run_dir)).run()
    for alert in result.stats.alerts:
        print(f"  alert: {alert.severity} {alert.detector} "
              f"r{alert.round_number} {alert.client or '-'}")
    check(json.loads((run_dir / STATS_FILE).read_text())["rounds"],
          "stats.json must hold the round records")
    return result


def health(run_dir: Path) -> None:
    health_run(run_dir / "clean", diverge=None)
    # round_bytes is deterministic: any change to it is a regression
    verdict = obs("runs", "diff", HEALTH_BASELINE, run_dir / "clean",
                  "--root", run_dir, "--bytes-threshold", "0",
                  "--dimensions", "round_bytes,final_metric,alerts")
    check(verdict == 0, f"clean run regressed vs {HEALTH_BASELINE.name} "
                        f"(exit {verdict})")
    code, _ = obs_output("report", run_dir / "clean")
    check(code == 0, f"report CLI failed on the clean run (exit {code})")

    dirty = health_run(run_dir / "dirty", diverge=DIVERGING_SITE)
    flagged = {a.client for a in dirty.stats.alerts
               if a.detector == "diverging-client"}
    check(flagged == {DIVERGING_SITE},
          f"expected diverging-client alerts naming {DIVERGING_SITE}, "
          f"got {sorted(flagged)}")
    verdict = obs("runs", "diff", HEALTH_BASELINE, run_dir / "dirty",
                  "--root", run_dir, "--dimensions", "alerts")
    check(verdict == 2, f"expected regression verdict (exit 2), got {verdict}")


# ---------------------------------------------------------------------------
# live
# ---------------------------------------------------------------------------
LIVE_ROUNDS, LIVE_SITES = 2, 3
SCRAPE_PERIOD = 0.1  # seconds; also the sampler and telemetry flush interval


def scrape_loop(runner: SimulatorRunner, scrapes: list[str],
                healthz: list[str], stop: threading.Event) -> None:
    while not stop.is_set():
        exporter = runner.metrics_exporter
        if exporter is not None:
            try:
                with urllib.request.urlopen(exporter.url + "/metrics",
                                            timeout=2) as response:
                    scrapes.append(response.read().decode())
                with urllib.request.urlopen(exporter.url + "/healthz",
                                            timeout=2) as response:
                    healthz.append(response.read().decode())
            except (OSError, HTTPException):
                pass  # exporter mid-start or mid-teardown; keep polling
        stop.wait(SCRAPE_PERIOD)


def live(run_dir: Path) -> None:
    job = FLJob(
        name="live-smoke",
        initial_weights={"dense.weight": np.zeros((16, 16), dtype=np.float32)},
        learner_factory=lambda name: ArithmeticLearner(
            name, step=np.float32(0.01), steps=1, pause=0.5),
        num_rounds=LIVE_ROUNDS,
        evaluator=lambda weights: {"mean_weight": mean_weight(weights)},
        transport="socket")
    runner = SimulatorRunner(job, n_clients=LIVE_SITES, seed=3,
                             run_dir=run_dir / "run", metrics_port=0,
                             sysmon=SCRAPE_PERIOD,
                             telemetry_flush=SCRAPE_PERIOD)
    scrapes: list[str] = []
    healthz: list[str] = []
    stop = threading.Event()
    scraper = threading.Thread(target=scrape_loop, daemon=True,
                               args=(runner, scrapes, healthz, stop))
    scraper.start()
    result = runner.run()
    stop.set()
    scraper.join(timeout=5)

    parsed = []
    for index, text in enumerate(scrapes):
        try:
            parsed.append(parse_prometheus_text(text))
        except ValueError as error:
            raise SmokeFailure(f"scrape {index} unparseable: {error}") from None
    check(any(parsed), "no scrapes succeeded at all")
    rss_procs = [{labels.get("process") for name, labels, _ in samples
                  if name == "sys_rss_bytes"} - {None} for samples in parsed]
    widest = max(range(len(parsed)), key=lambda i: len(rss_procs[i]))
    (run_dir / "scrape.txt").write_text(scrapes[widest])
    if healthz:
        (run_dir / "healthz.json").write_text(healthz[-1] + "\n")
    print(f"live: {len(scrapes)} scrape(s), rss processes "
          f"{sorted(rss_procs[widest])}, {len(healthz)} /healthz response(s)")

    expected = {"server"} | {f"site-{i + 1}" for i in range(LIVE_SITES)}
    check(rss_procs[widest] >= expected,
          f"no scrape carried sys_rss_bytes for server + all sites; best "
          f"saw {sorted(rss_procs[widest])}")
    # federation_rounds appears only once the first round closes, which may
    # postdate the widest resource scrape: any scrape may carry each series
    names = {name for samples in parsed for name, _, _ in samples}
    for series in ("federation_rounds", "transport_messages_delivered"):
        check(series in names, f"core series {series} missing from every scrape")
    check(bool(healthz), "no /healthz responses received")
    try:
        status = json.loads(healthz[-1])
    except json.JSONDecodeError as error:
        raise SmokeFailure(f"/healthz body is not JSON: {error}") from None
    check("status" in status, "/healthz JSON lacks a status field")
    check(result.stats.num_rounds == LIVE_ROUNDS,
          f"expected {LIVE_ROUNDS} rounds, got {result.stats.num_rounds}")

    code, text = obs_output("tail", run_dir / "run", "--idle-timeout", 10)
    check(code == 0, f"repro.obs tail exited {code} on the finished run")
    rounds = len(re.findall(r"^round \d+ complete in ", text, re.M))
    check(rounds == LIVE_ROUNDS,
          f"repro.obs tail printed {rounds} round line(s), not {LIVE_ROUNDS}")
    done = text.count(" done in ")
    check(done == LIVE_ROUNDS * LIVE_SITES,
          f"repro.obs tail printed {done} task line(s), not one per site "
          f"task ({LIVE_ROUNDS * LIVE_SITES})")


# ---------------------------------------------------------------------------
# cohort
# ---------------------------------------------------------------------------
COHORT_SITES, COHORT_COMMITS = 1000, 2
# one 512x512 fp32 matrix (1 MiB): 1,000 decoded updates alive at once would
# cost 1 GiB and trip the RSS budget; the streaming fold keeps O(1)
COHORT_DIM = 512
MAX_MATERIALIZED = 2
MAX_RSS_MB = 1024


def cohort_run(run_dir: Path, monitor: SysMonitor):
    def learner(site_name: str) -> ArithmeticLearner:
        index = site_index(site_name)
        return ArithmeticLearner(site_name, step=np.float32(0.001 * (1 + index % 13)),
                                 steps=1 + index % 7)

    job = FLJob(
        name="cohort-smoke",
        initial_weights={"dense.weight": np.zeros((COHORT_DIM, COHORT_DIM),
                                                  dtype=np.float32)},
        learner_factory=learner, num_rounds=COHORT_COMMITS, mode="async",
        buffer_size=32, concurrency=64, staleness_alpha=0.5,
        evaluator=lambda weights: {"mean_weight": mean_weight(weights)})
    started = time.perf_counter()
    result = SimulatorRunner(job, n_clients=COHORT_SITES, seed=11,
                             run_dir=run_dir, threads=False, key_bits=128).run()
    elapsed = time.perf_counter() - started
    monitor.sample()  # fold this run's high water into the peak
    result.stats.peak_rss_bytes = int(monitor.peak_rss_bytes)
    result.stats.save_json(run_dir / STATS_FILE)
    return elapsed, result


def staleness_trace(stats) -> list[int]:
    return [c.staleness for r in stats.rounds for c in r.client_records]


def cohort(run_dir: Path) -> None:
    # a private registry keeps the sampler out of the runs' own telemetry
    monitor = SysMonitor(registry=MetricsRegistry(), interval=0.5,
                         process="cohort-smoke").start()
    try:
        (elapsed_a, a), (elapsed_b, b) = (cohort_run(run_dir / f"run-{label}", monitor)
                                          for label in "ab")
    finally:
        monitor.stop()
    peak_materialized = max(a.stats.peak_materialized_updates,
                            b.stats.peak_materialized_updates)
    peak_rss_mb = monitor.peak_rss_bytes / 2**20
    print(f"cohort: peak materialized {peak_materialized} "
          f"(cap {MAX_MATERIALIZED}), peak RSS {peak_rss_mb:.0f} MiB "
          f"(cap {MAX_RSS_MB} MiB), wallclock {elapsed_a:.1f}s/{elapsed_b:.1f}s")

    check(peak_materialized <= MAX_MATERIALIZED,
          f"peak materialized updates {peak_materialized} exceeds the cap "
          f"{MAX_MATERIALIZED} — the fold is buffering the cohort")
    check(peak_rss_mb <= MAX_RSS_MB,
          f"peak RSS {peak_rss_mb:.0f} MiB exceeds the {MAX_RSS_MB} MiB budget")
    check(same_weights(a.final_weights, b.final_weights),
          "same-seed runs produced different final weights")
    check(staleness_trace(a.stats) == staleness_trace(b.stats),
          "same-seed runs saw different staleness sequences")
    check([r.bytes_on_wire for r in a.stats.rounds]
          == [r.bytes_on_wire for r in b.stats.rounds],
          "same-seed runs put different bytes on the wire")
    quorum = [r.quorum_met for r in a.stats.rounds]
    check(all(quorum) and len(quorum) == COHORT_COMMITS,
          f"expected {COHORT_COMMITS} committed windows, got quorum flags {quorum}")

    verdict = register_and_diff(
        run_dir, {"cohort-a": run_dir / "run-a", "cohort-b": run_dir / "run-b"},
        "round_bytes,final_metric,alerts")
    check(verdict == 0, "same-seed cohort runs diverged in the registry "
                        f"diff (exit {verdict})")


# ---------------------------------------------------------------------------
# wire
# ---------------------------------------------------------------------------
FP16 = "delta+fp16"
TOPK = "delta+fp16+topk:0.1"
# 159,748 B with 1-byte index gaps (+10% headroom); 4-byte absolute indices
# put 213,956 B on the wire
TOPK_MAX_ENCODED = 176_000


def wire(run_dir: Path) -> None:
    job = FLJob(name="wire-smoke",
                initial_weights={"w": np.zeros((128, 128), dtype=np.float32)},
                learner_factory=DriftLearner, num_rounds=2)
    stats = {}
    for name, spec in (("raw", None), ("fp16", FP16), ("topk", TOPK)):
        stats[spec] = SimulatorRunner(replace(job, compression=spec),
                                      n_clients=2, seed=0,
                                      run_dir=run_dir / name,
                                      capture_log=False).run().stats
        stats[spec].save_json(run_dir / name / STATS_FILE)
        print(f"{spec}: raw={stats[spec].wire_bytes_raw} "
              f"encoded={stats[spec].wire_bytes_encoded}")
    check(stats[FP16].wire_bytes_encoded < stats[None].wire_bytes_encoded,
          "compression must shrink tensor bytes on the wire")
    check(stats[TOPK].wire_bytes_encoded < stats[None].wire_bytes_encoded,
          "top-k must put fewer bytes on the wire than no compression")
    check(stats[TOPK].wire_bytes_encoded <= TOPK_MAX_ENCODED,
          "top-k pairs must ship their indices as narrow gaps")


SCENARIOS: dict[str, Callable[[Path], None]] = {
    "fabrics": fabrics, "trace": trace, "health": health,
    "live": live, "cohort": cohort, "wire": wire}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.smoke",
        description="Run one smoke scenario and gate on its result.")
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--run-dir", type=Path, default=None,
                        help="where the runs and the run registry go "
                             "(default runs/<scenario>; emptied first)")
    args = parser.parse_args(argv)
    run_dir = args.run_dir or Path("runs") / args.scenario
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    started = time.perf_counter()
    try:
        SCENARIOS[args.scenario](run_dir)
    except SmokeFailure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    print(f"{args.scenario}: every gate holds "
          f"({time.perf_counter() - started:.1f} s, artifacts in {run_dir})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
