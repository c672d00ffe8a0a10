"""TelemetrySession: one switch that arms every instrument in a process.

Entering a session installs an enabled :class:`MetricsRegistry` as the
process-wide registry, a :class:`Tracer` as the process-wide tracer and an
:class:`OpProfiler` over the autograd layer; leaving it restores whatever
was installed before and writes three artifacts under the run directory::

    <run_dir>/metrics.json   counters / gauges / histograms
    <run_dir>/trace.jsonl    one span per line (header line first)
    <run_dir>/profile.json   per-autograd-op counts, seconds, bytes

``trace.jsonl`` is written **live**: a background flusher appends finished
spans every ``flush_interval`` seconds (and promptly after any span wider
than ``flush_threshold`` closes), so ``python -m repro.obs tail <run_dir>``
can follow a run while it executes and a crash loses at most one interval
of spans.  The stream ends with one ``{"event": "end", ...}`` footer so
readers can tell a finished trace from an aborted one.

A federation's worker processes run the same session with a ``send``
callable as their flush target instead of a run directory
(:meth:`WorkerTelemetry.session`).  Each flush then ships one *delta* to
the parent: the spans finished since the previous delta plus *cumulative*
metric and op-profile snapshots.  The parent session's
:class:`TelemetryCollector` folds the deltas in: worker spans join the live
``trace.jsonl``, and the latest snapshot per worker joins the exporter
scrape, ``metrics.json`` and ``profile.json``.  This module is the only one
that knows the delta's layout.

Render the artifacts with ``python -m repro.obs report <run_dir>``.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import metrics as _metrics
from . import trace as _trace
from .health import HealthMonitor
from .metrics import MetricsRegistry
from .profiler import OpProfiler, get_profiler
from .rundir import METRICS_FILE, PROFILE_FILE, TRACE_FILE
from .trace import Tracer

__all__ = ["TelemetrySession", "TraceStreamWriter", "TelemetryCollector",
           "WorkerTelemetry"]


def _sysmon_interval(value: bool | float) -> float | None:
    """A bool/float sysmon knob to a sampling interval (None = off)."""
    if value is True:
        from .sysmon import DEFAULT_INTERVAL

        return DEFAULT_INTERVAL
    if not value:
        return None
    return float(value)


class TraceStreamWriter:
    """Append-only ``trace.jsonl`` writer shared by every producer.

    The header line is written lazily on first use; every append is
    serialized under one lock and flushed to disk immediately, so a
    concurrent ``tail`` (or a post-crash read) always sees whole lines.
    """

    def __init__(self, path: str | Path, header: dict) -> None:
        self.path = Path(path)
        self._header = dict(header)
        self._lock = threading.Lock()
        self._fh = None
        self._n_records = 0
        self._closed = False

    def _ensure_open(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w")
            self._fh.write(json.dumps(self._header) + "\n")
            self._fh.flush()
        return self._fh

    def append(self, records: list[dict]) -> None:
        """Append record dicts (spans, process markers) as JSONL lines."""
        if not records:
            return
        with self._lock:
            if self._closed:
                return
            fh = self._ensure_open()
            for record in records:
                fh.write(json.dumps(record, default=str) + "\n")
                self._n_records += 1
            fh.flush()

    def close(self, footer: dict | None = None) -> None:
        with self._lock:
            if self._closed:
                return
            fh = self._ensure_open()
            if footer is not None:
                fh.write(json.dumps(dict(footer, n_records=self._n_records),
                                    default=str) + "\n")
            fh.flush()
            fh.close()
            self._fh = None
            self._closed = True


@dataclass(frozen=True)
class WorkerTelemetry:
    """How a worker process joins its parent's telemetry session.

    Minted by :meth:`TelemetrySession.worker_telemetry` in the parent and
    carried to each worker, which arms it with :meth:`session`.
    """

    trace_id: str | None = None
    # Cadence of the streamed deltas; each finished span wider than 50 ms
    # also kicks an immediate flush, so mid-run progress reaches the parent
    # promptly and a crash loses at most one interval of spans.
    flush_interval: float = 0.5
    # Sampling interval of the worker's resource monitor (None = off).
    sysmon: float | None = None

    def session(self, process: str,
                send: Callable[[dict], None]) -> "TelemetrySession":
        """The worker's session, flushing each delta through ``send``."""
        return TelemetrySession(None, trace_id=self.trace_id, process=process,
                                flush_interval=max(self.flush_interval, 0.05),
                                flush_threshold=0.05,
                                sysmon=self.sysmon or False, send=send)


class TelemetrySession:
    """Scoped enable-everything telemetry for one run directory.

    Parameters
    ----------
    run_dir:
        Where the artifacts land on exit (``None`` with ``send``).
    metrics, trace, profile:
        Individually disable a subsystem (all on by default).  A disabled
        subsystem writes no artifact and its pointer is absent from
        :meth:`artifact_paths`.
    health:
        Off by default.  ``True`` arms a :class:`HealthMonitor` writing
        ``health.jsonl`` under the run dir; pass a pre-configured monitor
        to control detectors/quarantine.  The session only owns the
        artifact pointer — whoever runs the federation (the controller via
        ``SimulatorRunner``) drives the monitor round by round.
    trace_id, process:
        Forwarded to the :class:`Tracer` — the federation runner labels
        the parent tracer ``server`` and hands the minted ``trace_id`` to
        every worker process.
    flush_interval:
        Cadence of the live flusher (seconds).  ``None`` disables
        streaming: the trace is then written once at :meth:`stop`, exactly
        like the metrics/profile artifacts.
    flush_threshold:
        Spans at least this wide kick an immediate flush when they close
        (a finished round shows up in ``tail`` without waiting out the
        interval).
    sysmon:
        Off by default.  ``True`` arms a
        :class:`~repro.obs.sysmon.SysMonitor` sampling this process's
        RSS/CPU/fd/shm usage into the session registry (tagged with
        ``process=``); a float sets the sampling interval in seconds.
    exporter:
        Off by default.  An int arms a
        :class:`~repro.obs.exporter.MetricsExporter` on that loopback
        port (0 = ephemeral) serving ``/metrics`` from
        :meth:`metrics_snapshot` and ``/healthz`` from the health monitor;
        pass a pre-built exporter to add extra snapshot sources first.
    send:
        Worker mode: each flush ships a delta through this callable, and
        :meth:`stop` a final one, instead of writing artifacts.  The tracer
        then adopts the parent's clock from the first task envelope.

    Registries outside the process-wide one (a message bus's) go in
    :attr:`registries` and join every snapshot the session exports.
    """

    def __init__(self, run_dir: str | Path | None, metrics: bool = True,
                 trace: bool = True, profile: bool = True,
                 health: bool | HealthMonitor = False,
                 trace_id: str | None = None, process: str | None = None,
                 flush_interval: float | None = 0.5,
                 flush_threshold: float = 0.2,
                 sysmon: bool | float = False,
                 exporter: "int | object | None" = None,
                 send: Callable[[dict], None] | None = None) -> None:
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.process = process
        self.registry: MetricsRegistry | None = MetricsRegistry() if metrics else None
        self.registries: list[MetricsRegistry] = []
        self.tracer: Tracer | None = (
            Tracer(trace_id=trace_id, process=process,
                   adopt_clock=send is not None) if trace else None)
        self.profiler: OpProfiler | None = OpProfiler() if profile else None
        if health is True:
            health = HealthMonitor(run_dir=self.run_dir)
        self.health: HealthMonitor | None = health or None
        self.sysmon = None
        self.sysmon_interval = _sysmon_interval(sysmon)
        if self.sysmon_interval is not None and self.registry is not None:
            from .sysmon import SysMonitor

            self.sysmon = SysMonitor(registry=self.registry,
                                     interval=self.sysmon_interval,
                                     process=process or "main")
        self._send = send
        self._seq = 0
        # the parent side of worker streaming
        self.workers = TelemetryCollector(self) if send is None else None
        self.exporter = None
        if exporter is not None:
            if isinstance(exporter, (int, bool)):
                from .exporter import MetricsExporter

                exporter = MetricsExporter(port=int(exporter))
            self.exporter = exporter
            if self.registry is not None:
                self.exporter.add_source(self.metrics_snapshot)
            if self.exporter.health is None:
                self.exporter.health = self.health
        self.flush_interval = flush_interval
        self.flush_threshold = flush_threshold
        self._writer: TraceStreamWriter | None = None
        self._flusher: threading.Thread | None = None
        self._flush_kick = threading.Event()
        self._flusher_stop = threading.Event()
        self._flush_lock = threading.Lock()
        self._previous_registry: MetricsRegistry | None = None
        self._previous_tracer: Tracer | None = None
        self._active = False

    # ------------------------------------------------------------------
    def artifact_paths(self) -> dict[str, str]:
        """Run-dir artifact pointers (deterministic, also valid pre-write)."""
        paths: dict[str, str] = {}
        if self.run_dir is None:
            return paths
        if self.registry is not None:
            paths["metrics"] = str(self.run_dir / METRICS_FILE)
        if self.tracer is not None:
            paths["trace"] = str(self.run_dir / TRACE_FILE)
        if self.profiler is not None:
            paths["profile"] = str(self.run_dir / PROFILE_FILE)
        if self.health is not None and self.health.health_path is not None:
            paths["health"] = str(self.health.health_path)
        return paths

    def worker_telemetry(self, flush_interval: float = 0.5) -> WorkerTelemetry:
        """The settings a worker process needs to join this session."""
        return WorkerTelemetry(
            trace_id=self.tracer.trace_id if self.tracer is not None else None,
            flush_interval=flush_interval,
            sysmon=self.sysmon_interval if self.sysmon is not None else None)

    def metrics_snapshot(self) -> dict:
        """What ``metrics.json`` and a scrape show: the session registry,
        :attr:`registries` and every worker's latest snapshot, summed."""
        merged = MetricsRegistry()
        for registry in [self.registry, *self.registries]:
            if registry is not None:
                merged.merge(registry)
        if self.workers is not None:
            for snapshot in self.workers.latest("metrics"):
                merged.merge_dict(snapshot)
        return merged.to_dict()

    # ------------------------------------------------------------------
    # live streaming
    # ------------------------------------------------------------------
    def _ensure_writer(self) -> TraceStreamWriter | None:
        if self.tracer is None or self._send is not None:
            return None
        if self._writer is None:
            self._writer = TraceStreamWriter(self.run_dir / TRACE_FILE,
                                             self.tracer.header())
        return self._writer

    def _delta(self, final: bool) -> dict:
        delta = {"client": self.process, "seq": self._seq, "final": final}
        if self.registry is not None:
            delta["metrics"] = self.metrics_snapshot()
        if self.profiler is not None:
            delta["profile"] = self.profiler.to_dict()
        if self.tracer is not None:
            delta["process"] = self.tracer.process
            delta["trace_id"] = self.tracer.trace_id
            delta["clock_offset"] = round(self.tracer.clock_offset, 6)
            delta["spans"] = self.tracer.drain()
            delta["open_spans"] = [] if final else self.tracer.open_spans()
        return delta

    def flush(self, final: bool = False) -> None:
        """Drain the session tracer's finished spans to the flush target:
        ``trace.jsonl``, or one delta through ``send`` (``final`` marks a
        worker's goodbye)."""
        if self._send is not None:
            with self._flush_lock:
                delta = self._delta(final)
                self._seq += 1
                self._send(delta)
            return
        writer = self._ensure_writer()
        if writer is not None and self.tracer is not None:
            writer.append(self.tracer.drain())

    def append_spans(self, spans: list[dict]) -> None:
        """Append externally-harvested spans (worker deltas) to the stream."""
        writer = self._ensure_writer()
        if writer is not None:
            writer.append(list(spans))

    def append_process(self, record: dict) -> None:
        """Append one ``{"event": "process", ...}`` marker to the stream."""
        writer = self._ensure_writer()
        if writer is not None:
            writer.append([dict(record, event=record.get("event", "process"))])

    def _flush_loop(self) -> None:
        while not self._flusher_stop.is_set():
            self._flush_kick.wait(self.flush_interval)
            self._flush_kick.clear()
            if self._flusher_stop.is_set():
                break
            self.flush()
            # coalesce kick bursts: one flush covers every span that
            # closed during it
            self._flusher_stop.wait(0.05)

    # ------------------------------------------------------------------
    def start(self) -> "TelemetrySession":
        if self._active:
            return self
        if self.registry is not None:
            self._previous_registry = _metrics.set_registry(self.registry)
        if self.tracer is not None:
            self._previous_tracer = _trace.set_tracer(self.tracer)
            if self.flush_interval is not None:
                self._ensure_writer()
                self.tracer.set_flush_hook(self._flush_kick.set, self.flush_threshold)
                self._flusher_stop.clear()
                self._flusher = threading.Thread(
                    target=self._flush_loop, name="telemetry-flusher", daemon=True)
                self._flusher.start()
        if self.profiler is not None:
            inherited = get_profiler()
            if self._send is not None and inherited is not None:
                # a forked worker inherits its parent's profiler hook, which
                # records into dicts nobody here will read
                inherited.uninstall()
            self.profiler.install()
        if self.sysmon is not None:
            self.sysmon.start()
        if self.exporter is not None:
            self.exporter.start()
        self._active = True
        return self

    def stop(self) -> dict[str, str]:
        """Restore previous instruments and write the artifacts (a worker
        session ships its final delta instead)."""
        if not self._active:
            return {}
        if self.sysmon is not None:
            # final sample lands in the session registry before it is saved
            self.sysmon.stop()
        if self._flusher is not None:
            self._flusher_stop.set()
            self._flush_kick.set()
            self._flusher.join(timeout=10.0)
            self._flusher = None
        if self.profiler is not None:
            self.profiler.uninstall()
        if self.tracer is not None:
            self.tracer.set_flush_hook(None)
            _trace.set_tracer(self._previous_tracer)
        if self.registry is not None and self._previous_registry is not None:
            _metrics.set_registry(self._previous_registry)
        self._active = False
        if self._send is not None:
            self.flush(final=True)
            return {}

        self.run_dir.mkdir(parents=True, exist_ok=True)
        if self.registry is not None:
            (self.run_dir / METRICS_FILE).write_text(
                json.dumps(self.metrics_snapshot(), indent=2))
        if self.tracer is not None:
            self.flush()
            if self._writer is not None:
                self._writer.close({"event": "end",
                                    "trace_id": self.tracer.trace_id})
        if self.profiler is not None:
            for snapshot in self.workers.latest("profile"):
                self.profiler.merge_dict(snapshot)
            self.profiler.save_json(self.run_dir / PROFILE_FILE)
        if self.health is not None:
            self.health.finalize()
        if self.exporter is not None:
            # last so a dashboard can scrape right through the run's tail
            self.exporter.stop()
        return self.artifact_paths()

    def __enter__(self) -> "TelemetrySession":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False


class TelemetryCollector:
    """Parent-side sink for the workers' streamed telemetry deltas.

    Ingests every delta a worker session sends, from any thread, and keeps:

    - the **latest cumulative** metric/profile snapshot per worker
      (idempotent under lost or reordered deltas, since each delta carries
      full totals; a delta whose ``seq`` is not newer is dropped);
    - the merged span stream: a ``process`` marker on each worker's first
      delta, then its spans, appended to the parent session's live
      ``trace.jsonl`` as they arrive;
    - crash forensics: the open spans reported by each worker's most
      recent delta.  :meth:`finalize` writes those of any worker that
      never sent its ``final=True`` goodbye as ``status="aborted"``
      records, so a crashed client's task is visible in the merged trace
      instead of silently missing.
    """

    def __init__(self, session: TelemetrySession | None = None) -> None:
        self.session = session
        self._lock = threading.Lock()
        self._latest: dict[str, dict] = {}
        self._open: dict[str, list[dict]] = {}
        self._seen_seq: dict[str, int] = {}
        self._finals: set[str] = set()
        self._finalized = False

    # ------------------------------------------------------------------
    def ingest(self, delta: dict) -> None:
        """Fold one worker delta in (safe from any thread)."""
        client = delta.get("client")
        if not isinstance(client, str):
            return
        seq = delta.get("seq", 0)
        with self._lock:
            if isinstance(seq, int) and seq <= self._seen_seq.get(client, -1):
                return  # stale or duplicated delta
            self._seen_seq[client] = seq if isinstance(seq, int) else 0
            announce = client not in self._latest
            self._latest[client] = {key: delta[key]
                                    for key in ("client", "metrics", "profile")
                                    if key in delta}
            self._open[client] = list(delta.get("open_spans") or [])
            if delta.get("final"):
                self._finals.add(client)
                self._open[client] = []
        if self.session is None:
            return
        if announce:
            self.session.append_process({
                "event": "process", "process": delta.get("process", client),
                "client": client, "trace_id": delta.get("trace_id"),
                "clock_offset": delta.get("clock_offset", 0.0)})
        spans = delta.get("spans")
        if spans:
            self.session.append_spans(spans)

    # ------------------------------------------------------------------
    def final_clients(self) -> set[str]:
        with self._lock:
            return set(self._finals)

    def snapshots(self) -> dict[str, dict]:
        """Latest cumulative snapshot per worker."""
        with self._lock:
            return {client: dict(snapshot)
                    for client, snapshot in self._latest.items()}

    def latest(self, part: str) -> list[dict]:
        """Each worker's latest ``"metrics"`` or ``"profile"`` snapshot, in
        client order."""
        with self._lock:
            return [self._latest[client][part] for client in sorted(self._latest)
                    if isinstance(self._latest[client].get(part), dict)]

    def finalize(self) -> list[dict]:
        """Mark never-closed spans of non-final workers as aborted.

        Returns the aborted-span records (also appended to the session's
        trace stream when one is attached).  Idempotent.
        """
        with self._lock:
            if self._finalized:
                return []
            self._finalized = True
            aborted = [
                dict(open_span, t_end=None, wall_s=None, status="aborted")
                for client, open_spans in sorted(self._open.items())
                if client not in self._finals
                for open_span in open_spans]
        if aborted and self.session is not None:
            self.session.append_spans(aborted)
        return aborted
