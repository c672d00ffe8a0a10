"""SimulatorRunner: run a whole federated job on one machine.

Reproduces NVFlare's simulator (the mode the paper's demonstration uses):
provision the project, register every site against the server with the
token handshake, host the sites (threads, forked workers, or the sequential
driver), run the ScatterAndGather workflow, and return the final/best models
with the collected statistics and the captured log transcript (Fig. 3).

Knob rule: :class:`~repro.flare.job.FLJob` says what the federation computes
and on which fabric (``transport``, ``compression``);
:class:`SimulatorRunner` says how it is hosted and observed (site count,
threads, parallelism, keys, faults, telemetry).
"""

from __future__ import annotations

import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..autograd._blas import recommended_blas_threads, set_blas_threads
from ..obs.health import HealthMonitor
from ..obs.rundir import STATS_FILE
from ..obs.session import TelemetrySession, _sysmon_interval
from .client import FederatedClient, build_site
from .codec import wire_totals
from .constants import EventType
from .controller import Barrier, Buffered, ScatterAndGather
from .events import FLComponent, LogCapture
from .faults import FaultPlan
from .fl_context import FLContext
from .job import FLJob
from .persistor import ModelPersistor
from .provision import Provisioner, default_project
from .runner import ProcessClientRunner, WorkerRuntime
from .server import FLServer
from .shm_transport import ShmMessageBus
from .socket_transport import SocketMessageBus
from .stats import RunStats
from .transport import MessageBus, Transport

__all__ = ["SimulatorRunner", "SimulationResult"]


@dataclass
class SimulationResult:
    """Outcome of one simulated federated run."""

    final_weights: dict[str, np.ndarray]
    best_weights: dict[str, np.ndarray]
    stats: RunStats
    tokens: dict[str, str]
    run_dir: Path
    log_text: str = ""
    cross_site: dict = field(default_factory=dict)


class SimulatorRunner:
    """Federated simulation: the job's sites on threads (``"memory"``) or
    forked workers (``"socket"`` / ``"shm"``), chosen by ``job.transport``."""

    def __init__(self, job: FLJob, n_clients: int = 8, seed: int = 0,
                 run_dir: str | Path | None = None, threads: bool = True,
                 capture_log: bool = True, key_bits: int = 512,
                 max_parallel: int = 2,
                 fault_plan: FaultPlan | None = None,
                 telemetry: bool = False,
                 health: bool | HealthMonitor = False,
                 telemetry_flush: float = 0.5,
                 metrics_port: int | None = None,
                 sysmon: bool | float | None = None) -> None:
        if n_clients <= 0:
            raise ValueError("n_clients must be positive")
        if max_parallel <= 0:
            raise ValueError("max_parallel must be positive")
        # the job's fabric (FLJob documents and validates it)
        self.transport = job.transport or "memory"
        if self.transport in ("socket", "shm") and not threads:
            raise ValueError(f"transport={self.transport!r} requires "
                             "threads=True (clients run in their own processes)")
        self.job = job
        self.n_clients = n_clients
        self.seed = seed
        self.threads = threads
        self.capture_log = capture_log
        self.key_bits = key_bits
        # Optional chaos scenario: run the whole job over a lossy bus.
        self.fault_plan = fault_plan
        # When on, the run is wrapped in a TelemetrySession writing
        # metrics.json / trace.jsonl / profile.json under run_dir (pointers
        # land in stats.telemetry).  ``telemetry_flush`` is how often each
        # worker process streams its trace/metrics delta to the parent —
        # lower means fresher live tails and less loss on a crash.
        self.telemetry = telemetry
        self.telemetry_flush = telemetry_flush
        # Live operations plane.  ``metrics_port`` arms a loopback
        # Prometheus exporter (0 = ephemeral port) serving /metrics and
        # /healthz for the duration of the run — implies telemetry.
        # ``sysmon`` arms the resource sampler (sys.rss_bytes and friends)
        # in the server and in every worker process: True = default
        # interval, a float = interval seconds; the default None arms it
        # exactly when the exporter is on.
        self.metrics_port = metrics_port
        if metrics_port is not None:
            self.telemetry = True
        if sysmon is None:
            sysmon = metrics_port is not None
        self.sysmon_interval = _sysmon_interval(sysmon)
        # Set while run() executes (telemetry runs only): the live
        # MetricsExporter, so callers can discover the bound port/url.
        self.metrics_exporter = None
        # Live health monitoring: per-client drift diagnostics + anomaly
        # alerts per round, written to run_dir/health.jsonl and surfaced on
        # stats.alerts.  ``True`` uses the default detector set (quarantine
        # off); pass a HealthMonitor to configure detectors/quarantine.
        self.health = health
        self.compression = job.compression
        # NVFlare's simulator multiplexes N clients over T threads; here all
        # clients have their own thread but at most ``max_parallel`` execute
        # a task at once, bounding peak training memory.
        self.max_parallel = max_parallel
        # How many sites can train at once: what the run's BLAS thread
        # budget (``recommended_blas_threads``) is split among, whether the
        # trainers are threads of this process or forked workers.
        self.concurrent_trainers = min(n_clients, max_parallel)
        self.run_dir = Path(run_dir) if run_dir is not None else Path(
            tempfile.mkdtemp(prefix=f"fl-{job.name}-"))

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Provision, register, train, tear down."""
        capture = LogCapture().attach() if self.capture_log else None
        if isinstance(self.health, HealthMonitor):
            monitor: HealthMonitor | None = self.health
            # A monitor built without a run dir writes this run's health.jsonl.
            if monitor.run_dir is None:
                monitor.run_dir = self.run_dir
        elif self.health:
            monitor = HealthMonitor(run_dir=self.run_dir)
        else:
            monitor = None
        # The parent tracer is labelled "server" and mints the run-level
        # trace_id every worker process adopts; spans stream to
        # run_dir/trace.jsonl live (tail the run with
        # ``python -m repro.obs tail <run_dir>``).
        session = (TelemetrySession(self.run_dir, health=monitor or False,
                                    process="server",
                                    sysmon=self.sysmon_interval or False,
                                    exporter=self.metrics_port).start(threads=False)
                   if self.telemetry else None)
        self.metrics_exporter = session.exporter if session is not None else None
        # Threaded clients and the server's evaluator share this process's
        # BLAS pool: size it like a worker's for the run, or concurrent
        # GEMMs serialise and spin on it.  Sequential runs have one caller.
        previous_blas = (
            set_blas_threads(recommended_blas_threads(self.concurrent_trainers))
            if self.transport == "memory" and self.threads else None)
        try:
            return self._run_inner(capture, session, monitor)
        finally:
            if previous_blas is not None:
                set_blas_threads(previous_blas)
            if session is not None:
                session.stop()  # finalizes the health artifact too
            elif monitor is not None:
                monitor.finalize()
            self.metrics_exporter = None
            if capture is not None:
                capture.detach()

    # ------------------------------------------------------------------
    def _run_inner(self, capture: LogCapture | None,
                   session: TelemetrySession | None = None,
                   monitor: HealthMonitor | None = None) -> SimulationResult:
        project = default_project(n_clients=self.n_clients, name=self.job.name)
        kits = Provisioner(project, seed=self.seed, key_bits=self.key_bits).provision()
        client_names = [spec.name for spec in project.clients]
        fabric = {"memory": MessageBus, "socket": SocketMessageBus,
                  "shm": ShmMessageBus}[self.transport]
        # socket: the hub node, routing between the server endpoint and the
        # per-process spokes; shm: one fabric the forked workers inherit
        bus = fabric(fault_plan=self.fault_plan)
        server: FLServer | None = None
        sites: list[FederatedClient] = []  # hosted by this process
        workers: ProcessClientRunner | None = None
        try:
            server = FLServer(kits["server"], bus, seed=self.seed)
            server.log_info("Create the simulate clients.")
            if session is not None:
                # the bus's always-on registry (delivery totals, per-topic
                # latency, injected faults) joins the scrape and metrics.json
                session.registries.append(bus.metrics)
            if self.transport == "memory":
                gate = threading.Semaphore(self.max_parallel)
                for name in client_names:
                    site = build_site(kits[name], self.job.learner_factory, bus,
                                      result_filters=self.job.task_result_filters,
                                      compression=self.compression, gate=gate,
                                      abort_signal=server.abort_signal)
                    site.register(server)
                    sites.append(site)
                    if self.threads:
                        site.serve_in_thread()
            else:
                workers = ProcessClientRunner(
                    self.job.learner_factory, kits, server,
                    compression=self.compression,
                    extra_result_filters=list(self.job.task_result_filters),
                    max_parallel=self.max_parallel,
                    runtime=WorkerRuntime.capture(
                        self.concurrent_trainers,
                        telemetry=(session.worker_telemetry(self.telemetry_flush)
                                   if session is not None else None)),
                    collector=session.workers if session is not None else None)
                if session is not None:
                    server.telemetry_sink = session.workers.ingest
                # forks before the controller copies the initial weights, so
                # no worker inherits a model copy
                workers.launch(client_names)
            if session is not None:
                # after the last fork: no worker inherits a telemetry thread
                # that could hold a lock the child then waits on
                session.start_threads()
            controller = self._controller(server, client_names, monitor, sites)
            wire_before = wire_totals()
            stats = controller.run()
        finally:
            self._teardown(server, bus, sites, workers, session)

        final_weights = controller.global_weights
        # Per-run wire accounting: the codec registry is cumulative per
        # process, so the run's share is the before/after delta.
        wire_after = wire_totals()

        def _wire_delta(prefix: str) -> int:
            return int(
                sum(v for k, v in wire_after.items() if k.startswith(prefix))
                - sum(v for k, v in wire_before.items() if k.startswith(prefix)))

        stats.wire_bytes_raw = _wire_delta("transport.bytes_raw")
        stats.wire_bytes_encoded = _wire_delta("transport.bytes_encoded")
        if session is not None:
            if session.sysmon is not None:
                session.sysmon.sample()  # capture the end-of-run high water
                stats.peak_rss_bytes = int(session.sysmon.peak_rss_bytes)
            stats.telemetry = session.artifact_paths()
        elif monitor is not None and monitor.health_path is not None:
            stats.telemetry = {"health": str(monitor.health_path)}
        if session is not None or monitor is not None:
            # Registry fodder: a run dir with stats.json + health.jsonl is
            # self-describing for ``python -m repro.obs runs list/diff``.
            stats.save_json(self.run_dir / STATS_FILE)
        try:
            best_weights = controller.persistor.load_best()
        except FileNotFoundError:
            best_weights = dict(final_weights)
        return SimulationResult(
            final_weights=final_weights,
            best_weights=best_weights,
            stats=stats,
            tokens=dict(server.tokens),
            run_dir=self.run_dir,
            log_text=capture.text() if capture is not None else "",
        )

    def _controller(self, server: FLServer, client_names: list[str],
                    monitor: HealthMonitor | None,
                    sites: list[FederatedClient]) -> ScatterAndGather:
        job = self.job
        if job.mode == "async":
            policy = Buffered(job.buffer_size, job.concurrency,
                              job.staleness_alpha, job.max_staleness)
        else:
            policy = Barrier(job.clients_per_round)
        return ScatterAndGather(
            server=server,
            client_names=client_names,
            initial_weights=job.initial_weights,
            aggregator=job.aggregator_factory(),
            persistor=ModelPersistor(self.run_dir / "models"),
            num_rounds=job.num_rounds,
            evaluator=job.evaluator,
            result_filters=job.server_result_filters,
            min_clients=job.min_clients,
            result_timeout=job.result_timeout,
            max_failed_rounds=job.max_failed_rounds,
            sampling_seed=job.sampling_seed,
            compression=self.compression,
            health=monitor,
            policy=policy,
            # Deterministic single-thread mode: nobody serves the sites,
            # so a listener runs their polls off each dispatch wave.
            listeners=[] if self.threads else [_SequentialDriver(sites)],
        )

    @staticmethod
    def _teardown(server: FLServer | None, bus: Transport, sites: list[FederatedClient],
                  workers: ProcessClientRunner | None,
                  session: TelemetrySession | None) -> None:
        """Stop, drain, join and close whatever setup started — after a
        completed run, a controller error or a failed setup alike."""
        stop_error: Exception | None = None
        try:
            if server is None:
                return
            # already set after a completed run; an aborted one (controller
            # or listener raised) must not leave sites training either
            server.abort_signal.set()
            # Best effort: the stop fan-out may be partially undeliverable on
            # a faulty fabric.  A site thread's stop flag and the workers'
            # join-or-terminate ladder do not depend on it.
            started = [site.name for site in sites]
            if workers is not None:
                started += list(workers.tokens)
            server.stop_clients(started)
            if workers is not None:
                if session is not None:
                    # each worker ships its metrics/profile on the way out;
                    # collect before join() so nothing is lost to teardown
                    workers.drain_telemetry()
                workers.join()
            for site in sites:
                try:
                    site.stop()
                except Exception as error:  # keep stopping the rest first
                    stop_error = stop_error or error
        finally:
            bus.close()
        # don't mask an in-flight setup or controller error with a stop error
        if stop_error is not None and sys.exc_info()[0] is None:
            raise stop_error


class _SequentialDriver(FLComponent):
    """Runs the clients on the controller's thread (``threads=False``).

    Every tasked client polls exactly once per TASKS_BROADCAST event — the
    controller fires one per dispatch wave — so sites answer
    deterministically in registration order: the basis of the
    bit-reproducibility gates.
    """

    def __init__(self, clients: list[FederatedClient]) -> None:
        super().__init__()
        self.clients = clients

    def handle_event(self, event_type: str, fl_ctx: FLContext) -> None:
        if event_type == EventType.TASKS_BROADCAST:
            for client in self.clients:
                # only clients actually tasked this wave have a message
                if client.bus.pending(client.name):
                    client.serve_once(timeout=5.0)
