"""SimulatorRunner: run a whole federated job in one process.

Reproduces NVFlare's simulator (the mode the paper's demonstration uses):
provision the project, create the simulated clients, register them against
the server with the token handshake, serve each client on its own thread,
run the ScatterAndGather workflow, and return the final/best models with the
collected statistics and the captured log transcript (Fig. 3).
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
from . import codec as wire_codec_module
from .client import FederatedClient
from .constants import EventType
from .controller import Barrier, Buffered, ScatterAndGather
from .dxo import set_wire_codec
from .events import FLComponent, LogCapture
from .faults import FaultPlan, FaultyMessageBus
from .filters import CompressionConfig
from .fl_context import FLContext
from .job import FLJob
from .persistor import ModelPersistor
from .provision import Provisioner, default_project
from .runner import ProcessClientRunner, WorkerRuntime
from .sampling import make_sampler
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
    """Single-process federated simulation with threaded clients."""

    def __init__(self, job: FLJob, n_clients: int = 8, seed: int = 0,
                 run_dir: str | Path | None = None, threads: bool = True,
                 capture_log: bool = True, key_bits: int = 512,
                 max_parallel: int = 2,
                 fault_plan: FaultPlan | None = None,
                 telemetry: bool = False,
                 health: bool | HealthMonitor = False,
                 compression: CompressionConfig | str | None = None,
                 wire_codec: str | None = None,
                 transport: str | None = None,
                 telemetry_flush: float = 0.5,
                 metrics_port: int | None = None,
                 sysmon: bool | float | None = None) -> None:
        if n_clients <= 0:
            raise ValueError("n_clients must be positive")
        if max_parallel <= 0:
            raise ValueError("max_parallel must be positive")
        # Which fabric carries the job: "memory" = threaded clients on the
        # in-process bus, "socket" = one OS process per client over TCP
        # loopback, "shm" = one OS process per client over the fork-
        # inherited shared-memory fabric (the persistent worker pool).
        # The runner argument overrides the job's setting.
        self.transport = transport or job.transport or "memory"
        if self.transport not in ("memory", "socket", "shm"):
            raise ValueError("transport must be 'memory', 'socket' or "
                             f"'shm', got {self.transport!r}")
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
        # Wire-efficiency knobs: ``compression`` ("delta+fp16", a
        # CompressionConfig, or None; overrides job.compression) turns on
        # the whole delta/quantize/sparsify chain on both sides, and
        # ``wire_codec`` pins the tensor codec ("raw", "raw+deflate" or the
        # legacy "npz" oracle) for the duration of the run.
        self.compression = CompressionConfig.from_spec(compression) \
            if compression is not None else job.compression
        if wire_codec is None and self.compression is not None:
            wire_codec = self.compression.wire_codec
        self.wire_codec = wire_codec
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
                                    exporter=self.metrics_port).start()
                   if self.telemetry else None)
        self.metrics_exporter = session.exporter if session is not None else None
        previous_codec = (set_wire_codec(self.wire_codec)
                          if self.wire_codec is not None else None)
        # Threaded clients and the server's evaluator share this process's
        # BLAS pool: size it like a worker's for the run, or concurrent
        # GEMMs serialise and spin on it.  Sequential runs have one caller.
        previous_blas = (
            set_blas_threads(recommended_blas_threads(self.concurrent_trainers))
            if self.transport == "memory" and self.threads else None)
        try:
            return self._run_inner(capture, session, monitor)
        finally:
            if previous_codec is not None:
                set_wire_codec(previous_codec)
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
        provisioner = Provisioner(project, seed=self.seed, key_bits=self.key_bits)
        kits = provisioner.provision()

        bus: Transport
        if self.transport == "socket":
            # Hub node: listens on loopback, routes frames between the
            # server endpoint (local) and the per-process client spokes.
            bus = SocketMessageBus(fault_plan=self.fault_plan)
        elif self.transport == "shm":
            # One fabric shared by parent and forked workers: queues for
            # control, mmap'd /dev/shm segments for tensor bodies.
            bus = ShmMessageBus(fault_plan=self.fault_plan)
        else:
            bus = (FaultyMessageBus(self.fault_plan)
                   if self.fault_plan is not None else MessageBus())
        server = FLServer(kits["server"], bus, seed=self.seed)
        server.log_info("Create the simulate clients.")
        if session is not None:
            # the bus's always-on registry (delivery totals, per-topic
            # latency, injected faults) joins the scrape and metrics.json
            session.registries.append(bus.metrics)

        clients: list[FederatedClient] = []
        runner: ProcessClientRunner | None = None
        client_names = [spec.name for spec in project.clients]
        if self.transport in ("socket", "shm"):
            runner = ProcessClientRunner(
                self.job.learner_factory, kits, server,
                compression=self.compression,
                extra_result_filters=list(self.job.task_result_filters),
                fault_plan=self.fault_plan,
                max_parallel=self.max_parallel,
                runtime=WorkerRuntime.capture(
                    self.concurrent_trainers,
                    telemetry=(session.worker_telemetry(self.telemetry_flush)
                               if session is not None else None)),
                collector=session.workers if session is not None else None)
            if session is not None:
                server.telemetry_sink = session.workers.ingest
            runner.launch(client_names)
        else:
            gate = threading.Semaphore(self.max_parallel)
            for spec in project.clients:
                learner = self.job.learner_factory(spec.name)
                task_data_filters: list = []
                task_result_filters = list(self.job.task_result_filters)
                if self.compression is not None:
                    # fresh instances per client: DeltaDecode caches this
                    # site's reconstructed global model between rounds
                    task_data_filters = self.compression.client_task_filters()
                    task_result_filters += self.compression.client_result_filters()
                client = FederatedClient(
                    kits[spec.name], learner, bus,
                    task_result_filters=task_result_filters,
                    task_data_filters=task_data_filters)
                client.task_semaphore = gate
                client.abort_signal = server.abort_signal
                client.register(server)
                client.log_info(
                    "Successfully registered client:%s for project simulator_server. Token:%s",
                    spec.name, client.token)
                clients.append(client)

            if self.threads:
                for client in clients:
                    client.serve_in_thread()

        persistor = ModelPersistor(self.run_dir / "models")
        sampler = make_sampler(self.job.sampler,
                               site_sizes=self.job.site_sizes,
                               seed=self.job.sampling_seed)
        if self.job.mode == "async":
            policy = Buffered(self.job.buffer_size, self.job.concurrency,
                              self.job.staleness_alpha, self.job.max_staleness)
        else:
            policy = Barrier(self.job.clients_per_round)
        controller = ScatterAndGather(
            server=server,
            client_names=client_names,
            initial_weights=self.job.initial_weights,
            aggregator=self.job.aggregator_factory(),
            persistor=persistor,
            num_rounds=self.job.num_rounds,
            evaluator=self.job.evaluator,
            result_filters=self.job.server_result_filters,
            min_clients=self.job.min_clients,
            result_timeout=self.job.result_timeout,
            max_failed_rounds=self.job.max_failed_rounds,
            sampling_seed=self.job.sampling_seed,
            sampler=sampler,
            compression=self.compression,
            health=monitor,
            policy=policy,
            # Deterministic single-thread mode: nobody serves the clients,
            # so a listener runs their polls off each dispatch wave.
            listeners=[] if self.threads else [_SequentialDriver(clients)],
        )
        wire_before = wire_codec_module.wire_totals()

        try:
            stats = controller.run()
        finally:
            # already set after a completed run; an aborted one (controller
            # or listener raised) must not leave sites training either
            server.abort_signal.set()
            if runner is not None:
                # Stop fan-out may be partially undeliverable on a faulty
                # fabric; join() terminates any straggler processes anyway.
                server.stop_clients(client_names)
                if session is not None:
                    # each worker ships its metrics/profile on the way out;
                    # collect before join() so nothing is lost to teardown
                    runner.drain_telemetry()
                runner.join()
                bus.close()
            elif self.threads:
                # Join every worker thread even when the controller aborted
                # mid-run or the stop fan-out itself hits a faulty bus: the
                # stop flag (client.stop) does not depend on the __stop__
                # message being deliverable.
                server.stop_clients([client.name for client in clients])
                stop_error: Exception | None = None
                for client in clients:
                    try:
                        client.stop()
                    except Exception as error:  # keep joining the rest first
                        stop_error = stop_error or error
                # don't mask an in-flight controller error with a stop error
                if stop_error is not None and sys.exc_info()[0] is None:
                    raise stop_error

        final_weights = controller.global_weights
        # Per-run wire accounting: the codec registry is cumulative per
        # process, so the run's share is the before/after delta.
        wire_after = wire_codec_module.wire_totals()

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
            best_weights = persistor.load_best()
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
                    client.poll_once(timeout=5.0)
