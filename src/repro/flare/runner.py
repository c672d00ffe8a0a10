"""ProcessClientRunner: one OS process per federated client.

The deployment shape the paper actually runs — every clinical site is its
own NVFlare process talking to the server — reproduced with
:mod:`multiprocessing` over either fabric:

- :class:`~repro.flare.socket_transport.SocketMessageBus` — spokes over TCP
  loopback, the network-realistic path;
- :class:`~repro.flare.shm_transport.ShmMessageBus` — fork-inherited queues
  plus mmap'd tensor segments, the fast path for the persistent worker
  pool (``SimulatorRunner(transport="shm")``).

The parent process hosts the server (hub node +
:class:`~repro.flare.controller.ScatterAndGather`); each client process
hosts a :class:`~repro.flare.client.FederatedClient` serving the task loop
until the server's ``__stop__`` fan-out.  Workers stay warm across rounds:
they are forked once per run and keep their learner state, tuned allocator
and BLAS pool for every round they serve.

Control plane vs data plane: the certificate/nonce registration handshake
(the Fig. 3 "Token & SSH Protocols" stage) runs in the parent *before* the
fork — it is the provisioning/admission step, and running it in-process
keeps the RSA material out of the child argument surface.  The child gets
only its startup kit, its join token and the server's session key, from
which both ends derive the HMAC channel; every task/result/heartbeat byte
after that crosses a real TCP socket.

The default start method is ``fork`` (the only one that does not require
picklable learner factories); jobs whose factories pickle cleanly may pass
``start_method="spawn"``.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .client import FederatedClient, session_key_from_token
from .constants import TELEMETRY_TOPIC, ReservedKey
from .filters import CompressionConfig
from .provision import StartupKit
from .security import sign
from .shareable import Shareable
from .shm_transport import ShmMessageBus
from .socket_transport import SocketMessageBus
from .transport import ReceiveTimeout, SignatureError, Transport, TransportError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultPlan
    from .learner import Learner
    from .server import FLServer

__all__ = ["ProcessClientRunner", "ClientProcessConfig", "WorkerRuntime",
           "TelemetryCollector", "client_process_main", "TELEMETRY_TOPIC"]


@dataclass
class WorkerRuntime:
    """Process-level knobs a forked client worker applies before serving.

    ``fork`` copies the parent's address space but not everything survives
    meaningfully: glibc's ``mallopt`` state is re-applied via the at-fork
    hook, while the numpy default dtype, the array backend and the BLAS
    thread-pool size are plain process state the parent captures here so
    every worker trains under the same configuration.  ``blas_threads``
    is the run's BLAS budget, ``recommended_blas_threads(k)`` for the ``k``
    sites that can train at once — the same number the threaded memory
    fabric resizes the parent's pool to — since ``k`` trainers each running
    an M-thread pool oversubscribe k*M ways otherwise (see
    ``docs/PERFORMANCE.md``).
    """

    default_dtype: str | None = None
    backend: str | None = None
    blas_threads: int | None = None
    telemetry: bool = False
    # Sampling interval of the per-worker resource monitor (None = off).
    # When set (and telemetry is on) every forked worker runs its own
    # repro.obs.sysmon.SysMonitor whose gauges — tagged with the site name
    # — ride the streamed telemetry deltas back to the parent.
    sysmon: float | None = None

    @classmethod
    def capture(cls, workers: int, telemetry: bool = False,
                sysmon: float | None = None) -> "WorkerRuntime":
        """Snapshot the parent's runtime, splitting BLAS threads among the
        ``workers`` that train concurrently (``min(n_sites, max_parallel)``)."""
        from ..autograd import get_backend, get_default_dtype
        from ..autograd._blas import recommended_blas_threads

        return cls(default_dtype=np.dtype(get_default_dtype()).name,
                   backend=get_backend(),
                   blas_threads=recommended_blas_threads(workers),
                   telemetry=telemetry,
                   sysmon=sysmon)

    def apply(self) -> None:
        from ..autograd import set_backend, set_default_dtype, tune_malloc
        from ..autograd._blas import set_blas_threads

        tune_malloc()  # idempotent; the at-fork hook normally beat us here
        if self.default_dtype is not None:
            set_default_dtype(self.default_dtype)
        if self.backend is not None:
            set_backend(self.backend)
        if self.blas_threads is not None:
            set_blas_threads(self.blas_threads)


@dataclass
class ClientProcessConfig:
    """Everything one client process needs to join and serve."""

    kit: StartupKit
    token: str
    server_name: str
    server_key: bytes
    address: tuple[str, int] | None = None
    bus: "Transport | None" = None
    runtime: WorkerRuntime | None = None
    fault_plan: "FaultPlan | None" = None
    compression: CompressionConfig | None = None
    extra_result_filters: list = field(default_factory=list)
    heartbeat_interval: float | None = 2.0
    poll_timeout: float = 1.0
    # Distributed tracing: the run-level trace id minted by the parent's
    # TelemetrySession, adopted by the worker's tracer so every process
    # contributes spans to one merged trace.
    trace_id: str | None = None
    # Cadence of the worker's streamed telemetry deltas; each finished task
    # span also kicks an immediate flush, so mid-run progress reaches the
    # parent promptly and a crash loses at most one interval of spans.
    telemetry_flush: float = 0.5


class _WorkerTelemetryExporter:
    """Streams one worker's telemetry to the server while it serves.

    Every ``interval`` seconds (or promptly after a span closes — the
    tracer's flush hook kicks the loop) the exporter ships one delta:
    spans finished since the previous delta plus *cumulative* snapshots of
    the metric registries (the parent keeps only the latest cumulative
    snapshot per worker, so a lost delta costs spans, never double-counts
    a counter).  The final delta (``final=True``) is sent on the way out;
    a crashed worker simply stops mid-stream and the parent marks its
    still-open spans aborted.
    """

    def __init__(self, bus: Transport, name: str, server_name: str,
                 registry, profiler, tracer, interval: float) -> None:
        self.bus = bus
        self.name = name
        self.server_name = server_name
        self.registry = registry
        self.profiler = profiler
        self.tracer = tracer
        self.interval = max(interval, 0.05)
        self._seq = 0
        self._kick = threading.Event()
        self._stop = threading.Event()
        self._send_lock = threading.Lock()
        self._thread: threading.Thread | None = None

    def start(self) -> "_WorkerTelemetryExporter":
        if self.tracer is not None:
            # Only spans wide enough to matter (a task, a training call)
            # kick an immediate flush; sub-50ms spans ride the interval.
            self.tracer.set_flush_hook(self.kick, threshold=0.05)
        self._thread = threading.Thread(target=self._loop,
                                        name=f"telemetry-{self.name}",
                                        daemon=True)
        self._thread.start()
        return self

    def kick(self) -> None:
        self._kick.set()

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._kick.wait(self.interval)
            self._kick.clear()
            if self._stop.is_set():
                break
            self.flush(final=False)
            # coalesce kick bursts (one flush covers every span that
            # closed during it, so back-to-back flushes add nothing)
            self._stop.wait(0.05)

    def snapshot(self, final: bool) -> dict:
        from . import codec as wire_codec_module

        delta = {
            "client": self.name,
            "seq": self._seq,
            "final": final,
            "metrics": self.registry.to_dict(),
            "profile": self.profiler.to_dict(),
            "transport": self.bus.metrics.to_dict(),
            "wire": wire_codec_module.wire_metrics.to_dict(),
        }
        if self.tracer is not None:
            delta["process"] = self.tracer.process
            delta["trace_id"] = self.tracer.trace_id
            delta["clock_offset"] = round(self.tracer.clock_offset, 6)
            delta["spans"] = self.tracer.drain()
            delta["open_spans"] = [] if final else self.tracer.open_spans()
        return delta

    def flush(self, final: bool = False) -> None:
        with self._send_lock:
            delta = self.snapshot(final)
            self._seq += 1
            try:
                self.bus.send_shareable(self.name, self.server_name,
                                        TELEMETRY_TOPIC,
                                        Shareable({"telemetry": delta}))
            except TransportError:
                pass  # best-effort: a faulty fabric may eat a delta

    def stop(self) -> None:
        """Stop the loop and ship the final cumulative snapshot."""
        self._stop.set()
        self._kick.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self.tracer is not None:
            self.tracer.set_flush_hook(None)
        self.flush(final=True)


def client_process_main(config: ClientProcessConfig,
                        learner_factory: Callable[[str], "Learner"],
                        gate=None, abort_signal=None) -> None:
    """Entry point of one client process: connect, serve tasks, exit on stop.

    Mirrors ``FederatedClient.serve_in_thread`` on its own node: idle
    receive timeouts keep the loop polling, corrupted frames (bad HMAC) are
    dropped without costing the process, and transport outages ride on the
    spoke's reconnect-with-backoff until the server's stop message lands.
    """
    name = config.kit.participant.name
    if config.runtime is not None:
        config.runtime.apply()
    registry = profiler = previous_registry = None
    tracer = previous_tracer = None
    sysmon = None
    exporter: _WorkerTelemetryExporter | None = None
    if config.runtime is not None and config.runtime.telemetry:
        from ..obs import metrics as obs_metrics
        from ..obs import trace as obs_trace
        from ..obs.metrics import MetricsRegistry
        from ..obs.profiler import OpProfiler, get_profiler
        from ..obs.trace import Tracer

        # fork copies the parent's installed profiler hook; detach that
        # inherited copy (it records into the parent session's dicts, which
        # no longer exist here in any useful sense) before arming our own
        inherited = get_profiler()
        if inherited is not None:
            inherited.uninstall()
        registry = MetricsRegistry()
        previous_registry = obs_metrics.set_registry(registry)
        profiler = OpProfiler().install()
        # Per-process tracer joined to the parent's trace: same trace_id,
        # site-named span ids, and a clock offset learned from the first
        # task's envelope so exported spans land on the parent's timeline.
        tracer = Tracer(trace_id=config.trace_id, process=name,
                        adopt_clock=True)
        previous_tracer = obs_trace.set_tracer(tracer)
        if config.runtime.sysmon is not None:
            # per-worker resource sampler: its site-tagged gauges live in
            # this registry, so every streamed delta carries them and the
            # parent's merged metrics (and exporter scrape) show RSS/CPU
            # per client process
            from ..obs.sysmon import SysMonitor

            sysmon = SysMonitor(registry=registry, process=name,
                                interval=config.runtime.sysmon).start()
    if config.bus is not None:
        # fork-inherited fabric (shm): the queues already exist; this
        # process just claims its endpoint and installs its keys below
        bus = config.bus
        owns_bus = False
    else:
        bus = SocketMessageBus.connect(config.address,
                                       fault_plan=config.fault_plan,
                                       heartbeat_interval=config.heartbeat_interval)
        owns_bus = True
    try:
        task_data_filters: list = []
        task_result_filters: list = list(config.extra_result_filters)
        if config.compression is not None:
            task_data_filters = config.compression.client_task_filters()
            task_result_filters += config.compression.client_result_filters()
        client = FederatedClient(config.kit, learner_factory(name), bus,
                                 task_result_filters=task_result_filters,
                                 task_data_filters=task_data_filters)
        client.token = config.token
        client.server_name = config.server_name
        bus.install_session_key(name, session_key_from_token(config.token))
        bus.register_peer(config.server_name)
        bus.install_session_key(config.server_name, config.server_key)
        client.fl_ctx.set_prop(ReservedKey.TOKEN, config.token)
        client.learner.initialize(client.fl_ctx)
        client.task_semaphore = gate
        if abort_signal is not None:
            client.abort_signal = abort_signal
        if registry is not None and profiler is not None:
            # keys are installed; start streaming deltas to the server
            exporter = _WorkerTelemetryExporter(
                bus, name, config.server_name, registry, profiler, tracer,
                interval=config.telemetry_flush).start()
        try:
            while True:
                try:
                    if not client.poll_once(timeout=config.poll_timeout):
                        break
                except ReceiveTimeout:
                    continue  # idle; keep serving
                except SignatureError as error:
                    client.log_warning("rejected corrupted/forged task: %s", error)
                except TransportError as error:
                    client.log_warning("transport hiccup: %s", error)
                    time.sleep(config.poll_timeout)
        finally:
            client.learner.finalize(client.fl_ctx)
        if exporter is not None:
            from ..obs import metrics as obs_metrics
            from ..obs import trace as obs_trace

            if sysmon is not None:
                sysmon.stop()  # final sample rides the goodbye delta
            profiler.uninstall()
            obs_metrics.set_registry(previous_registry)
            obs_trace.set_tracer(previous_tracer)
            exporter.stop()  # ships the final cumulative snapshot
    finally:
        if owns_bus:
            bus.close()


class TelemetryCollector:
    """Parent-side sink for the workers' streamed telemetry deltas.

    Ingests every ``__telemetry__`` delta — whether it arrives mid-round
    through :attr:`FLServer.telemetry_sink` or during the final drain —
    and maintains:

    - the **latest cumulative** metric/profile/transport/wire snapshot per
      worker (idempotent under lost or reordered deltas, since each delta
      carries full totals);
    - the merged span stream: span deltas are appended to the parent
      session's live ``trace.jsonl`` as they arrive;
    - crash forensics: the open spans reported by each worker's most
      recent delta.  :meth:`finalize` writes those of any worker that
      never sent its ``final=True`` goodbye as ``status="aborted"``
      records, so a crashed client's task is visible in the merged trace
      instead of silently missing.
    """

    def __init__(self, session=None) -> None:
        self.session = session
        self._lock = threading.Lock()
        self._latest: dict[str, dict] = {}
        self._open: dict[str, list[dict]] = {}
        self._seen_seq: dict[str, int] = {}
        self._finals: set[str] = set()
        self._announced: set[str] = set()
        self._finalized = False

    # ------------------------------------------------------------------
    def ingest(self, delta: dict) -> None:
        """Fold one worker delta in (safe from any thread)."""
        client = delta.get("client")
        if not isinstance(client, str):
            return
        seq = delta.get("seq", 0)
        announce = False
        with self._lock:
            if isinstance(seq, int) and seq <= self._seen_seq.get(client, -1):
                return  # stale or duplicated delta
            self._seen_seq[client] = seq if isinstance(seq, int) else 0
            self._latest[client] = {
                key: delta[key]
                for key in ("client", "metrics", "profile", "transport", "wire")
                if key in delta}
            self._open[client] = list(delta.get("open_spans") or [])
            if delta.get("final"):
                self._finals.add(client)
                self._open[client] = []
            if client not in self._announced:
                self._announced.add(client)
                announce = True
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
        """Latest cumulative snapshot per worker (the drain return shape)."""
        with self._lock:
            return {client: dict(snapshot)
                    for client, snapshot in self._latest.items()}

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


class ProcessClientRunner:
    """Launches and supervises one process per client site.

    Usage, given a hub-mode :class:`SocketMessageBus` and a registered
    :class:`FLServer` on it::

        runner = ProcessClientRunner(job.learner_factory, kits, server)
        tokens = runner.launch(client_names)
        ...  # run the controller against the hub
        server.stop_clients(client_names)
        runner.join()

    ``launch`` performs the registration handshake for every site in the
    parent (installing the client session keys on the hub), forks the
    client processes, and blocks until each spoke's endpoint announcement
    reaches the hub — so the first broadcast never races the connects.
    """

    def __init__(self, learner_factory: Callable[[str], "Learner"],
                 kits: dict[str, StartupKit], server: "FLServer", *,
                 compression: CompressionConfig | None = None,
                 extra_result_filters: list | None = None,
                 fault_plan: "FaultPlan | None" = None,
                 max_parallel: int | None = None,
                 heartbeat_interval: float | None = 2.0,
                 poll_timeout: float = 1.0,
                 start_method: str = "fork",
                 connect_timeout: float = 30.0,
                 runtime: WorkerRuntime | None = None,
                 trace_id: str | None = None,
                 telemetry_flush: float = 0.5,
                 collector: TelemetryCollector | None = None) -> None:
        hub = server.bus
        if not isinstance(hub, (SocketMessageBus, ShmMessageBus)):
            raise TypeError("ProcessClientRunner needs the server on a "
                            "SocketMessageBus or ShmMessageBus hub; got "
                            f"{type(hub).__name__}")
        if isinstance(hub, ShmMessageBus) and start_method != "fork":
            raise ValueError("the shm fabric requires start_method='fork' "
                             "(its queues are inherited, not pickled)")
        if start_method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"start method {start_method!r} unavailable on this platform "
                f"(have: {multiprocessing.get_all_start_methods()})")
        self.learner_factory = learner_factory
        self.kits = kits
        self.server = server
        self.hub = hub
        self.compression = compression
        self.extra_result_filters = list(extra_result_filters or [])
        self.fault_plan = fault_plan
        self.max_parallel = max_parallel
        self.heartbeat_interval = heartbeat_interval
        self.poll_timeout = poll_timeout
        self.connect_timeout = connect_timeout
        self.runtime = runtime
        self.trace_id = trace_id
        self.telemetry_flush = telemetry_flush
        # Shared with the server's telemetry_sink so mid-round deltas and
        # the final drain land in one place; created lazily when absent.
        self.collector = collector
        self._ctx = multiprocessing.get_context(start_method)
        self._processes: dict[str, multiprocessing.process.BaseProcess] = {}
        self.tokens: dict[str, str] = {}

    # ------------------------------------------------------------------
    def register(self, name: str) -> str:
        """Run the token handshake for ``name`` in the parent; returns the token."""
        kit = self.kits[name]
        nonce = self.server.issue_nonce(name)
        proof = sign(nonce, kit.keypair)
        token = self.server.register_client(kit.certificate, nonce, proof)
        self.tokens[name] = token
        self.server.log_info(
            "Successfully registered client:%s for project simulator_server. Token:%s",
            name, token)
        return token

    def launch(self, client_names: list[str]) -> dict[str, str]:
        """Handshake, fork and wait for every client to come online."""
        server_key = self.hub.session_key(self.server.name)
        if server_key is None:
            raise TransportError("server has no session key on the hub")
        shm = isinstance(self.hub, ShmMessageBus)
        if shm:
            # the children's inboxes must exist before the fork — a queue
            # created afterwards would be invisible to every other process
            address = None
            for name in client_names:
                self.hub.register_endpoint(name)
        else:
            address = self.hub.address
        # One shared cross-process gate bounds how many sites train at once,
        # mirroring the threaded simulator's max_parallel semaphore.
        gate = (self._ctx.Semaphore(self.max_parallel)
                if self.max_parallel is not None else None)
        # ... and one shared one-shot abort signal, the cross-process form of
        # the Event threaded clients share; the server sets it at run end.
        abort_signal = self.server.abort_signal = self._ctx.Event()
        for name in client_names:
            token = self.tokens.get(name) or self.register(name)
            config = ClientProcessConfig(
                kit=self.kits[name], token=token, server_name=self.server.name,
                server_key=server_key, address=address,
                bus=self.hub if shm else None,
                runtime=self.runtime,
                fault_plan=self.fault_plan, compression=self.compression,
                extra_result_filters=self.extra_result_filters,
                heartbeat_interval=self.heartbeat_interval,
                poll_timeout=self.poll_timeout,
                trace_id=self.trace_id,
                telemetry_flush=self.telemetry_flush)
            process = self._ctx.Process(
                target=client_process_main,
                args=(config, self.learner_factory, gate, abort_signal),
                name=f"fl-client-{name}", daemon=True)
            process.start()
            self._processes[name] = process
        self.hub.wait_for_endpoints(client_names, timeout=self.connect_timeout)
        return dict(self.tokens)

    # ------------------------------------------------------------------
    def drain_telemetry(self, timeout: float = 10.0) -> dict[str, dict]:
        """Drain remaining ``__telemetry__`` deltas after the stop fan-out.

        The workers stream deltas throughout the run (routed into the
        collector by ``FLServer.telemetry_sink``); this drains whatever is
        still in flight — most importantly each worker's ``final=True``
        goodbye — until every live worker has reported or the deadline
        expires, then marks the open spans of anyone who never said
        goodbye (a crashed process) as aborted in the merged trace.

        Returns ``{client_name: latest cumulative snapshot}`` — a crashed
        worker keeps the snapshot from its last streamed delta, so
        everything it flushed before dying survives.
        """
        if self.collector is None:
            self.collector = TelemetryCollector()
        collector = self.collector
        expected = set(self._processes)
        deadline = time.monotonic() + timeout
        while expected - collector.final_clients():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            # Workers that already died can never send a final delta; stop
            # waiting once every still-live worker has reported.
            if not (set(self.alive()) & (expected - collector.final_clients())) \
                    and self.hub.pending(self.server.name) == 0:
                break
            try:
                sender, topic, shareable = self.hub.receive(
                    self.server.name, timeout=min(remaining, 0.25),
                    topic=TELEMETRY_TOPIC)
            except ReceiveTimeout:
                continue  # re-check liveness/deadline
            except TransportError:
                break
            except SignatureError:
                continue  # chaos plans may corrupt the goodbye; skip it
            # stale round traffic is dropped; telemetry is all we want now
            snapshot = shareable.get("telemetry") if topic == TELEMETRY_TOPIC else None
            del shareable
            if isinstance(snapshot, dict):
                collector.ingest(snapshot)
        collector.finalize()
        return collector.snapshots()

    # ------------------------------------------------------------------
    def alive(self) -> list[str]:
        return [name for name, process in self._processes.items()
                if process.is_alive()]

    def join(self, timeout: float = 30.0) -> dict[str, int | None]:
        """Join every client process; stragglers are terminated.

        Returns the exit code per site (negative = killed by signal,
        ``None`` should not occur after the join/terminate ladder).
        """
        deadline = time.monotonic() + timeout
        for process in self._processes.values():
            while process.is_alive() and time.monotonic() < deadline:
                # keep reading: a worker sees __stop__ only once its last send is through
                self.server.abort_tasks()
                process.join(timeout=0.05)
        for name, process in self._processes.items():
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=5.0)
        return {name: process.exitcode
                for name, process in self._processes.items()}

    def terminate(self) -> None:
        """Hard-stop every client process (fault cleanup path)."""
        for process in self._processes.values():
            if process.is_alive():
                process.terminate()
        self.join(timeout=5.0)
