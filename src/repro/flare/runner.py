"""ProcessClientRunner: one OS process per federated client.

The deployment shape the paper actually runs — every clinical site is its
own NVFlare process talking to the server — reproduced with
:mod:`multiprocessing` over either fabric:

- :class:`~repro.flare.socket_transport.SocketMessageBus` — spokes over TCP
  loopback, the network-realistic path;
- :class:`~repro.flare.shm_transport.ShmMessageBus` — fork-inherited queues
  plus mmap'd tensor segments, the fast path for the persistent worker
  pool (``FLJob(transport="shm")``).

The parent process hosts the server (hub node +
:class:`~repro.flare.controller.ScatterAndGather`); each client process
hosts the same site a thread would — :func:`~repro.flare.client.build_site`,
``join``, ``serve``, ``stop`` — serving the task loop until the server's
``__stop__`` fan-out.  Workers stay warm across rounds: they are forked
once per run and keep their learner state, tuned allocator and BLAS pool
for every round they serve.

Control plane vs data plane: the certificate/nonce registration handshake
(:func:`~repro.flare.client.handshake`, the Fig. 3 "Token & SSH Protocols"
stage) runs in the parent *before* the fork, as it does for a threaded
site — it is the provisioning/admission step, and running it in-process
keeps the RSA material out of the child argument surface.  The child gets
only its startup kit, its join token and the server's session key, from
which both ends derive the HMAC channel; every task/result/heartbeat byte
after that crosses the fabric.

The default start method is ``fork`` (the only one that does not require
picklable learner factories); jobs whose factories pickle cleanly may pass
``start_method="spawn"``.

Telemetry mechanics live in :mod:`repro.obs.session`: a worker whose
runtime carries a :class:`~repro.obs.session.WorkerTelemetry` runs a
worker-mode :class:`~repro.obs.session.TelemetrySession` whose deltas this
module only carries — over the worker's bus on ``__telemetry__`` — into the
parent's :class:`~repro.obs.session.TelemetryCollector`.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..obs.session import TelemetryCollector, WorkerTelemetry
from .client import build_site, handshake
from .constants import TELEMETRY_TOPIC
from .filters import CompressionConfig
from .provision import StartupKit
from .shareable import Shareable
from .shm_transport import ShmMessageBus
from .socket_transport import SocketMessageBus
from .transport import ReceiveTimeout, SignatureError, Transport, TransportError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultPlan
    from .learner import Learner
    from .server import FLServer

__all__ = ["ProcessClientRunner", "ClientProcessConfig", "WorkerRuntime",
           "client_process_main", "TELEMETRY_TOPIC"]


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
    # Set when the run is telemetry-armed: every worker then streams its
    # spans, metrics and op profile to the parent (None = off).
    telemetry: WorkerTelemetry | None = None

    @classmethod
    def capture(cls, workers: int,
                telemetry: WorkerTelemetry | None = None) -> "WorkerRuntime":
        """Snapshot the parent's runtime, splitting BLAS threads among the
        ``workers`` that train concurrently (``min(n_sites, max_parallel)``)."""
        from ..autograd import get_backend, get_default_dtype
        from ..autograd._blas import recommended_blas_threads

        return cls(default_dtype=np.dtype(get_default_dtype()).name,
                   backend=get_backend(),
                   blas_threads=recommended_blas_threads(workers),
                   telemetry=telemetry)

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


def client_process_main(config: ClientProcessConfig,
                        learner_factory: Callable[[str], "Learner"],
                        gate=None, abort_signal=None) -> None:
    """Entry point of one client process: join, serve tasks, exit on stop.

    The site is built, joined, served and stopped exactly as a threaded one
    (see :mod:`repro.flare.client`); this process adds only its node — a
    socket spoke, or its inherited shm bus — and, when the run is
    telemetry-armed, the stream of deltas to the parent.
    """
    name = config.kit.participant.name
    telemetry = None
    if config.runtime is not None:
        config.runtime.apply()
        telemetry = config.runtime.telemetry
    # fork-inherited fabric (shm): the queues already exist; the site just
    # claims its endpoint and installs its keys
    bus = config.bus if config.bus is not None else SocketMessageBus.connect(
        config.address, fault_plan=config.fault_plan,
        heartbeat_interval=config.heartbeat_interval)
    try:
        site = build_site(config.kit, learner_factory, bus,
                          result_filters=config.extra_result_filters,
                          compression=config.compression,
                          gate=gate, abort_signal=abort_signal)
        site.join(config.token, config.server_name, config.server_key)
        session = None
        if telemetry is not None:
            # keys are installed: stream deltas to the server from here on
            def send(delta: dict) -> None:
                try:
                    bus.send_shareable(name, config.server_name, TELEMETRY_TOPIC,
                                       Shareable({"telemetry": delta}))
                except TransportError:
                    pass  # best-effort: a faulty fabric may eat a delta

            session = telemetry.session(name, send)
            session.registries.append(bus.metrics)
            session.start()
        try:
            site.serve(config.poll_timeout)
        finally:
            site.stop()
        if session is not None:
            session.stop()  # ships the final cumulative delta
    finally:
        if config.bus is None:
            bus.close()


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
                 max_parallel: int | None = None,
                 heartbeat_interval: float | None = 2.0,
                 poll_timeout: float = 1.0,
                 start_method: str = "fork",
                 connect_timeout: float = 30.0,
                 runtime: WorkerRuntime | None = None,
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
        self.max_parallel = max_parallel
        self.heartbeat_interval = heartbeat_interval
        self.poll_timeout = poll_timeout
        self.connect_timeout = connect_timeout
        self.runtime = runtime
        # Shared with the server's telemetry_sink so mid-round deltas and
        # the final drain land in one place; created lazily when absent.
        self.collector = collector
        self._ctx = multiprocessing.get_context(start_method)
        self._processes: dict[str, multiprocessing.process.BaseProcess] = {}
        self.tokens: dict[str, str] = {}

    # ------------------------------------------------------------------
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
            token = self.tokens[name] = handshake(self.server, self.kits[name])
            config = ClientProcessConfig(
                kit=self.kits[name], token=token, server_name=self.server.name,
                server_key=server_key, address=address,
                bus=self.hub if shm else None,
                runtime=self.runtime,
                fault_plan=self.hub.fault_plan, compression=self.compression,
                extra_result_filters=self.extra_result_filters,
                heartbeat_interval=self.heartbeat_interval,
                poll_timeout=self.poll_timeout)
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

        Mid-run deltas reach the collector through ``FLServer.telemetry_sink``;
        this reads what is still in flight (above all each worker's goodbye)
        until every live worker has said goodbye or the deadline expires,
        then has the collector mark a crashed worker's open spans aborted.
        Returns the collector's latest snapshot per worker.
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
