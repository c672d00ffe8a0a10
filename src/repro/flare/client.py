"""FederatedClient: one site's lifecycle, the same on every host.

A daemon thread (:meth:`FederatedClient.serve_in_thread`), a forked worker
(:func:`~repro.flare.runner.client_process_main`) and the ``threads=False``
sequential driver run one site: :func:`handshake` in the server's process,
then :func:`build_site`, :meth:`~FederatedClient.join`,
:meth:`~FederatedClient.serve` (the driver calls
:meth:`~FederatedClient.serve_once` per dispatch wave) and
:meth:`~FederatedClient.stop` on the host.

Two run-level objects sit on every client beside its learner: the
``task_semaphore`` gate (how many sites train at once) and the one-shot
``abort_signal`` (the training workflow is over).  A TRAIN task that reaches
the front of the gate with the signal set is dropped unrun, the learner sees
the signal through ``fl_ctx`` (``ReservedKey.ABORT_SIGNAL``) and returns
early, and an aborted task sends no reply — so nothing of it is folded and
no thread or process outlives the run training for nobody.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import TYPE_CHECKING, Callable

from ..obs import trace as obs_trace
from .constants import DataKind, EventType, ReservedKey, ReturnCode, TaskName
from .dxo import DXO, MetaKey
from .events import FLComponent
from .filters import CompressionConfig, DXOFilter
from .fl_context import FLContext
from .learner import Learner
from .provision import StartupKit
from .security import sign
from .shareable import Shareable, from_dxo, make_reply, to_dxo
from .transport import (
    ReceiveTimeout,
    RetryPolicy,
    SignatureError,
    Transport,
    TransportError,
    send_with_retry,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .server import FLServer

__all__ = ["FederatedClient", "build_site", "handshake", "session_key_from_token"]

_STOP_TOPIC = "__stop__"


def session_key_from_token(token: str) -> bytes:
    """Both sides derive the HMAC session key from the issued join token."""
    return hashlib.sha256(token.encode("utf-8")).digest()


def handshake(server: "FLServer", kit: StartupKit) -> str:
    """The Fig. 3 "Token & SSH Protocols" stage; returns the join token.

    The site signs a server-issued nonce with its provisioned private key;
    the server verifies the certificate chain and answers with a token from
    which both ends derive the HMAC session key.  Runs in the server's
    process for every host, so no RSA material reaches a worker.
    """
    name = kit.participant.name
    nonce = server.issue_nonce(name)
    token = server.register_client(kit.certificate, nonce, sign(nonce, kit.keypair))
    FLComponent(name).log_info(
        "Successfully registered client:%s for project simulator_server. Token:%s",
        name, token)
    return token


def build_site(kit: StartupKit, learner_factory: Callable[[str], Learner],
               bus: Transport, *, result_filters: list[DXOFilter] | None = None,
               compression: CompressionConfig | None = None,
               gate=None, abort_signal=None) -> "FederatedClient":
    """One site as every host assembles it: the job's ``result_filters``,
    then fresh compression filters (DeltaDecode caches this site's model
    between rounds), the run's training ``gate`` and shared
    ``abort_signal`` (``threading`` or ``multiprocessing`` objects)."""
    task_data_filters: list[DXOFilter] = []
    task_result_filters = list(result_filters or [])
    if compression is not None:
        task_data_filters = compression.client_task_filters()
        task_result_filters += compression.client_result_filters()
    site = FederatedClient(kit, learner_factory(kit.participant.name), bus,
                           task_result_filters=task_result_filters,
                           task_data_filters=task_data_filters)
    site.task_semaphore = gate
    if abort_signal is not None:
        site.abort_signal = abort_signal
    return site


class FederatedClient(FLComponent):
    """One participating site: owns a learner and a startup kit."""

    def __init__(self, kit: StartupKit, learner: Learner, bus: Transport,
                 task_result_filters: list[DXOFilter] | None = None,
                 task_data_filters: list[DXOFilter] | None = None,
                 retry_policy: RetryPolicy | None = None) -> None:
        super().__init__(name=kit.participant.name)
        self.kit = kit
        self.learner = learner
        self.bus = bus
        self.task_result_filters = list(task_result_filters or [])
        self.task_data_filters = list(task_data_filters or [])
        self.retry_policy = retry_policy or RetryPolicy()
        self.retries = 0
        self.token: str | None = None
        self.server_name: str | None = None
        self.fl_ctx = FLContext(identity=self.name)
        self._thread: threading.Thread | None = None
        self._stopping = threading.Event()
        # Optional shared semaphore bounding how many clients train at once
        # (the simulator installs one, mirroring NVFlare's simulator thread
        # pool; training 8 BERTs concurrently on one box exhausts memory).
        self.task_semaphore: threading.Semaphore | None = None
        # Event-like and one-shot.  The simulator installs the run's shared
        # one (the server's Event for threads, a fork-inherited
        # multiprocessing Event in a worker process); a hand-driven client
        # keeps this private one, which its own stop() sets.
        self.abort_signal = threading.Event()
        bus.register_endpoint(self.name)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, server: "FLServer") -> str:
        """:func:`handshake` with ``server``, then :meth:`join`; returns the
        token.  The form for a site in the server's own process."""
        return self.join(handshake(server, self.kit), server.name)

    def join(self, token: str, server_name: str,
             server_key: bytes | None = None) -> str:
        """Take up the session a :func:`handshake` opened: install the
        session keys and initialize the learner.

        ``server_key`` is for a site on a node of its own (a forked worker):
        its node must learn to verify the server, whose key the server's
        node installed at startup.
        """
        self.token = token
        self.server_name = server_name
        self.bus.install_session_key(self.name, session_key_from_token(token))
        if server_key is not None:
            self.bus.register_peer(server_name)
            self.bus.install_session_key(server_name, server_key)
        self.fl_ctx.set_prop(ReservedKey.TOKEN, token)
        self.learner.initialize(self.fl_ctx)
        return token

    # ------------------------------------------------------------------
    # task processing
    # ------------------------------------------------------------------
    def process_task(self, task_name: str,
                     shareable: Shareable) -> Shareable | None:
        """Execute one task against the learner, applying filter chains;
        ``None`` (send nothing) for a TRAIN task the abort signal overtook.
        The task's ``"DXO"`` is taken out of ``shareable`` once decoded, so
        the payload is freed with the task, before the reply is sent.

        The transport attaches the server's trace context to the received
        shareable; opening the task span with it as ``remote_parent``
        stitches ``round -> client_task`` into one tree even when this
        client is a forked OS process with its own tracer.
        """
        round_number = shareable.get_header(ReservedKey.ROUND_NUMBER, 0)
        trace_ctx = shareable.pop(ReservedKey.TRACE_CTX, None)
        with obs_trace.span("client_task", remote_parent=trace_ctx,
                            client=self.name, task=task_name,
                            round=round_number) as task_span:
            reply = self._process_task_inner(task_name, shareable)
            if reply is None:
                task_span.set_attr("return_code", "ABORTED")
                return None
            # echo which round's task this answers, so the controller can
            # tell a late reply to an abandoned task from a current one
            reply.set_header(ReservedKey.ROUND_NUMBER, round_number)
            task_span.set_attr("return_code", reply.return_code)
        return reply

    def _process_task_inner(self, task_name: str,
                            shareable: Shareable) -> Shareable | None:
        self.fl_ctx.set_prop(ReservedKey.CURRENT_ROUND,
                             shareable.get_header(ReservedKey.ROUND_NUMBER, 0))
        abort = self.abort_signal
        self.fl_ctx.set_prop(ReservedKey.ABORT_SIGNAL, abort)
        try:
            dxo = to_dxo(shareable)
            # from here the received buffer lives only in the task's arrays
            del shareable["DXO"]
            # Decompression/reconstruction filters (fp16 dequantize, delta
            # decode) also signal unusable task data via ValueError — e.g. a
            # delta against a model version this client does not hold.
            for task_filter in self.task_data_filters:
                with obs_trace.span("filter", stage="task_data",
                                    filter=type(task_filter).__name__):
                    dxo = task_filter.process(dxo, self.fl_ctx)
        except ValueError as error:
            self.log_warning("task data for %r unusable: %s", task_name, error)
            return make_reply(ReturnCode.BAD_TASK_DATA)
        if dxo.data_kind == DataKind.WEIGHTS:
            # Remember the task's global model for DeltaEncode, which diffs
            # the outgoing result against it.  These arrays may be read-only
            # views into the received blob; every consumer copies on write.
            self.fl_ctx.set_prop(ReservedKey.GLOBAL_MODEL, dxo.data)
        try:
            result = self._run_task(task_name, dxo)
        finally:
            # the task's last reference outside this frame: once it returns,
            # the reply is encoded beside the result alone
            self.fl_ctx.remove_prop(ReservedKey.GLOBAL_MODEL)
        if not isinstance(result, DXO):
            return result  # None (aborted) or a payload-less reply
        result.set_meta_prop(MetaKey.CLIENT_NAME, self.name)
        reply = from_dxo(result)
        reply.set_return_code(ReturnCode.OK)
        reply.set_header(ReservedKey.CLIENT_NAME, self.name)
        reply.set_header(ReservedKey.TASK_NAME, task_name)
        return reply

    def _run_task(self, task_name: str, dxo: DXO) -> DXO | Shareable | None:
        """The learner and the result filters: the filtered result DXO, a
        payload-less error reply, or ``None`` for an aborted TRAIN task."""
        abort = self.abort_signal
        gate = self.task_semaphore
        try:
            if gate is not None:
                gate.acquire()
            try:
                if task_name == TaskName.TRAIN:
                    if abort.is_set():
                        return None  # the run ended while this task queued
                    self.fire_event(EventType.BEFORE_TRAIN_TASK, self.fl_ctx)
                    started = time.perf_counter()
                    result = self.learner.train(dxo, self.fl_ctx)
                    if abort.is_set():
                        return None  # cut short or too late: never folded
                    elapsed = time.perf_counter() - started
                    result.set_meta_prop("train_seconds", elapsed)
                    self.fire_event(EventType.AFTER_TRAIN_TASK, self.fl_ctx)
                elif task_name == TaskName.VALIDATE:
                    metrics = self.learner.validate(dxo, self.fl_ctx)
                    result = DXO(data_kind="METRICS", data=dict(metrics),
                                 meta={MetaKey.CLIENT_NAME: self.name})
                else:
                    return make_reply(ReturnCode.TASK_UNKNOWN)
            finally:
                if gate is not None:
                    gate.release()
        except Exception as error:  # surfaced as a return code, like NVFlare
            if task_name == TaskName.TRAIN and abort.is_set():
                return None  # the learner's way out of an aborted task
            self.log_error("task %s failed: %s", task_name, error)
            return make_reply(ReturnCode.EXECUTION_EXCEPTION)
        for result_filter in self.task_result_filters:
            with obs_trace.span("filter", stage="task_result",
                                filter=type(result_filter).__name__):
                result = result_filter.process(result, self.fl_ctx)
        return result

    # ------------------------------------------------------------------
    # message loop
    # ------------------------------------------------------------------
    def poll_once(self, timeout: float = 30.0) -> bool:
        """Receive and handle one message; False when told to stop."""
        sender, topic, shareable = self.bus.receive(
            self.name, timeout=timeout, topic="task", peer=self.server_name)
        if topic == _STOP_TOPIC:
            return False
        reply = self.process_task(topic, shareable)
        if reply is None:
            return True  # aborted task: nothing to send
        try:
            attempts = send_with_retry(self.bus, self.name, sender,
                                       f"{topic}:result", reply, self.retry_policy)
            self.retries += attempts - 1
        except TransportError as error:
            # The controller's quorum logic absorbs the loss; dying here
            # would take the whole client thread down with it.
            self.retries += self.retry_policy.max_attempts - 1
            self.log_warning("result for %r lost after %d attempt(s): %s",
                             topic, self.retry_policy.max_attempts, error)
        return True

    def serve_once(self, timeout: float = 1.0) -> bool:
        """One step of the serve loop: :meth:`poll_once` with the loop's
        error handling; False when told to stop.

        An idle receive timeout keeps the loop polling, a corrupted or
        forged task (bad HMAC) is logged and dropped without costing the
        site, and any other transport outage is logged and waited out for
        ``timeout`` (a socket spoke reconnects with backoff meanwhile).
        """
        try:
            return self.poll_once(timeout=timeout)
        except ReceiveTimeout:
            return True
        except SignatureError as error:
            self.log_warning("rejected corrupted/forged task: %s", error)
        except TransportError as error:
            self.log_warning("transport hiccup: %s", error)
            self._stopping.wait(timeout)
        return True

    def serve(self, poll_timeout: float = 1.0) -> None:
        """Serve tasks until the server's stop message or :meth:`stop`."""
        while not self._stopping.is_set() and self.serve_once(poll_timeout):
            pass

    def serve_in_thread(self) -> threading.Thread:
        """Run :meth:`serve` on a daemon thread (the threaded host)."""
        if self.token is None:
            raise RuntimeError(f"{self.name} must register before serving")

        def host() -> None:
            with obs_trace.span("client_thread", client=self.name):
                self.serve()

        self._thread = threading.Thread(target=host, name=f"client-{self.name}", daemon=True)
        self._thread.start()
        return self._thread

    def stop(self) -> None:
        """End the serve loop and finalize the learner.

        A thread-hosted loop is aborted and joined: a learner honouring the
        abort signal is back within one batch, any other is waited for up
        to 10 s.  A loop that already returned (a worker after ``__stop__``,
        the sequential host) has nothing to abort, so a run's shared signal
        is left to the server.
        """
        self._stopping.set()
        if self._thread is not None:
            self.abort_signal.set()
            self._thread.join(timeout=10.0)
            self._thread = None
        self.learner.finalize(self.fl_ctx)
