"""FLServer: client manager (authentication) + the server side of the bus."""

from __future__ import annotations

import threading
import time

import numpy as np

from .constants import TELEMETRY_TOPIC, EventType, ReservedKey, TaskName
from .events import FLComponent, format_names
from .fl_context import FLContext
from .provision import StartupKit, make_join_token
from .security import Certificate, verify
from .shareable import Shareable
from .transport import (
    EncodedShareable,
    MessageBus,
    ReceiveTimeout,
    RetryPolicy,
    SignatureError,
    TransportError,
)

__all__ = ["FLServer", "AuthenticationError"]

_STOP_TOPIC = "__stop__"
_TRAIN_RESULT_TOPIC = f"{TaskName.TRAIN}:result"
_POLL_SECONDS = 0.01  # enough to dequeue a message that is already queued


class AuthenticationError(RuntimeError):
    """Raised when a client fails the registration handshake."""


class FLServer(FLComponent):
    """Holds registered clients, issues tokens and sends/collects tasks."""

    def __init__(self, kit: StartupKit, bus: MessageBus, project_name: str = "",
                 seed: int = 0, retry_policy: RetryPolicy | None = None) -> None:
        super().__init__(name=kit.participant.name)
        self.kit = kit
        self.bus = bus
        self.project_name = project_name or kit.project_name
        self.fl_ctx = FLContext(identity=self.name)
        self.tokens: dict[str, str] = {}
        self.retry_policy = retry_policy or RetryPolicy()
        self.retries = 0
        # Optional callable fed every streamed worker telemetry delta the
        # moment the result loop dequeues one (process-per-client runs
        # interleave them with round traffic on the server inbox).  Without
        # a sink those messages are dropped from the result stream — they
        # must never be mistaken for a round contribution.
        self.telemetry_sink = None
        # The run's one-shot abort signal (NVFlare's ``abort_signal``): set
        # once the training workflow on this server is over, so clients drop
        # TRAIN work nobody will fold.  The simulator hands this Event to its
        # threaded clients; ProcessClientRunner replaces it with a
        # fork-inherited multiprocessing one before it forks.
        self.abort_signal = threading.Event()
        self._nonces: dict[str, bytes] = {}
        self._rng = np.random.default_rng(seed)
        bus.register_endpoint(self.name)
        # the server trusts itself immediately: install its own session key
        server_token = make_join_token(self._rng)
        from .client import session_key_from_token

        bus.install_session_key(self.name, session_key_from_token(server_token))

    # ------------------------------------------------------------------
    # registration handshake
    # ------------------------------------------------------------------
    def issue_nonce(self, client_name: str) -> bytes:
        """Step 1: hand the joining client a fresh challenge."""
        nonce = self._rng.bytes(32)
        self._nonces[client_name] = nonce
        return nonce

    def register_client(self, certificate: Certificate, nonce: bytes, proof: int) -> str:
        """Steps 2-3: verify certificate + proof-of-key, issue a join token."""
        name = certificate.subject
        expected = self._nonces.pop(name, None)
        if expected is None or expected != nonce:
            raise AuthenticationError(f"no outstanding nonce for {name!r}")
        # certificate must chain to the project CA
        ca_check = verify(certificate.payload_bytes(), certificate.signature,
                          self.kit.ca_public_key)
        if not ca_check:
            raise AuthenticationError(f"certificate of {name!r} not signed by project CA")
        if not verify(nonce, proof, certificate.public_key):
            raise AuthenticationError(f"{name!r} failed proof-of-possession")
        token = make_join_token(self._rng)
        self.tokens[name] = token
        from .client import session_key_from_token

        self.bus.register_endpoint(name)
        self.bus.install_session_key(name, session_key_from_token(token))
        self.log_info(
            "Client: New client %s@127.0.0.1 joined. Sent token: %s. Total clients: %d",
            name, token, len(self.tokens))
        self.fire_event(EventType.CLIENT_REGISTERED, self.fl_ctx)
        return token

    # ------------------------------------------------------------------
    # task fan-out / collection
    # ------------------------------------------------------------------
    def broadcast_task(self, task_name: str, shareable: Shareable | None,
                       targets: list[str],
                       overrides: dict[str, Shareable] | None = None) -> list[str]:
        """Send one task per target with batched, wave-based retry/backoff.

        ``overrides`` substitutes a different payload for specific targets —
        the wire-efficient controller uses it to send a small delta to synced
        sites and a full model to the rest (``shareable`` is ``None`` when
        the overrides name every target).

        All targets get attempt 0 first; only the failures enter the next
        wave, with a single backoff sleep per wave instead of a serial full
        backoff per flaky target.  At massive-cohort fan-out (1,000 sites)
        that turns a worst case of ``targets * sum(delays)`` sleeping into
        ``max_attempts`` sleeps total.  Each target keeps one message id
        across its attempts, so receivers deduplicate resends exactly as in
        the serial path.

        Each *distinct* payload — ``shareable`` and every ``overrides``
        object — is serialised and hashed once, as one
        :class:`~repro.flare.transport.EncodedShareable` all its targets and
        attempts share; an envelope costs only its own small signed header.

        Returns the targets that stayed unreachable after the retry budget —
        they never got the task and cannot answer, so callers should count
        them out of the expected results instead of waiting on them.
        """
        wave: list[list] = []  # [target, task, msg_id, last_error]
        encoded: dict[int, EncodedShareable] = {}  # id(payload) -> wire form
        for target in targets:
            if target not in self.tokens:
                raise AuthenticationError(f"client {target!r} is not registered")
            payload = shareable if overrides is None else overrides.get(target, shareable)
            task = encoded.get(id(payload))
            if task is None:
                named = Shareable(payload)  # shallow copy: the caller's stays as is
                named.set_header(ReservedKey.TASK_NAME, task_name)
                task = encoded[id(payload)] = EncodedShareable(named)
            wave.append([target, task, self.bus.next_msg_id(self.name), None])
        for attempt in range(self.retry_policy.max_attempts):
            if not wave:
                break
            if attempt > 0:
                time.sleep(self.retry_policy.delay_for(attempt - 1))
                self.retries += len(wave)
            failed: list[list] = []
            for entry in wave:
                target, task, msg_id, _ = entry
                try:
                    self.bus.send_shareable(self.name, target, task_name, task,
                                            msg_id=msg_id, attempt=attempt)
                except TransportError as error:
                    entry[3] = error
                    self.bus.metrics.counter("transport.send_failures",
                                             topic=task_name).inc()
                    failed.append(entry)
            wave = failed
        unreachable = [entry[0] for entry in wave]
        for target, _, _, error in wave:
            self.log_warning("task %r undeliverable to %s after %d attempt(s): %s",
                             task_name, target, self.retry_policy.max_attempts,
                             error)
        if unreachable:
            self.log_warning("task %r fan-out left %d/%d target(s) unreachable: %s",
                             task_name, len(unreachable), len(targets),
                             format_names(unreachable))
        return unreachable

    def next_result(self, timeout: float = 600.0) -> tuple[str, Shareable] | None:
        """Receive the next verified task result, or ``None`` on timeout.

        The server's single receive path (the round engine streams from it,
        :meth:`collect_results` buffers it): corrupted messages (HMAC
        failures) are logged and skipped, and streamed worker telemetry
        deltas are routed to ``telemetry_sink`` instead of being mistaken
        for a round contribution.  Each returned Shareable still carries its
        own per-client return code for the caller to judge.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            try:
                sender, topic, shareable = self.bus.receive(self.name,
                                                            timeout=remaining)
            except SignatureError as error:
                self.log_warning("rejected corrupted/forged result: %s", error)
                continue
            except ReceiveTimeout:
                return None
            if topic == TELEMETRY_TOPIC:
                snapshot = shareable.get("telemetry")
                if self.telemetry_sink is not None and isinstance(snapshot, dict):
                    self.telemetry_sink(snapshot)
                continue
            if topic != _TRAIN_RESULT_TOPIC or not self.abort_signal.is_set():
                return sender, shareable
            del shareable  # sent as the run ended: dropped, and not held across the wait

    def abort_tasks(self) -> None:
        """Set the abort signal and discard what already reached the inbox.

        Clients see the signal at the gate (a queued TRAIN task is dropped
        unrun) and between batches (a running one returns early); neither
        replies.  Nothing is waited for: only messages already queued are
        consumed, so replies to the aborted workflow do not leak into
        whatever runs on this bus next.
        """
        self.abort_signal.set()
        while self.bus.pending(self.name) and \
                self.next_result(timeout=_POLL_SECONDS) is not None:
            pass

    def collect_results(self, expected: int, timeout: float = 600.0
                        ) -> list[tuple[str, Shareable]]:
        """Buffer up to ``expected`` task results (for callers that need a
        whole fan-out in memory, e.g. cross-site eval).

        Stops early (without raising) when ``timeout`` expires, so results
        received before a late deadline are never lost.
        """
        results: list[tuple[str, Shareable]] = []
        deadline = time.monotonic() + timeout
        while len(results) < expected:
            result = self.next_result(timeout=deadline - time.monotonic())
            if result is None:
                self.log_warning(
                    "collected %d/%d result(s) before the %.1fs deadline",
                    len(results), expected, timeout)
                break
            results.append(result)
        return results

    def stop_clients(self, targets: list[str]) -> None:
        """Best-effort shutdown fan-out; unreachable sites are only logged."""
        for target in targets:
            try:
                self.bus.send_shareable(self.name, target, _STOP_TOPIC, Shareable())
            except TransportError as error:
                self.log_warning("stop message to %s lost: %s", target, error)
