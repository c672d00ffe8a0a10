"""Transport seam: signed envelopes over pluggable delivery fabrics.

Plays the role of NVFlare's gRPC/TLS channel.  Every message body is real
bytes (the Shareable's DXO payload is RTC1-encoded) and carries an
HMAC-SHA256 tag under the session key established at registration, so the
protocol steps — serialize, sign, dispatch, dequeue, verify, deserialize —
all actually run.

Three fabrics implement the :class:`Transport` contract:

- :class:`MessageBus` — the in-memory fast path: per-participant queues in
  one process (the historical simulator transport).
- :class:`~repro.flare.socket_transport.SocketMessageBus` — length-prefixed
  binary frames over TCP loopback, one node per process, used by the
  process-per-client runner (``FLJob(transport="socket")``).
- :class:`~repro.flare.shm_transport.ShmMessageBus` — fork-inherited queues
  plus mmap'd body segments, behind the persistent worker pool
  (``FLJob(transport="shm")``).

Everything above the seam — retry/backoff, message-id dedup, fault
injection, compression filters, telemetry, the health monitor — is written
against :class:`Transport` and behaves identically on every fabric (pinned
by ``tests/flare/test_transport_conformance.py``).

One body, written once and hashed once: a Shareable is serialised into a
single buffer (:class:`EncodedShareable`) that every fabric carries as-is,
and the HMAC covers ``body || 0x00 || header_json``.  A local Shareable
holds its DXO unencoded, and the raw codec writes each tensor straight into
that buffer behind the Shareable's header, so the body is the only
model-sized buffer between the arrays and the wire.  With the body first in
the signed string, a sender keeps the HMAC state that absorbed it and
finishes a copy per envelope header, so a fan-out of one payload to N
recipients — and every resend — costs one pass over the body, not N.  On
receive the body is whatever buffer the fabric delivered (the sender's own
envelope on the memory bus, a view of a socket receive buffer, a view of an
mmap) and is verified and decoded in place through a read-only view.

Reliability layer: every send carries an idempotency header
(``ReservedKey.MSG_ID``, stable across resends) plus an attempt counter, the
receive path deduplicates replayed/duplicated message ids after signature
verification, and :func:`send_with_retry` adds bounded exponential backoff
on top for lossy fabrics (``fault_plan=`` on any fabric arms the same
seeded ``faults.FaultInjector`` in :meth:`BaseTransport.send_shareable`).
"""

from __future__ import annotations

import json
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..obs import trace as obs_trace
from ..obs.metrics import MetricsRegistry
from .constants import ReservedKey
from .dxo import DXO
from .security import hmac_absorb, hmac_verify_parts
from .shareable import Shareable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultPlan

__all__ = ["Message", "EncodedShareable", "Transport", "BaseTransport", "MessageBus",
           "TransportError", "ReceiveTimeout", "SignatureError", "RetryPolicy",
           "send_with_retry"]

# How many message ids each endpoint remembers for replay/duplicate detection.
_DEDUP_WINDOW = 4096

# Between body and header in the signed string (see Message.signed_parts).
_SEPARATOR = b"\x00"


class TransportError(RuntimeError):
    """Raised on signature failures or undeliverable messages."""


class ReceiveTimeout(TransportError):
    """No message arrived within the receive timeout.

    Carries the waiting endpoint plus — when the caller described what it
    was waiting for — the expected topic and peer, so a timeout deep in a
    round surfaces *which* conversation stalled instead of a bare count of
    seconds.
    """

    def __init__(self, endpoint: str, timeout: float | None,
                 topic: str | None = None, peer: str | None = None) -> None:
        self.endpoint = endpoint
        self.timeout = timeout
        self.topic = topic
        self.peer = peer
        waiting = f"no message for {endpoint!r}"
        if topic is not None and peer is not None:
            waiting += f" (expected topic {topic!r} from {peer!r})"
        elif topic is not None:
            waiting += f" (expected topic {topic!r})"
        elif peer is not None:
            waiting += f" (expected sender {peer!r})"
        super().__init__(f"{waiting} within {timeout}s")


class SignatureError(TransportError):
    """A message failed HMAC verification (tampered, corrupted or stale key)."""


@dataclass
class Message:
    """One envelope on the wire.

    ``body`` is one contiguous buffer of any kind: a sender's
    :class:`EncodedShareable` body (``bytearray`` or ``bytes``, shared by
    every recipient on the memory bus), or a ``memoryview`` over the
    shared-memory fabric's mmap or the socket fabric's receive buffer.  It
    is hashed and decoded in place, never copied again in the receiving
    process.
    """

    sender: str
    recipient: str
    topic: str
    body: bytes
    signature: str = ""
    headers: dict[str, Any] = field(default_factory=dict)

    def signed_header(self) -> bytes:
        """The envelope fields the HMAC tag covers besides the body."""
        return json.dumps(
            {"sender": self.sender, "recipient": self.recipient, "topic": self.topic,
             "headers": self.headers}, sort_keys=True).encode("utf-8")

    def signed_parts(self) -> tuple[bytes, bytes, bytes]:
        """The buffers covered by the HMAC tag, in signing order.

        ``body || 0x00 || header_json``: the JSON never contains a raw zero
        byte (``json.dumps`` escapes control characters), so the *last*
        0x00 of the signed string is the separator and the split is
        unambiguous whatever the body holds.
        """
        return self.body, _SEPARATOR, self.signed_header()


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for resends.

    Deterministic (no jitter) so that simulated runs are reproducible; the
    delay for attempt ``k`` is ``min(base_delay * multiplier**k, max_delay)``.
    """

    max_attempts: int = 4
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1 (backoff must not shrink)")

    def delay_for(self, attempt: int) -> float:
        """Backoff to sleep after failed attempt number ``attempt`` (0-based)."""
        return min(self.base_delay * self.multiplier ** attempt, self.max_delay)


def send_with_retry(bus: "Transport", sender: str, recipient: str, topic: str,
                    shareable: Shareable,
                    policy: RetryPolicy | None = None) -> int:
    """Send with bounded exponential backoff; returns the attempts used.

    All attempts share one message id, so a receiver that already saw an
    earlier attempt (e.g. the send "failed" after delivery) drops the resend
    as a duplicate — resends are idempotent.  Raises :class:`TransportError`
    only after ``policy.max_attempts`` consecutive failures.
    """
    policy = policy or RetryPolicy()
    msg_id = bus.next_msg_id(sender)
    encoded = EncodedShareable(shareable)  # resends re-sign, never re-hash
    last_error: TransportError | None = None
    for attempt in range(policy.max_attempts):
        try:
            bus.send_shareable(sender, recipient, topic, encoded,
                               msg_id=msg_id, attempt=attempt)
            return attempt + 1
        except TransportError as error:
            last_error = error
            bus.metrics.counter("transport.send_failures", topic=topic).inc()
            if attempt + 1 < policy.max_attempts:
                time.sleep(policy.delay_for(attempt))
    raise TransportError(
        f"message {topic!r} from {sender!r} to {recipient!r} undeliverable "
        f"after {policy.max_attempts} attempt(s): {last_error}") from last_error


def _encode_shareable(shareable: Shareable) -> bytes | bytearray:
    """Shareable → ``u32le(len h) | h | DXO bytes``, ``h`` its sorted-JSON
    headers.

    A local :class:`DXO` is encoded straight after ``h`` into the one body
    buffer (:meth:`DXO.to_bytes_after`); a payload that is already a buffer
    is joined behind it.
    """
    headers = {key: value for key, value in shareable.items() if key != "DXO"}
    header_bytes = json.dumps(headers, sort_keys=True).encode("utf-8")
    prefix = len(header_bytes).to_bytes(4, "little") + header_bytes
    payload = shareable.get("DXO", b"")
    if isinstance(payload, DXO):
        return payload.to_bytes_after(prefix)
    return b"".join((prefix, payload))


class EncodedShareable:
    """A Shareable serialised for the wire, plus the HMAC state over it.

    ``send_shareable`` builds one per call; a caller that sends the same
    payload more than once (a task fan-out, a resend) builds it up front and
    passes it *in place of* the Shareable, so the payload is serialised once
    and hashed once per signing key.  This is the snapshot point: a local
    Shareable's DXO is encoded here, from its arrays straight into
    ``body`` — the only model-sized buffer between the arrays and the wire
    — and later changes to the Shareable or its arrays are not seen.
    """

    __slots__ = ("body", "_absorbed")

    def __init__(self, shareable: Shareable) -> None:
        self.body = _encode_shareable(shareable)
        self._absorbed: dict[bytes, Any] = {}

    def tag(self, message: Message, key: bytes) -> str:
        """``message``'s HMAC tag under ``key`` (its body must be ``self.body``)."""
        absorbed = self._absorbed.get(key)
        if absorbed is None:
            absorbed = self._absorbed[key] = hmac_absorb((self.body, _SEPARATOR), key)
        mac = absorbed.copy()
        mac.update(message.signed_header())
        return mac.hexdigest()


def _decode_shareable(blob) -> Shareable:
    """Body buffer → Shareable.

    The DXO block is a read-only view of ``blob`` on every fabric — the
    memory bus's shared envelope, a socket receive buffer, an mmap — so it
    reaches the codec without a copy and no recipient can write into it.
    """
    view = memoryview(blob).toreadonly()
    header_len = int.from_bytes(view[:4], "little")
    headers = json.loads(bytes(view[4:4 + header_len]).decode("utf-8"))
    shareable = Shareable(headers)
    body = view[4 + header_len:]
    if len(body):
        shareable["DXO"] = body
    return shareable


class Transport:
    """The contract every delivery fabric implements.

    An instance is a *node*: it hosts some set of local endpoints (whose
    inboxes it owns) and knows how to route envelopes toward everyone else.
    The in-memory bus is one node hosting every participant; a socket
    deployment has one node per process.

    The contract, pinned by the conformance suite:

    - ``send_shareable`` serializes, signs with the *sender's* session key
      and dispatches; it raises :class:`TransportError` when the node cannot
      route to the recipient or the sender holds no key.
    - ``receive`` verifies the sender's signature (:class:`SignatureError`
      on mismatch), drops already-seen message ids, and raises
      :class:`ReceiveTimeout` — with the waited endpoint/topic/peer — on an
      exhausted deadline.
    - deliveries between one sender/recipient pair stay FIFO-ordered.
    - resends carrying the same ``msg_id`` are delivered at most once.
    """

    metrics: MetricsRegistry

    def register_endpoint(self, name: str) -> None:
        """Declare ``name`` as an endpoint hosted by (or known to) this node."""
        raise NotImplementedError

    def install_session_key(self, name: str, key: bytes) -> None:
        raise NotImplementedError

    def session_key(self, name: str) -> bytes | None:
        raise NotImplementedError

    def next_msg_id(self, sender: str) -> str:
        raise NotImplementedError

    def send_shareable(self, sender: str, recipient: str, topic: str,
                       shareable: "Shareable | EncodedShareable",
                       msg_id: str | None = None,
                       attempt: int = 0) -> None:
        raise NotImplementedError

    def receive(self, name: str, timeout: float | None = 10.0, *,
                topic: str | None = None,
                peer: str | None = None) -> tuple[str, str, Shareable]:
        raise NotImplementedError

    def pending(self, name: str) -> int:
        raise NotImplementedError

    def close(self) -> None:
        """Release sockets/threads; a no-op for in-memory fabrics."""


class BaseTransport(Transport):
    """Shared envelope layer: keys, signing, msg-id sequencing, dedup,
    metrics and fault injection.

    Subclasses provide the delivery fabric by implementing
    :meth:`_dispatch` (route one signed envelope toward its recipient) and
    :meth:`_next_message` (pop the next envelope addressed to a local
    endpoint, or ``None`` on timeout).

    ``fault_plan`` arms a seeded :class:`~repro.flare.faults.FaultInjector`
    between signing and :meth:`_dispatch`, the same point on every fabric,
    so one plan makes the same per-message decisions on all of them.
    """

    def __init__(self, fault_plan: "FaultPlan | None" = None) -> None:
        self._session_keys: dict[str, bytes] = {}
        self._lock = threading.Lock()
        self._send_seq: dict[str, int] = {}
        self._seen_ids: dict[str, OrderedDict] = {}
        self._endpoints: set[str] = set()
        self._peers: set[str] = set()
        # Every node owns an always-enabled registry: delivery totals must be
        # available (RunStats copies them) whether or not a telemetry
        # session is active.  A session merges this registry into the run's
        # metrics.json at export time.
        self.metrics = MetricsRegistry()
        self._messages_delivered = self.metrics.counter("transport.messages_delivered")
        self._bytes_delivered = self.metrics.counter("transport.bytes_delivered")
        self._retries = self.metrics.counter("transport.retries")
        self._duplicates_dropped = self.metrics.counter("transport.duplicates_dropped")
        self._resident = self.metrics.gauge("transport.resident_frame_bytes")
        self.fault_plan = fault_plan
        self._injector = None
        if fault_plan is not None:
            from .faults import FaultInjector  # faults imports this module

            self._injector = FaultInjector(fault_plan, self.metrics)

    # ------------------------------------------------------------------
    # registry-backed totals (the former one-off int attributes)
    # ------------------------------------------------------------------
    @property
    def delivered_count(self) -> int:
        return int(self._messages_delivered.value)

    @property
    def delivered_bytes(self) -> int:
        return int(self._bytes_delivered.value)

    @property
    def retry_count(self) -> int:
        """Sends carrying attempt > 0."""
        return int(self._retries.value)

    @property
    def duplicates_dropped(self) -> int:
        """Receives skipped by message-id dedup."""
        return int(self._duplicates_dropped.value)

    @property
    def peak_receive_buffer_bytes(self) -> int:
        """High-water of receive-buffer bytes alive at once (0 off the socket fabric)."""
        return int(self._resident.peak)

    def _injected(self, kind: str) -> int:
        return self._injector.count(kind) if self._injector is not None else 0

    injected_drops = property(lambda self: self._injected("drop"))
    injected_crash_drops = property(lambda self: self._injected("crash"))
    injected_duplicates = property(lambda self: self._injected("duplicate"))
    injected_corruptions = property(lambda self: self._injected("corrupt"))
    injected_delays = property(lambda self: self._injected("delay"))

    # ------------------------------------------------------------------
    def register_endpoint(self, name: str) -> None:
        with self._lock:
            self._endpoints.add(name)
            self._seen_ids.setdefault(name, OrderedDict())
        self._on_endpoint_registered(name)

    def _on_endpoint_registered(self, name: str) -> None:
        """Fabric hook: allocate per-endpoint delivery state."""

    def register_peer(self, name: str) -> None:
        """Declare a *remote* participant this node must verify traffic from.

        No inbox is allocated — the name only becomes eligible for
        :meth:`install_session_key`.  Multi-node fabrics use this for
        counterpart identities (a client node registers the server as a
        peer); on the single-node in-memory bus it is rarely needed because
        every participant is a local endpoint.
        """
        with self._lock:
            self._peers.add(name)

    def install_session_key(self, name: str, key: bytes) -> None:
        with self._lock:
            if name not in self._endpoints and name not in self._peers:
                raise TransportError(f"unknown endpoint {name!r}")
            self._session_keys[name] = key

    def session_key(self, name: str) -> bytes | None:
        with self._lock:
            return self._session_keys.get(name)

    def next_msg_id(self, sender: str) -> str:
        """A fresh idempotency id; sequential per sender."""
        with self._lock:
            seq = self._send_seq.get(sender, 0)
            self._send_seq[sender] = seq + 1
        return f"{sender}:{seq}"

    # ------------------------------------------------------------------
    def send_shareable(self, sender: str, recipient: str, topic: str,
                       shareable: "Shareable | EncodedShareable",
                       msg_id: str | None = None,
                       attempt: int = 0) -> None:
        """Serialize, sign with the sender's session key and dispatch.

        ``msg_id`` defaults to a fresh id; retries must pass the original id
        (see :func:`send_with_retry`) so the receiver can deduplicate.
        ``shareable`` may be an :class:`EncodedShareable` built earlier, which
        is then neither serialised nor hashed again.
        """
        key = self.session_key(sender)
        if key is None:
            raise TransportError(f"endpoint {sender!r} has no session key (not registered)")
        if msg_id is None:
            msg_id = self.next_msg_id(sender)
        encoded = (shareable if isinstance(shareable, EncodedShareable)
                   else EncodedShareable(shareable))
        # One monotonic sample serves both the latency stamp and the trace
        # context's timeline stamp: the receiver derives the sender's clock
        # offset from their difference, so sharing the sample makes the
        # derivation exact instead of off by the sampling gap.
        send_ts = time.monotonic()
        headers = {ReservedKey.CLIENT_NAME: sender,
                   ReservedKey.MSG_ID: msg_id,
                   ReservedKey.ATTEMPT: attempt,
                   ReservedKey.SEND_TS: send_ts}
        tracer = obs_trace.get_tracer()
        if tracer is not None:
            headers[ReservedKey.TRACE_CTX] = tracer.current_context(send_ts)
        message = Message(sender=sender, recipient=recipient, topic=topic,
                          body=encoded.body, headers=headers)
        message.signature = encoded.tag(message, key)
        if attempt > 0:
            self._retries.inc()
        if self._injector is None:
            self._dispatch(message)
            return
        # drop/crash raise to the sender; a duplicate comes back twice
        for copy in self._injector.apply(message):
            self._dispatch(copy)

    def _dispatch(self, message: Message) -> None:
        """Route one signed envelope toward its recipient."""
        raise NotImplementedError

    def _count_delivery(self, message: Message) -> None:
        """Account one envelope handled by this node (send or local arrival)."""
        self._messages_delivered.inc()
        self._bytes_delivered.inc(len(message.body))
        self.metrics.counter("transport.messages", topic=message.topic).inc()
        self.metrics.counter("transport.bytes", topic=message.topic).inc(len(message.body))

    # ------------------------------------------------------------------
    def receive(self, name: str, timeout: float | None = 10.0, *,
                topic: str | None = None,
                peer: str | None = None) -> tuple[str, str, Shareable]:
        """Dequeue, verify signature, deduplicate, deserialize.

        Returns ``(sender, topic, shareable)``.  Duplicated or replayed
        message ids are skipped (the wait continues against the original
        deadline); a bad signature raises :class:`SignatureError` and an
        exhausted deadline raises :class:`ReceiveTimeout` naming the waiting
        endpoint plus the optional expected ``topic``/``peer`` context.
        """
        with self._lock:
            if name not in self._endpoints:
                raise TransportError(f"unknown endpoint {name!r}")
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            message = self._next_message(name, remaining)
            if message is None:
                raise ReceiveTimeout(name, timeout, topic=topic, peer=peer)
            key = self.session_key(message.sender)
            if key is None or not hmac_verify_parts(message.signed_parts(),
                                                    message.signature, key):
                raise SignatureError(
                    f"signature check failed for message {message.topic!r} "
                    f"from {message.sender!r}")
            msg_id = message.headers.get(ReservedKey.MSG_ID)
            if msg_id is not None and not self._mark_seen(name, msg_id):
                self._duplicates_dropped.inc()
                del message  # not across the next wait
                continue
            send_ts = message.headers.get(ReservedKey.SEND_TS)
            if isinstance(send_ts, (int, float)):
                self.metrics.histogram("transport.latency_seconds",
                                       topic=message.topic).observe(
                    max(time.monotonic() - send_ts, 0.0))
            shareable = _decode_shareable(message.body)
            ctx = message.headers.get(ReservedKey.TRACE_CTX)
            if isinstance(ctx, dict):
                tracer = obs_trace.get_tracer()
                if tracer is not None and isinstance(send_ts, (int, float)):
                    tracer.observe_remote(ctx, send_ts)
                # Hand the context to the task executor (local attachment
                # only: received shareables are never re-sent, and replies
                # are built fresh, so the key never leaks back on the wire).
                shareable[ReservedKey.TRACE_CTX] = ctx
            return message.sender, message.topic, shareable

    def _next_message(self, name: str, remaining: float | None) -> Message | None:
        """Pop the next envelope for local endpoint ``name``; None on timeout."""
        raise NotImplementedError

    def _mark_seen(self, name: str, msg_id: str) -> bool:
        """Record ``msg_id`` for ``name``; False when it was already seen."""
        with self._lock:
            seen = self._seen_ids.setdefault(name, OrderedDict())
            if msg_id in seen:
                return False
            seen[msg_id] = None
            while len(seen) > _DEDUP_WINDOW:
                seen.popitem(last=False)
            return True


class MessageBus(BaseTransport):
    """Per-participant queues with HMAC signing on every delivery.

    Session keys are installed by the server when a client registers; traffic
    to or from a participant without a key is rejected, which is how the
    simulator enforces the "provision before train" ordering.

    Every send is stamped with a message id (per-sender sequence, so ids are
    deterministic under threaded sends) and an attempt counter; ``receive``
    drops already-seen ids, which makes resends and replay attacks
    exactly-once at the application layer.  ``MessageBus(fault_plan=plan)``
    is the in-memory chaos bus.
    """

    def __init__(self, *, fault_plan: "FaultPlan | None" = None) -> None:
        super().__init__(fault_plan)
        self._queues: dict[str, "queue.Queue[Message]"] = {}

    # ------------------------------------------------------------------
    def _on_endpoint_registered(self, name: str) -> None:
        with self._lock:
            self._queues.setdefault(name, queue.Queue())

    def _dispatch(self, message: Message) -> None:
        self._enqueue(message)

    def _enqueue(self, message: Message) -> None:
        """Deliver one signed envelope."""
        with self._lock:
            if message.recipient not in self._queues:
                raise TransportError(f"unknown recipient {message.recipient!r}")
            self._queues[message.recipient].put(message)
        self._count_delivery(message)

    def _next_message(self, name: str, remaining: float | None) -> Message | None:
        with self._lock:
            q = self._queues[name]
        try:
            return q.get(timeout=remaining)
        except queue.Empty:
            return None

    def pending(self, name: str) -> int:
        with self._lock:
            return self._queues[name].qsize() if name in self._queues else 0
