"""Socket transport: length-prefixed signed frames over TCP loopback.

The real-deployment counterpart of the in-memory :class:`MessageBus`: one
:class:`SocketMessageBus` *node* per process, hosting that process's
endpoints, all connected hub-and-spoke.  The hub (the server process)
listens; every spoke (client process) opens one uplink, announces its
endpoints, and exchanges envelopes through the hub, which routes by
recipient name.

The bytes on the wire are exactly the envelopes the in-memory bus passes
around — the Shareable's JSON headers plus its RTC1-encoded DXO block,
HMAC-signed under the sender's session key — wrapped in a minimal binary
framing:

.. code-block:: text

    frame   := u32le payload_length | payload       (length caps at 1 GiB)
    payload := u8 frame_type | rest
    DATA    := u32le header_length | header_json | body
    HELLO   := json {"endpoints": [name, ...]}
    PING / PONG / BYE := empty rest

``header_json`` carries sender/recipient/topic/signature plus the envelope
headers (msg id, attempt, send timestamp); ``body`` is the signed Shareable
bytes, passed through untouched.  Signature verification and message-id
dedup happen at the *receiving endpoint's* node, exactly where the
in-memory bus performs them, so the two fabrics share one security model
(pinned by ``tests/flare/test_transport_conformance.py``).

A body is never copied by this module.  :func:`encode_frame` — the only
frame builder — returns the frame as parts ``[small head, body]`` and
:func:`write_frame` hands them to ``sendmsg`` as they are, resuming after
partial writes.  :func:`read_frame` receives a payload with ``recv_into``
straight into one buffer and returns a read-only ``memoryview`` of it;
``decode_data_frame``, ``receive``, the Shareable decode and the tensor
codec all slice that view, so the arrays a learner or aggregator sees are
views of the bytes the kernel delivered (the same in-place path the
shared-memory fabric takes over its mmap).  The hub forwards a frame by
writing the received view under a new prefix.  The receive buffer grows
only as bytes arrive, so a hostile length prefix cannot make a node
allocate what was never sent.

Receive budget (``docs/FEDERATION_RUNTIME.md``): a node holds at most
:data:`_RECEIVE_CREDITS` tensor-sized frame, from the first byte read until
its consumer lets go of it (the buffer dies) or asks ``receive`` for the next
one, whichever comes first; the other senders wait in ``sendmsg``.  A reader
that has waited :data:`_STALL_SECONDS` for the credit reads its frame anyway
and counts a ``transport.credit_overdrafts``: the backstop for a wait cycle
the budget did not foresee.

Reliability: spokes reconnect with :class:`RetryPolicy` backoff when the
uplink breaks, resending their endpoint announcement so the hub re-learns
the route; an optional heartbeat thread PINGs the hub so half-open links
are detected between rounds.  Malformed, truncated or oversized frames
raise :class:`TransportError` and cost only the offending connection —
never the node.
"""

from __future__ import annotations

import json
import logging
import queue
import socket
import struct
import threading
import time
import weakref
from typing import TYPE_CHECKING

from .events import get_fl_logger
from .transport import (
    BaseTransport,
    Message,
    RetryPolicy,
    TransportError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultPlan

__all__ = ["SocketMessageBus", "FRAME_DATA", "FRAME_HELLO", "FRAME_PING",
           "FRAME_PONG", "FRAME_BYE", "MAX_FRAME_BYTES", "encode_frame",
           "encode_data_frame", "decode_data_frame", "read_frame", "write_frame"]

FRAME_DATA = 1
FRAME_HELLO = 2
FRAME_PING = 3
FRAME_PONG = 4
FRAME_BYE = 5
_FRAME_TYPES = (FRAME_DATA, FRAME_HELLO, FRAME_PING, FRAME_PONG, FRAME_BYE)

# Hard ceiling on one frame: a corrupted / hostile length prefix must never
# make a reader allocate unbounded memory or wait on gigabytes that will
# never arrive.  1 GiB comfortably clears the largest BERT state dict the
# repro ships while still rejecting garbage prefixes (which are uniform in
# [0, 2^32) and almost always land above it).
MAX_FRAME_BYTES = 1 << 30

_LEN = struct.Struct("<I")

# First allocation for an incoming frame's payload.  Every message the paper's
# jobs exchange (a 9.9 MB BERT state) fits, so the buffer is sized once and
# never grown; a larger frame doubles it as the bytes arrive (read_frame).
_FIRST_ALLOC = 16 << 20

# Receive budget.  One credit, held from the first byte of a frame until its
# consumer drops it or calls receive() again: the round engine folds one reply
# at a time, so read-ahead only cost memory (wire_raw_socket server RSS
# 121 -> 98 MB; job_s the same with 1, 2, 3 or 8 credits).  Frames under the
# floor take none: control frames and telemetry deltas (largest seen 9.7 KB,
# smallest model update 790 KB) must pass a node whose credit nobody will free.
_RECEIVE_CREDITS = 1
_CREDIT_FLOOR = 64 << 10

# A sender silent this long inside a frame is dropped like a mid-frame disconnect,
# and a reader that waited this long for a credit reads its frame anyway.
# The order of _CONNECT_TIMEOUT: a 9.9 MB body takes ~10 ms over loopback.
_STALL_SECONDS = 10.0

# A spoke's uplink: seconds per connect attempt, and the backoff between them.
_CONNECT_TIMEOUT = 10.0
_UPLINK_RETRY = RetryPolicy()


# ---------------------------------------------------------------------------
# frame codec (module-level so the fuzz suite can hit it directly)
# ---------------------------------------------------------------------------
def encode_frame(frame_type: int, head: bytes = b"", body=b"") -> list:
    """One frame as write-ready parts ``[prefix | type | head, body]``.

    The only frame builder.  ``head`` is small and is joined to the prefix;
    ``body`` — any buffer, possibly many megabytes — is passed through
    untouched for :func:`write_frame` to hand to ``sendmsg`` beside it.
    Code that wants the frame as one string joins the parts.
    """
    length = 1 + len(head) + len(body)
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
    return [b"".join((_LEN.pack(length), bytes([frame_type]), head)), body]


def encode_data_frame(message: Message) -> list:
    """One signed envelope as the parts of a DATA frame."""
    header = json.dumps({
        "sender": message.sender, "recipient": message.recipient,
        "topic": message.topic, "signature": message.signature,
        "headers": message.headers}).encode("utf-8")
    return encode_frame(FRAME_DATA, _LEN.pack(len(header)) + header,
                        message.body)


def decode_data_frame(rest) -> Message:
    """DATA payload (after the type byte) → :class:`Message`.

    ``rest`` is ``bytes`` or a ``memoryview``; the message body is a slice
    of it, so a view in means a view out and nothing is copied.

    Every malformation — truncated header length, header overrunning the
    payload, non-JSON or non-object headers, missing/foreign-typed fields —
    raises :class:`TransportError`; nothing else escapes.  A bit flip that
    survives decoding still carries a broken HMAC and dies in ``receive``.
    """
    if len(rest) < _LEN.size:
        raise TransportError("truncated data frame: missing header length")
    (header_len,) = _LEN.unpack_from(rest)
    if header_len > len(rest) - _LEN.size:
        raise TransportError(
            f"truncated data frame: header of {header_len} bytes overruns "
            f"the {len(rest)}-byte payload")
    try:
        header = json.loads(str(rest[_LEN.size:_LEN.size + header_len], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TransportError(f"undecodable data frame header: {error}") from error
    if not isinstance(header, dict):
        raise TransportError("data frame header is not a JSON object")
    try:
        sender, recipient = header["sender"], header["recipient"]
        topic, signature = header["topic"], header["signature"]
        headers = header.get("headers", {})
    except KeyError as error:
        raise TransportError(f"data frame header missing field {error}") from error
    if not all(isinstance(value, str) for value in (sender, recipient, topic, signature)) \
            or not isinstance(headers, dict):
        raise TransportError("data frame header fields have wrong types")
    return Message(sender=sender, recipient=recipient, topic=topic,
                   body=rest[_LEN.size + header_len:], signature=signature,
                   headers=headers)


def write_frame(sock: socket.socket, parts: list) -> None:
    """Write a frame's parts with scatter-gather ``sendmsg``, never joined.

    A stream socket may take any prefix of what it is offered (a small send
    buffer, a socket with a timeout), so the loop resumes wherever the
    kernel stopped — inside the head or inside the body.
    """
    views = [memoryview(part) for part in parts if len(part)]
    while views:
        sent = sock.sendmsg(views)
        while views and sent >= len(views[0]):
            sent -= len(views.pop(0))
        if sent:
            views[0] = views[0][sent:]


def _recv_into(sock: socket.socket, buffer: bytearray, got: int,
               at_boundary: bool = False) -> bool:
    """Fill ``buffer[got:]`` from the socket; ``False`` on a clean EOF.

    A clean EOF is one at a frame boundary (``at_boundary`` and nothing read
    yet).  EOF *inside* a frame — or inside its length prefix — is a
    mid-frame disconnect and raises :class:`TransportError`, and so is a
    link's receive timeout there; at a boundary that only means an idle link.
    """
    with memoryview(buffer) as view:
        while got < len(buffer):
            try:
                count = sock.recv_into(view[got:])
            except BlockingIOError as error:
                if at_boundary and got == 0:
                    continue
                raise TransportError(f"sender stalled mid-frame at byte {got}") from error
            except OSError as error:
                raise TransportError(f"connection lost mid-frame: {error}") from error
            if not count:
                if at_boundary and got == 0:
                    return False
                raise TransportError(
                    f"connection closed mid-frame ({got}/{len(buffer)} bytes read)")
            got += count
    return True


def read_frame(sock: socket.socket, alloc=None) -> tuple[int, memoryview] | None:
    """Read one frame; ``None`` on clean EOF between frames.

    Returns the frame type and a read-only view of the rest of the payload.
    The payload is received straight into the one buffer that view (and
    every message body and tensor sliced from it) keeps alive.  The buffer
    starts at ``min(length, _FIRST_ALLOC)`` and at most doubles each time it
    has been filled, so what a peer makes this node allocate is bounded by
    what the peer has actually sent, whatever its length prefix declares.
    ``alloc(length)``, if given, supplies that first buffer; it runs after
    the length checks and may block: where a node meters what it admits.

    Raises :class:`TransportError` on truncated prefixes, mid-frame
    disconnects, oversized or zero-length payloads, and unknown frame types.
    """
    prefix = bytearray(_LEN.size)
    if not _recv_into(sock, prefix, 0, at_boundary=True):
        return None
    (length,) = _LEN.unpack(prefix)
    if length == 0:
        raise TransportError("zero-length frame (no type byte)")
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"declared frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap")
    payload = alloc(length) if alloc else bytearray(min(length, _FIRST_ALLOC))
    got = 0
    while True:
        _recv_into(sock, payload, got)
        got = len(payload)
        if got == length:
            break
        payload.extend(bytes(min(length - got, got)))
    frame_type = payload[0]
    if frame_type not in _FRAME_TYPES:
        raise TransportError(f"unknown frame type {frame_type}")
    return frame_type, memoryview(payload).toreadonly()[1:]


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------
class _PeerClosed(Exception):
    """The peer announced a clean shutdown (BYE frame)."""


def _shutdown_and_close(sock: socket.socket) -> None:
    """Close ``sock`` so that a thread blocked on it wakes up.

    Closing a socket from another thread does not wake a blocked ``recv()``
    or — on a listener — ``accept()`` on Linux; shutting it down first does.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:  # pragma: no cover - already closed
        pass


class _Payload(bytearray):
    """A receive buffer; ``credit()`` (or its death) returns the credit it took.

    ``credit`` is ``None`` on a frame that took none (under the floor, or an
    overdraft)."""

    __slots__ = ("__weakref__", "credit")


class _Link:
    """One TCP connection with serialized writes and an alive flag."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.alive = True
        self._write_lock = threading.Lock()
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # receives only: a send may wait on back-pressure as long as it takes
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, struct.pack(
                "ll", int(_STALL_SECONDS), int(_STALL_SECONDS % 1 * 1e6)))
        except OSError:  # pragma: no cover - platform-dependent
            pass

    def send_frame(self, parts: list) -> None:
        """Write one frame (the parts :func:`encode_frame` built) atomically."""
        with self._write_lock:
            if not self.alive:
                raise TransportError("link is down")
            try:
                write_frame(self.sock, parts)
            except OSError as error:
                self.alive = False
                raise TransportError(f"socket write failed: {error}") from error

    def close(self) -> None:
        self.alive = False
        _shutdown_and_close(self.sock)


class SocketMessageBus(BaseTransport):
    """A transport node speaking the frame protocol over TCP loopback.

    Hub mode (``listen=True``, the default) binds a listener — the server
    process — and routes frames between every connected spoke.  Spoke mode
    (:meth:`connect`) opens one uplink to the hub and relays every
    non-local envelope through it.

    ``fault_plan`` arms the seeded :class:`~repro.flare.faults.FaultPlan`
    injection every fabric runs in ``send_shareable`` (the sender's
    dispatch), so chaos scenarios make the same per-message decisions here
    as on the in-memory bus.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 listen: bool = True,
                 connect_to: tuple[str, int] | None = None,
                 fault_plan: "FaultPlan | None" = None,
                 heartbeat_interval: float | None = None) -> None:
        if listen and connect_to is not None:
            raise ValueError("a node either listens (hub) or connects (spoke)")
        super().__init__(fault_plan)
        self._log = logging.LoggerAdapter(get_fl_logger(),
                                          {"component": type(self).__name__})
        self.heartbeat_interval = heartbeat_interval
        self._queues: dict[str, queue.Queue] = {}  # of (message, its credit or None)
        self._links: dict[str, _Link] = {}  # endpoint name -> claiming link
        self._credits = _RECEIVE_CREDITS  # free ones; guarded by _budget
        self._budget = threading.Condition()
        # endpoint -> credit of the frame receive() last handed it
        self._claims: dict[str, weakref.finalize | None] = {}
        self._closed = threading.Event()
        self._threads: list[threading.Thread] = []
        self._listener: socket.socket | None = None
        self._uplink: _Link | None = None
        self._uplink_lock = threading.Lock()
        self._connect_addr = connect_to
        self._routing_drops = self.metrics.counter("transport.routing_drops")
        self._reconnects = self.metrics.counter("transport.reconnects")
        self._frame_errors = self.metrics.counter("transport.frame_errors")
        self._overdrafts = self.metrics.counter("transport.credit_overdrafts")
        self._heartbeats = {kind: self.metrics.counter("transport.heartbeats",
                                                       kind=kind)
                            for kind in ("ping", "pong")}
        self._accepting = False
        if listen:  # binds now, accepts later (see _accept)
            self._listener = socket.create_server((host, port), backlog=64)
        if connect_to is not None:
            self._ensure_uplink()
            if self.heartbeat_interval is not None:
                self._spawn(self._heartbeat_loop, name="bus-heartbeat")

    # ------------------------------------------------------------------
    @classmethod
    def connect(cls, address: tuple[str, int], **kwargs) -> "SocketMessageBus":
        """A spoke node linked to the hub at ``address``."""
        return cls(listen=False, connect_to=tuple(address), **kwargs)

    @property
    def address(self) -> tuple[str, int]:
        """The hub's bound ``(host, port)``; reading it starts accepting."""
        self._accept()
        return self.listen_address

    @property
    def listen_address(self) -> tuple[str, int]:
        """The hub's bound ``(host, port)``, read without accepting."""
        if self._listener is None:
            raise TransportError("node is not listening")
        host, port = self._listener.getsockname()[:2]
        return host, port

    def _accept(self) -> None:
        """Start the accept loop, and so every reader, once: a hub listens from
        ``__init__`` (the backlog holds connects) but accepts only from the
        first :attr:`address`, ``receive`` or :meth:`wait_for_endpoints`, so
        ``ProcessClientRunner`` reads :attr:`listen_address` and forks with
        no hub thread alive."""
        if self._listener is None or self._accepting:
            return  # a spoke, or accepting already: no lock per receive
        with self._lock:
            if not (self._accepting or self._closed.is_set()):
                self._accepting = True
                self._spawn(self._accept_loop, name="bus-accept")

    def _spawn(self, target, name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    # ------------------------------------------------------------------
    # Transport surface
    # ------------------------------------------------------------------
    def _on_endpoint_registered(self, name: str) -> None:
        announce = False
        with self._lock:
            if name not in self._queues:
                self._queues[name] = queue.Queue()
                announce = True
        # A spoke re-announces whenever it starts hosting a new endpoint so
        # the hub learns the route before any traffic needs it.
        if announce and self._connect_addr is not None and self._uplink is not None:
            try:
                self._send_hello(self._uplink)
            except TransportError:
                pass  # the reconnect path re-announces everything

    def pending(self, name: str) -> int:
        with self._lock:
            return self._queues[name].qsize() if name in self._queues else 0

    def _next_message(self, name: str, remaining: float | None) -> Message | None:
        self._accept()
        with self._lock:
            q = self._queues[name]
            # asking for the next frame lets go of the last one's credit, so a
            # consumer that keeps what it received cannot starve the node
            claim = self._claims.pop(name, None)
        if claim is not None:
            claim()
        try:
            message, credit = q.get(timeout=remaining)
        except queue.Empty:
            return None
        with self._lock:
            self._claims[name] = credit  # until the buffer dies or the next call
        return message

    def _admit(self, length: int) -> bytearray:
        """``read_frame``'s allocator: a tensor-sized frame waits here for a
        credit — its sender in ``sendmsg`` meanwhile — before it gets a byte.
        After ``_STALL_SECONDS`` without one it is read anyway, uncredited."""
        credited = length >= _CREDIT_FLOOR
        if credited:
            with self._budget:
                credited = bool(self._budget.wait_for(
                    lambda: self._credits or self._closed.is_set(), _STALL_SECONDS))
                if self._closed.is_set():
                    raise TransportError("node closed before the frame got a credit")
                if credited:
                    self._credits -= 1
                else:
                    if not self._overdrafts.value:  # the first one is news
                        self._log.warning(
                            "no receive credit for %.1fs: reading a %d-byte frame "
                            "beyond the budget (transport.credit_overdrafts)",
                            _STALL_SECONDS, length)
                    self._overdrafts.inc()
        payload = _Payload(min(length, _FIRST_ALLOC))
        payload.credit = weakref.finalize(payload, self._return_credit) if credited else None
        self._resident.add(length)  # until the last view of the buffer dies
        # registered last, so it runs first: the gauge drops before the credit frees
        weakref.finalize(payload, self._resident.add, -length)
        return payload

    def _return_credit(self) -> None:
        with self._budget:
            self._credits += 1
            self._budget.notify()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _dispatch(self, message: Message) -> None:
        recipient = message.recipient
        with self._lock:
            known = recipient in self._links or recipient in self._queues
        if known:
            link = self._deliver_local(message)
            if link is not None:
                self._send_link(link, encode_data_frame(message), recipient)
                self._count_delivery(message)
        elif self._connect_addr is not None:
            # Spoke: everything non-local goes through the hub, which owns
            # the routing table; deliverability is the hub's judgement.
            self._send_uplink(encode_data_frame(message))
            self._count_delivery(message)
        else:
            raise TransportError(f"unknown recipient {recipient!r}")

    def _deliver_local(self, message: Message, credit=None,
                       source: _Link | None = None) -> "_Link | None":
        """Queue ``message`` in its recipient's inbox, or return the link that
        claims the recipient unless it is ``source`` (the frame's way in).  One
        hold of the lock ``_claim_endpoints`` drains under, so no claim lands
        between check and put."""
        with self._lock:
            link = self._links.get(message.recipient)
            if link is source:
                link = None
            q = self._queues.get(message.recipient) if link is None else None
            if q is not None:
                q.put((message, credit))
        if q is not None:
            self._count_delivery(message)
        elif link is None:
            self._routing_drops.inc()
            self._log.warning("dropping %r for unknown local endpoint %r",
                              message.topic, message.recipient)
        return link

    def _send_link(self, link: _Link, frame: list, recipient: str) -> None:
        try:
            link.send_frame(frame)
        except TransportError:
            # the reader notices the dead socket too; drop the claim now so
            # retries fail fast until the spoke reconnects
            self._forget_link(link)
            raise

    def _forget_link(self, link: _Link) -> None:
        with self._lock:
            stale = [name for name, claimed in self._links.items()
                     if claimed is link]
            for name in stale:
                del self._links[name]
        link.close()

    # ------------------------------------------------------------------
    # hub side
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closed.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            link = _Link(sock)
            self._spawn(lambda l=link: self._reader_loop(l), name="bus-reader")

    def _claim_endpoints(self, link: _Link, names: list[str]) -> None:
        """Map announced endpoints to their link; flush any queued backlog."""
        backlog: list[tuple[Message, object]] = []
        with self._lock:
            for name in names:
                self._links[name] = link
                self._peers.add(name)
                q = self._queues.get(name)
                while q is not None and not q.empty():
                    backlog.append(q.get_nowait())
        for message, _ in backlog:
            try:
                link.send_frame(encode_data_frame(message))
            except TransportError:
                self._routing_drops.inc()

    def _reader_loop(self, link: _Link) -> None:
        """Drain one connection; a bad frame costs the connection, not the node."""
        try:
            while not self._closed.is_set():
                frame = read_frame(link.sock, self._admit)
                if frame is None:
                    return
                self._handle_frame(link, *frame)
                # The next prefix may be a round away: nothing stays bound to
                # this loop meanwhile, and a frame no inbox took dies (credit too).
                del frame
        except _PeerClosed:
            return
        except TransportError as error:
            if not self._closed.is_set():
                self._frame_errors.inc()
                self._log.warning("connection dropped: %s", error)
        finally:
            self._forget_link(link)

    def _handle_frame(self, link: _Link, frame_type: int, rest: memoryview) -> None:
        if frame_type == FRAME_HELLO:
            try:
                hello = json.loads(str(rest, "utf-8"))
                names = list(hello["endpoints"])
            except (UnicodeDecodeError, json.JSONDecodeError, KeyError,
                    TypeError) as error:
                raise TransportError(f"malformed HELLO: {error}") from error
            self._claim_endpoints(link, [str(name) for name in names])
        elif frame_type == FRAME_PING:
            self._heartbeats["pong"].inc()
            link.send_frame(encode_frame(FRAME_PONG))
        elif frame_type == FRAME_PONG:
            self._heartbeats["pong"].inc()
        elif frame_type == FRAME_BYE:
            raise _PeerClosed
        else:  # FRAME_DATA
            message = decode_data_frame(rest)
            forward = self._deliver_local(message, rest.obj.credit, source=link)
            if forward is not None:
                try:
                    forward.send_frame(encode_frame(FRAME_DATA, body=rest))
                    self._count_delivery(message)
                except TransportError:
                    self._forget_link(forward)
                    self._routing_drops.inc()

    # ------------------------------------------------------------------
    # spoke side
    # ------------------------------------------------------------------
    def _send_hello(self, link: _Link) -> None:
        with self._lock:
            names = sorted(self._queues)
        link.send_frame(encode_frame(
            FRAME_HELLO, json.dumps({"endpoints": names}).encode("utf-8")))

    def _ensure_uplink(self) -> _Link:
        with self._uplink_lock:
            if self._uplink is not None and self._uplink.alive:
                return self._uplink
            reconnecting = self._uplink is not None
            last_error: Exception | None = None
            for attempt in range(_UPLINK_RETRY.max_attempts):
                if self._closed.is_set():
                    raise TransportError("node is closed")
                try:
                    sock = socket.create_connection(self._connect_addr,
                                                    timeout=_CONNECT_TIMEOUT)
                    sock.settimeout(None)
                    link = _Link(sock)
                    self._send_hello(link)
                    self._uplink = link
                    self._spawn(lambda l=link: self._reader_loop(l),
                                name="bus-uplink-reader")
                    if reconnecting:
                        self._reconnects.inc()
                    return link
                except (OSError, TransportError) as error:
                    last_error = error
                    if attempt + 1 < _UPLINK_RETRY.max_attempts:
                        time.sleep(_UPLINK_RETRY.delay_for(attempt))
            raise TransportError(
                f"cannot reach hub at {self._connect_addr} after "
                f"{_UPLINK_RETRY.max_attempts} attempt(s): {last_error}"
            ) from last_error

    def _send_uplink(self, frame: list) -> None:
        link = self._ensure_uplink()
        try:
            link.send_frame(frame)
        except TransportError:
            link.close()
            # one reconnect-and-resend; send_with_retry owns further retries
            self._ensure_uplink().send_frame(frame)

    def _heartbeat_loop(self) -> None:
        assert self.heartbeat_interval is not None
        while not self._closed.wait(self.heartbeat_interval):
            try:
                self._send_uplink(encode_frame(FRAME_PING))
                self._heartbeats["ping"].inc()
            except TransportError:
                continue  # the next data send (or beat) retries the uplink

    # ------------------------------------------------------------------
    def wait_for_endpoints(self, names: list[str], timeout: float = 30.0) -> None:
        """Block until every name is routable (local or claimed by a link)."""
        self._accept()
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                missing = [name for name in names
                           if name not in self._links and name not in self._queues]
            if not missing:
                return
            if time.monotonic() > deadline:
                raise TransportError(
                    f"endpoints never connected within {timeout}s: "
                    f"{', '.join(missing)}")
            time.sleep(0.01)

    def close(self) -> None:
        """Tear down the listener, every link and the helper threads."""
        if self._closed.is_set():
            return
        self._closed.set()
        if self._listener is not None:
            _shutdown_and_close(self._listener)
        with self._uplink_lock:
            if self._uplink is not None:
                try:
                    self._uplink.send_frame(encode_frame(FRAME_BYE))
                except TransportError:
                    pass
                self._uplink.close()
        with self._lock:
            links = set(self._links.values())
            self._links.clear()
        for link in links:
            link.close()
        with self._budget:
            self._budget.notify_all()  # readers waiting for a credit see _closed
        for thread in self._threads:
            thread.join(timeout=2.0)

    def __enter__(self) -> "SocketMessageBus":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
