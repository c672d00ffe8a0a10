"""Shared-memory transport: fork-inherited queues + mmap'd tensor segments.

The fabric behind the persistent worker pool
(``FLJob(transport="shm")``): the parent process creates one
:class:`ShmMessageBus` *before* forking its client workers, so every process
shares the same :mod:`multiprocessing` queues (the control plane) and the
same ``/dev/shm`` segment directory (the data plane).

An envelope's metadata — sender, recipient, topic, signature, headers —
always travels through the recipient's queue.  The body goes one of two
ways:

- small bodies (<= ``inline_limit``, default 4 KiB: acks, heartbeats, stop
  fan-outs) ride inline in the queue record and get pickled like any other
  control traffic;
- tensor-sized bodies are written once into an mmap'd file under the
  segment directory and the queue record carries only ``(name, pad, len)``.

The pad is chosen so the DXO blob *inside* the body — the body is
``u32le header_len | shareable headers | DXO`` — starts at a 64-byte-aligned
segment offset.  mmap bases are page-aligned, so the RTC1 codec's own
64-byte internal alignment then holds in mapped memory too, and the
receiver's ``decode_tensors`` views are aligned exactly as they were in the
sender.  The receiver maps the segment read-only, unlinks it immediately
(the mapping keeps the pages alive; the directory stays empty) and hands
``receive`` a :class:`memoryview` — signature verification, shareable
decode and tensor decode all run in place over shared pages.  Per message
the tensor block is copied exactly once, from the sender's arrays into the
segment; the receiving process copies nothing.

Fault injection (``fault_plan=``) runs in ``BaseTransport.send_shareable``,
in front of this fabric's dispatch as in front of every other, so chaos plans
make identical per-message decisions on shm.

One caveat inherited from ``fork``: each process owns a private copy of the
python-level bus state (session keys, dedup windows, metrics) from the
moment of the fork, exactly as if it were a separate node — only the queues
and the segment directory are shared.  Children must install their own
session keys after forking, mirroring the socket spoke.
"""

from __future__ import annotations

import itertools
import mmap
import multiprocessing
import os
import queue as queue_module
import shutil
import tempfile
import time
from typing import TYPE_CHECKING

from .codec import ALIGNMENT
from .transport import BaseTransport, Message, TransportError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultPlan

__all__ = ["ShmMessageBus", "DEFAULT_INLINE_LIMIT"]

# Bodies at or below this many bytes are pickled through the queue instead
# of earning a segment file: the mmap round-trip (create/truncate/map/unlink)
# costs more than copying a few KiB.
DEFAULT_INLINE_LIMIT = 4096

# Segments go to tmpfs where there is one, so they never touch a disk.
_SEGMENT_ROOT = "/dev/shm" if os.path.isdir("/dev/shm") else None


class ShmMessageBus(BaseTransport):
    """One transport fabric shared by a parent and its forked workers.

    Create the bus and :meth:`register_endpoint` **every** participant in
    the parent before forking — the per-endpoint queues must exist at fork
    time to be inherited.  After the fork each process sends and receives
    through its inherited copy; re-registering an endpoint in a child is an
    idempotent no-op on the shared queue.
    """

    def __init__(self, *, fault_plan: "FaultPlan | None" = None,
                 inline_limit: int = DEFAULT_INLINE_LIMIT) -> None:
        super().__init__(fault_plan)
        self.inline_limit = inline_limit
        self._ctx = multiprocessing.get_context("fork")
        self._queues: dict[str, "multiprocessing.queues.Queue"] = {}
        self._dir = tempfile.mkdtemp(prefix="repro-shm-", dir=_SEGMENT_ROOT)
        self._owner_pid = os.getpid()
        self._seq = itertools.count()
        self._closed = False
        self._segments_written = self.metrics.counter("transport.shm_segments")
        self._segment_bytes = self.metrics.counter("transport.shm_segment_bytes")
        self._inline_bodies = self.metrics.counter("transport.shm_inline")

    @property
    def segment_dir(self) -> str:
        return self._dir

    # ------------------------------------------------------------------
    # fabric hooks
    # ------------------------------------------------------------------
    def _on_endpoint_registered(self, name: str) -> None:
        with self._lock:
            if name not in self._queues:
                if os.getpid() != self._owner_pid:
                    # a child can only use queues that existed at fork time;
                    # a brand-new queue would be invisible to everyone else
                    raise TransportError(
                        f"endpoint {name!r} was not registered before the "
                        "fork; register every participant in the parent")
                self._queues[name] = self._ctx.Queue()

    def _dispatch(self, message: Message) -> None:
        if self._closed:
            raise TransportError("shm bus is closed")
        with self._lock:
            q = self._queues.get(message.recipient)
        if q is None:
            raise TransportError(f"unknown recipient {message.recipient!r}")
        body = message.body
        if len(body) <= self.inline_limit:
            self._inline_bodies.inc()
            record = (message.sender, message.recipient, message.topic,
                      message.signature, message.headers, bytes(body), None)
        else:
            record = (message.sender, message.recipient, message.topic,
                      message.signature, message.headers, None,
                      self._write_segment(body))
        q.put(record)
        self._count_delivery(message)

    def _next_message(self, name: str, remaining: float | None) -> Message | None:
        with self._lock:
            q = self._queues.get(name)
        if q is None:
            raise TransportError(f"unknown endpoint {name!r}")
        try:
            record = q.get(timeout=remaining)
        except queue_module.Empty:
            return None
        sender, recipient, topic, signature, headers, inline, segment = record
        body = inline if segment is None else self._read_segment(*segment)
        return Message(sender=sender, recipient=recipient, topic=topic,
                       body=body, signature=signature, headers=headers)

    def pending(self, name: str) -> int:
        with self._lock:
            q = self._queues.get(name)
        try:
            return q.qsize() if q is not None else 0
        except NotImplementedError:  # pragma: no cover - macOS qsize
            return 0

    # ------------------------------------------------------------------
    # segments
    # ------------------------------------------------------------------
    @staticmethod
    def _body_pad(body) -> int:
        """Segment offset that lands the body's DXO block on 64 bytes."""
        shareable_header_len = int.from_bytes(bytes(body[:4]), "little")
        return -(4 + shareable_header_len) % ALIGNMENT

    def _write_segment(self, body) -> tuple[str, int, int]:
        """Copy ``body`` into a fresh mmap'd file; returns (name, pad, len)."""
        pad = self._body_pad(body)
        total = pad + len(body)
        name = f"{os.getpid()}-{next(self._seq)}.seg"
        path = os.path.join(self._dir, name)
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
        try:
            os.ftruncate(fd, total)
            with mmap.mmap(fd, total) as mapped:
                mapped[pad:total] = body
        except BaseException:
            os.close(fd)
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            raise
        os.close(fd)
        self._segments_written.inc()
        self._segment_bytes.inc(total)
        return name, pad, len(body)

    def _read_segment(self, name: str, pad: int, length: int) -> memoryview:
        """Map a segment read-only and unlink it; returns the body view.

        The returned memoryview (and every numpy view decoded from it)
        keeps the mapping — hence the pages — alive; once the last view is
        garbage-collected the segment memory is released.  Unlinking here
        means a crashed or slow consumer can never strand files: the
        directory only ever holds in-flight segments.
        """
        path = os.path.join(self._dir, name)
        fd = os.open(path, os.O_RDONLY)
        try:
            mapped = mmap.mmap(fd, pad + length, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - raced by close()
                pass
        return memoryview(mapped)[pad:pad + length]

    # ------------------------------------------------------------------
    def wait_for_endpoints(self, names: list[str], timeout: float = 30.0) -> None:
        """Block until every name has a queue (shm: registered pre-fork)."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                missing = [name for name in names if name not in self._queues]
            if not missing:
                return
            if time.monotonic() > deadline:
                raise TransportError(
                    f"endpoints never registered within {timeout}s: "
                    f"{', '.join(missing)}")
            time.sleep(0.01)

    def close(self) -> None:
        """Mark the bus closed; the creating process removes the segment dir."""
        if self._closed:
            return
        self._closed = True
        if os.getpid() == self._owner_pid:
            shutil.rmtree(self._dir, ignore_errors=True)

    def __enter__(self) -> "ShmMessageBus":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
