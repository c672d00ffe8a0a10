"""Hierarchical trace spans for federated runs — distributed edition.

A *span* measures one timed region — a federated round, one client's task,
a local training call, a single optimizer step — and remembers its parent,
so a run unrolls into a tree::

    span("round") -> span("client_task") -> span("local_train") -> span("step")

Each span records wall-clock time and *exclusive* time (wall minus the wall
of its direct children), which is what makes the flamegraph-style report
useful: a round whose time is all exclusive is bottlenecked in aggregation
or collection, not in client compute.

Distribution model (one federation = one trace):

- Every tracer carries a run-level ``trace_id`` (32 hex chars) and a
  ``process`` label; span ids are ``"<process>-<seq>"`` strings, so spans
  merged from N forked worker processes can never collide.
- Parent linkage is per-thread (a thread-local stack) *within* a process;
  **across** processes the transport carries a W3C-traceparent-style
  context (:func:`format_traceparent`) and the receiver opens its span
  with ``remote_parent=ctx`` — the remote span id overrides the local
  stack parent, stitching ``round -> client_task`` across the fork.
- Clock alignment: all timestamps are seconds on the *root* timeline.
  A worker tracer created with ``adopt_clock=True`` derives its offset
  from the first remote context it observes (the sender samples one
  ``time.monotonic()`` value for both the envelope's ``SEND_TS`` and the
  context's ``ts``, so on a shared CLOCK_MONOTONIC the offset is exact)
  and applies it to every span it exports — merged child intervals land
  inside their remote parent's interval.

Live export: :meth:`Tracer.drain` hands back finished spans exactly once
(as dicts, offsets applied), which is what the streaming telemetry path
flushes to ``trace.jsonl`` while the run executes; :meth:`Tracer.spans`
keeps the full in-memory record for end-of-run reporting.

When no tracer is installed, :func:`span` returns a shared no-op context
manager — the instrumentation costs one global read per call.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from pathlib import Path

__all__ = ["Span", "Tracer", "span", "get_tracer", "set_tracer",
           "format_traceparent", "parse_traceparent", "current_context"]

TRACE_SCHEMA = "repro.obs.trace/v2"


def format_traceparent(trace_id: str, span_id: str) -> str:
    """W3C-traceparent-style header: ``00-<trace_id>-<span_id>-01``.

    ``span_id`` is this library's process-prefixed string id (it may itself
    contain dashes); :func:`parse_traceparent` is the matching parser.
    """
    return f"00-{trace_id}-{span_id}-01"


def parse_traceparent(value: str) -> tuple[str, str]:
    """Return ``(trace_id, span_id)`` from a traceparent string.

    The version and flags fields are fixed-position; everything between the
    trace id and the trailing flags belongs to the span id (which may
    contain dashes, e.g. ``site-1-000003``).
    """
    parts = str(value).split("-")
    if len(parts) < 4:
        raise ValueError(f"malformed traceparent {value!r}")
    return parts[1], "-".join(parts[2:-1])


class Span:
    """One timed region; use as a context manager via :func:`span`."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "thread",
                 "t_start", "t_end", "child_seconds", "n_children",
                 "_remote_parent")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict,
                 remote_parent: str | None = None) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = tracer._next_id()
        self.parent_id: str | None = None
        self.thread = threading.current_thread().name
        self.t_start = 0.0
        self.t_end = 0.0
        self.child_seconds = 0.0
        self.n_children = 0
        self._remote_parent = remote_parent

    # ------------------------------------------------------------------
    @property
    def wall_seconds(self) -> float:
        return self.t_end - self.t_start

    @property
    def exclusive_seconds(self) -> float:
        return max(self.wall_seconds - self.child_seconds, 0.0)

    def set_attr(self, key: str, value) -> None:
        """Attach an attribute after entry (e.g. a result computed inside)."""
        self.attrs[key] = value

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        stack = self.tracer._stack()
        if stack:
            parent = stack[-1]
            self.parent_id = parent.span_id
            parent.n_children += 1
        if self._remote_parent is not None:
            # Cross-process causality beats the local stack: the span the
            # sender had open when it dispatched the message is this span's
            # parent in the merged tree.  Exclusive-time attribution stays
            # local (the enclosing local span still absorbs child_seconds).
            self.parent_id = self._remote_parent
        self.t_start = time.monotonic() - self.tracer.origin
        stack.append(self)
        self.tracer._open_span(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.t_end = time.monotonic() - self.tracer.origin
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        stack = self.tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            stack[-1].child_seconds += self.wall_seconds
        self.tracer._record(self)
        return False

    def to_dict(self) -> dict:
        offset = self.tracer.clock_offset
        return {
            "span_id": self.span_id, "parent_id": self.parent_id,
            "name": self.name, "process": self.tracer.process,
            "thread": self.thread,
            "t_start": round(self.t_start + offset, 6),
            "t_end": round(self.t_end + offset, 6),
            "wall_s": round(self.wall_seconds, 6),
            "excl_s": round(self.exclusive_seconds, 6),
            "attrs": self.attrs,
        }


class _NullSpan:
    """Reusable no-op span handed out when tracing is off (stateless, so one
    shared instance is safe under nesting and across threads)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attr(self, key: str, value) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans; exports one JSON object per line.

    Parameters
    ----------
    trace_id:
        32-hex run-level id shared by every tracer participating in one
        federation (the parent mints it, workers inherit it through
        :class:`~repro.obs.session.WorkerTelemetry`).  A fresh random
        id is minted when omitted.
    process:
        Label prefixed to every span id minted here (a worker uses its
        site name, the parent uses ``server``); defaults to ``p<pid>``.
    adopt_clock:
        When True, the first remote context observed via
        :meth:`observe_remote` calibrates :attr:`clock_offset` so exported
        timestamps land on the sender's (ultimately the root's) timeline.

    ``origin`` anchors all span times: ``t_start``/``t_end`` are seconds
    since tracer creation (``time.monotonic``, the clock shared across
    forked processes on one host), and ``started_unix`` in the export
    header maps them back to wall-clock time.
    """

    def __init__(self, trace_id: str | None = None, process: str | None = None,
                 adopt_clock: bool = False) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex
        self.process = process or f"p{os.getpid()}"
        self.adopt_clock = adopt_clock
        self.clock_offset = 0.0
        self._clock_synced = not adopt_clock
        self.origin = time.monotonic()
        self.started_unix = time.time()
        self._lock = threading.Lock()
        self._records: list[Span] = []   # everything ever finished
        self._pending: list[Span] = []   # finished but not yet drained
        self._open: dict[str, Span] = {}
        self._id = 0
        self._local = threading.local()
        self._flush_hook = None
        self._flush_threshold = 0.0

    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        with self._lock:
            self._id += 1
            return f"{self.process}-{self._id:06x}"

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open_span(self, opened: Span) -> None:
        with self._lock:
            self._open[opened.span_id] = opened

    def _record(self, finished: Span) -> None:
        with self._lock:
            self._open.pop(finished.span_id, None)
            self._records.append(finished)
            self._pending.append(finished)
            hook = self._flush_hook
        if hook is not None and finished.wall_seconds >= self._flush_threshold:
            hook()

    # ------------------------------------------------------------------
    def set_flush_hook(self, callback, threshold: float = 0.0) -> None:
        """Call ``callback()`` whenever a span at least ``threshold`` seconds
        wide finishes — the streaming exporters use it to flush promptly
        after significant spans (a round, a client task) close instead of
        waiting out their poll interval."""
        self._flush_threshold = threshold
        self._flush_hook = callback

    # ------------------------------------------------------------------
    # distributed context
    # ------------------------------------------------------------------
    def current_context(self, ts_mono: float | None = None) -> dict:
        """The propagation header for a message sent *now*.

        ``ts_mono`` is the ``time.monotonic()`` sample the transport also
        stamps into ``SEND_TS`` — passing the same sample makes the
        receiver's clock-offset derivation exact.  ``ts`` is that instant
        on this tracer's *exported* timeline, so offsets compose
        transitively back to the root.
        """
        if ts_mono is None:
            ts_mono = time.monotonic()
        stack = self._stack()
        span_id = stack[-1].span_id if stack else ""
        return {"traceparent": format_traceparent(self.trace_id, span_id),
                "ts": round(ts_mono - self.origin + self.clock_offset, 6)}

    def observe_remote(self, ctx: dict, send_ts: float) -> None:
        """Learn the sender's timeline from one received context.

        ``send_ts`` is the envelope's raw ``time.monotonic()`` send stamp;
        ``ctx["ts"]`` is the same instant on the sender's exported
        timeline.  On a shared monotonic clock (forked processes on one
        host) one observation aligns this tracer exactly; the offset is
        captured once, so every span — including ones recorded before the
        first message arrived — exports consistently.
        """
        if not self.adopt_clock or self._clock_synced:
            return
        ts = ctx.get("ts")
        if not isinstance(ts, (int, float)) or not isinstance(send_ts, (int, float)):
            return
        self.clock_offset = self.origin - float(send_ts) + float(ts)
        self._clock_synced = True

    # ------------------------------------------------------------------
    def span(self, name: str, remote_parent: dict | str | None = None,
             **attrs) -> Span:
        """Open a span; ``remote_parent`` is a propagation context (or a raw
        span id) naming the cross-process parent."""
        parent_id: str | None = None
        if isinstance(remote_parent, dict):
            traceparent = remote_parent.get("traceparent")
            if traceparent:
                try:
                    _, parent_id = parse_traceparent(traceparent)
                except ValueError:
                    parent_id = None
                parent_id = parent_id or None
        elif isinstance(remote_parent, str) and remote_parent:
            parent_id = remote_parent
        return Span(self, name, attrs, remote_parent=parent_id)

    def record_complete(self, name: str, seconds: float, **attrs) -> None:
        """Record an already-measured region as a finished span.

        Used by hot paths that already time themselves (the wire codec):
        the span is parented under the calling thread's current span and
        contributes to its child time, without entering the stack.
        """
        finished = Span(self, name, attrs)
        stack = self._stack()
        if stack:
            parent = stack[-1]
            finished.parent_id = parent.span_id
            parent.n_children += 1
            parent.child_seconds += seconds
        finished.t_end = time.monotonic() - self.origin
        finished.t_start = finished.t_end - seconds
        self._record(finished)

    @property
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._records)

    def drain(self) -> list[dict]:
        """Finished spans not yet drained, as export dicts (offset applied).

        Each finished span is handed out exactly once — the streaming
        telemetry writers call this repeatedly during a run.
        """
        with self._lock:
            pending, self._pending = self._pending, []
        return [s.to_dict() for s in pending]

    def open_spans(self) -> list[dict]:
        """Currently-open spans (no ``t_end`` yet), for crash forensics."""
        with self._lock:
            opened = list(self._open.values())
        offset = self.clock_offset
        return [{"span_id": s.span_id, "parent_id": s.parent_id,
                 "name": s.name, "process": self.process, "thread": s.thread,
                 "t_start": round(s.t_start + offset, 6), "attrs": s.attrs}
                for s in opened]

    def header(self) -> dict:
        """The ``trace.jsonl`` header line for traces this tracer roots."""
        return {"schema": TRACE_SCHEMA, "trace_id": self.trace_id,
                "process": self.process, "started_unix": self.started_unix}

    def export_jsonl(self, path: str | Path) -> Path:
        """Write all spans as JSONL, preceded by one ``trace_header`` line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            records = [s.to_dict() for s in self._records]
        header = dict(self.header(), n_spans=len(records))
        with path.open("w") as fh:
            fh.write(json.dumps(header) + "\n")
            for record in sorted(records, key=lambda r: r["t_start"]):
                fh.write(json.dumps(record, default=str) + "\n")
        return path


# ---------------------------------------------------------------------------
# process-wide tracer
# ---------------------------------------------------------------------------
_tracer: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The installed tracer, or None when tracing is off."""
    return _tracer


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install (or clear, with None) the process-wide tracer."""
    global _tracer
    old = _tracer
    _tracer = tracer
    return old


def span(name: str, remote_parent: dict | str | None = None, **attrs):
    """Open a span under the installed tracer (no-op when tracing is off)."""
    tracer = _tracer
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, remote_parent=remote_parent, **attrs)


def current_context(ts_mono: float | None = None) -> dict | None:
    """The installed tracer's propagation header, or None when tracing is off."""
    tracer = _tracer
    if tracer is None:
        return None
    return tracer.current_context(ts_mono)
