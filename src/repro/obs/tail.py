"""Live trace follower: ``python -m repro.obs tail <run_dir>``.

Follows the ``trace.jsonl`` that a streaming
:class:`~repro.obs.session.TelemetrySession` appends to while a federation
run is in flight, and renders round progress as it happens: which workers
joined (with their clock offsets), each ``client_task`` as it completes,
and a one-line digest when the server closes a ``round`` span.  The
follower exits when it sees the ``{"event": "end"}`` footer the session
writes on shutdown, or after ``idle_timeout`` seconds without new bytes
(covering runs that died without a footer).

The records come from :class:`~repro.obs.rundir.JsonlReader`, which holds a
partial final line back until the writer finishes it, so the follower never
misparses a record that is mid-append.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from .rundir import TRACE_FILE, JsonlReader

__all__ = ["iter_trace_records", "tail_run"]


def iter_trace_records(path: str | Path, poll: float = 0.2,
                       idle_timeout: float | None = None,
                       _clock=time.monotonic):
    """Yield records from a (possibly still growing) trace.jsonl.

    Waits for the file to appear, then streams complete lines as the writer
    flushes them.  Stops after the ``end`` footer (which is yielded) or once
    ``idle_timeout`` seconds pass with no new data.
    """
    reader = JsonlReader(path)
    last_progress = _clock()
    while True:
        offset = reader.offset
        for record in reader.poll():
            yield record
            if record.get("event") == "end":
                return
        if reader.offset != offset:
            last_progress = _clock()
        elif idle_timeout is not None and \
                _clock() - last_progress > idle_timeout:
            return
        else:
            time.sleep(poll)


def _fmt_s(value: float) -> str:
    return f"{value:.3f}s" if value >= 1.0 else f"{value * 1e3:.1f}ms"


class _RoundTracker:
    """Folds the span stream into human-readable round-progress lines."""

    def __init__(self) -> None:
        self.tasks_by_round: dict[object, list[dict]] = {}

    def feed(self, record: dict) -> str | None:
        if record.get("schema"):
            return (f"trace {record.get('trace_id', '?')} "
                    f"(process {record.get('process', '?')})")
        if record.get("event") == "process":
            offset = record.get("clock_offset") or 0.0
            return (f"process {record.get('process', '?')} joined "
                    f"(client {record.get('client', '?')}, "
                    f"clock offset {offset * 1e6:+.1f}us)")
        if record.get("event") == "end":
            return "run ended"
        if "span_id" not in record:
            return None
        name = record.get("name")
        attrs = record.get("attrs") or {}
        if record.get("t_end") is None:
            return (f"  !! span {name} [{record.get('process', '?')}] "
                    f"aborted (never closed)")
        if name == "client_task":
            round_number = attrs.get("round")
            self.tasks_by_round.setdefault(round_number, []).append(record)
            return (f"  round {round_number}: client "
                    f"{attrs.get('client', record.get('process', '?'))} "
                    f"done in {_fmt_s(record.get('wall_s') or 0.0)}")
        if name == "round":
            round_number = attrs.get("round")
            if attrs.get("mode") == "async":
                # FedBuff commit window: show the buffer fill, the global
                # version it produced and how stale the updates ran.
                fill = (f"{attrs.get('accepted', '?')}/"
                        f"{attrs.get('buffer_size', '?')} update(s)")
                detail = f"buffer {fill}, global v{attrs.get('version', '?')}"
                staleness = attrs.get("staleness_max")
                if staleness is not None:
                    detail += f", staleness max {staleness}"
                if attrs.get("quorum_met") is False:
                    detail += ", under quorum"
                return (f"commit window {round_number} closed in "
                        f"{_fmt_s(record.get('wall_s') or 0.0)} ({detail})")
            # worker deltas race the server's own stream, so tasks for this
            # round may still arrive (and print) after this line
            n_tasks = len(self.tasks_by_round.get(round_number, []))
            return (f"round {round_number} complete in "
                    f"{_fmt_s(record.get('wall_s') or 0.0)} "
                    f"({n_tasks} task(s) streamed so far)")
        return None


def tail_run(run_dir: str | Path, stream=None, poll: float = 0.2,
             idle_timeout: float | None = 30.0) -> int:
    """Follow ``<run_dir>/trace.jsonl``, printing progress lines; returns
    the number of records seen."""
    stream = stream if stream is not None else sys.stdout
    tracker = _RoundTracker()
    count = 0
    for record in iter_trace_records(Path(run_dir) / TRACE_FILE, poll=poll,
                                     idle_timeout=idle_timeout):
        count += 1
        line = tracker.feed(record)
        if line is not None:
            print(line, file=stream, flush=True)
    return count
