"""Chrome/Perfetto trace-event export for merged federation traces.

Converts the ``trace.jsonl`` a :class:`~repro.obs.session.TelemetrySession`
writes into the Chrome trace-event JSON format (the ``chrome://tracing`` /
`Perfetto <https://ui.perfetto.dev>`_ ``traceEvents`` array).  Each repro
process (server, site-1, ...) becomes one Chrome "process" row and each
thread within it one "thread" row, so the clock-aligned merged timeline —
``round`` on the server enclosing every worker's ``client_task`` /
``local_train`` — renders as nested bars exactly as recorded.

Timestamps are the run-relative seconds from the trace (already shifted
onto the server's timeline by the per-process clock offsets) converted to
the microseconds Chrome expects.  Spans a crashed worker never closed
(``t_end: null``, status ``aborted``) are emitted as zero-duration events
flagged ``status: aborted`` so they stay visible in the viewer.
"""

from __future__ import annotations

import json
from pathlib import Path

from .rundir import read_records

__all__ = ["to_chrome_trace", "export_chrome_trace"]


def _stable_ids(records: list[dict]) -> tuple[dict[str, int], dict[tuple, int]]:
    """Map process names -> pid and (process, thread) -> tid, first-seen order."""
    pids: dict[str, int] = {}
    tids: dict[tuple, int] = {}
    per_process: dict[str, int] = {}
    for record in records:
        process = record.get("process", "server")
        pids.setdefault(process, len(pids) + 1)
        key = (process, record.get("thread", "MainThread"))
        if key not in tids:
            per_process[process] = per_process.get(process, 0) + 1
            tids[key] = per_process[process]
    return pids, tids


def to_chrome_trace(records: list[dict],
                    trace_id: str | None = None) -> dict:
    """Build a Chrome trace-event payload from parsed trace records.

    ``records`` may be the full event stream (header/process markers/footer
    included) or just spans; anything without a ``span_id`` contributes
    metadata only.
    """
    spans = [r for r in records if "span_id" in r]
    header = next((r for r in records if r.get("schema")), None)
    if trace_id is None and header is not None:
        trace_id = header.get("trace_id")

    pids, tids = _stable_ids(spans)
    events: list[dict] = []
    for process, pid in pids.items():
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": process}})
    for (process, thread), tid in tids.items():
        events.append({"name": "thread_name", "ph": "M",
                       "pid": pids[process], "tid": tid,
                       "args": {"name": thread}})

    for record in spans:
        process = record.get("process", "server")
        t_start = record.get("t_start", 0.0)
        t_end = record.get("t_end")
        aborted = t_end is None
        args = dict(record.get("attrs") or {})
        args["span_id"] = record["span_id"]
        if record.get("parent_id"):
            args["parent_id"] = record["parent_id"]
        if aborted or record.get("status") == "aborted":
            args["status"] = "aborted"
        events.append({
            "name": record.get("name", "?"),
            "cat": "aborted" if aborted else "span",
            "ph": "X",
            "ts": round(t_start * 1e6, 1),
            "dur": 0.0 if aborted else round((t_end - t_start) * 1e6, 1),
            "pid": pids[process],
            "tid": tids[(process, record.get("thread", "MainThread"))],
            "args": args,
        })

    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    if trace_id:
        payload["otherData"] = {"trace_id": trace_id}
    return payload


def export_chrome_trace(trace_path: str | Path,
                        out_path: str | Path | None = None) -> Path:
    """Convert a ``trace.jsonl`` into ``<stem>.chrome.json`` (or ``out_path``)."""
    trace_path = Path(trace_path)
    payload = to_chrome_trace(read_records(trace_path))
    if out_path is None:
        out_path = trace_path.parent / (trace_path.stem + ".chrome.json")
    out_path = Path(out_path)
    out_path.write_text(json.dumps(payload, indent=1, sort_keys=True))
    return out_path
