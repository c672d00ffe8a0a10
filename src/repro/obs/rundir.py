"""Run-directory artifacts and the one reader of their JSONL streams.

Every artifact a telemetry-armed run writes is named here once, and
:class:`JsonlReader` is the only code that turns ``trace.jsonl`` /
``health.jsonl`` lines into records.  ``report``, ``tail``, ``watch``,
``runs`` and the Chrome export all read through it, so they agree on what a
run directory holds.

The reader contract:

- a record is one complete line holding a JSON **object**; blank lines,
  undecodable lines and lines holding any other JSON value are skipped;
- :func:`read_records` reads a file once: a final line without its newline
  counts if it parses (an aborted run's half-written tail does not);
- :meth:`JsonlReader.poll` reads incrementally: each call returns the
  records completed since the previous call, never blocks, and holds a
  partial last line back until the writer finishes it.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["METRICS_FILE", "TRACE_FILE", "PROFILE_FILE", "HEALTH_FILE",
           "STATS_FILE", "RUN_ARTIFACTS", "JsonlReader", "read_records"]

METRICS_FILE = "metrics.json"
TRACE_FILE = "trace.jsonl"
PROFILE_FILE = "profile.json"
HEALTH_FILE = "health.jsonl"
STATS_FILE = "stats.json"
# Artifact names that make a directory a run (any one of them).
RUN_ARTIFACTS = (STATS_FILE, METRICS_FILE, HEALTH_FILE, TRACE_FILE,
                 PROFILE_FILE)


def _parse(lines: list[bytes]) -> list[dict]:
    records = []
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:  # truncated or garbled line
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def read_records(path: str | Path) -> list[dict]:
    """Every record of a JSONL file (raises ``OSError`` if it is missing)."""
    return _parse(Path(path).read_bytes().split(b"\n"))


class JsonlReader:
    """Incremental reader of one (possibly still growing) JSONL file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.offset = 0  # bytes consumed, partial line included
        self._partial = b""

    def poll(self) -> list[dict]:
        """The complete records appended since the last call."""
        try:
            with self.path.open("rb") as handle:
                handle.seek(self.offset)
                chunk = handle.read()
        except FileNotFoundError:
            return []
        if not chunk:
            return []
        self.offset += len(chunk)
        lines = (self._partial + chunk).split(b"\n")
        self._partial = lines.pop()
        return _parse(lines)
