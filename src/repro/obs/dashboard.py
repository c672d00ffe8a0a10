"""Live terminal dashboard: ``python -m repro.obs watch <run_dir|url>``.

The operator's view of a federation in flight.  Two data paths feed one
ANSI dashboard:

- **run-dir mode** (``watch runs/my-run``) — reads what the streaming
  ``trace.jsonl`` and ``health.jsonl`` gained since the last frame with the
  same incremental, partial-line-safe reader ``repro.obs tail`` uses
  (:class:`~repro.obs.rundir.JsonlReader`), so it works on any
  telemetry-armed run with no exporter at all;
- **URL mode** (``watch http://127.0.0.1:9100``) — polls a
  :class:`~repro.obs.exporter.MetricsExporter`'s ``/metrics`` and
  ``/healthz`` endpoints, which adds the
  :class:`~repro.obs.sysmon.SysMonitor` resource gauges (RSS/CPU
  sparklines per process) to the picture.

Rendered sections: round/commit progress, a per-site table (last seen,
tasks served, staleness, quarantine), the alert feed, and RSS/CPU
sparklines.  Keys: ``q`` quits (so does Ctrl-C); the dashboard exits on
its own when the followed run writes its trace footer.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.request
from collections import deque
from pathlib import Path

from .exporter import parse_prometheus_text
from .report import _fmt_bytes
from .rundir import HEALTH_FILE, TRACE_FILE, JsonlReader

__all__ = ["Dashboard", "watch", "sparkline"]

BLOCKS = "▁▂▃▄▅▆▇█"
CLEAR = "\x1b[H\x1b[2J"
HISTORY = 48


def sparkline(values, width: int = 24) -> str:
    """Render the last ``width`` values as a unicode block sparkline."""
    values = [float(v) for v in list(values)[-width:]]
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    return "".join(BLOCKS[int((v - lo) / span * (len(BLOCKS) - 1))]
                   for v in values)


def _fmt_ago(seconds: float) -> str:
    if seconds < 0:
        return "-"
    if seconds < 60:
        return f"{seconds:.1f}s ago"
    return f"{seconds / 60:.1f}m ago"


class Dashboard:
    """Folds trace/health records and exporter scrapes into one screen."""

    def __init__(self, target: str = "", clock=time.monotonic) -> None:
        self.target = target
        self._clock = clock
        self.trace_id: str | None = None
        self.finished = False
        # round_number -> summary dict (mode/seconds/quorum/updates/version)
        self.rounds: dict[int, dict] = {}
        # site -> {last_seen, tasks, staleness, quarantined}
        self.sites: dict[str, dict] = {}
        self.alerts: deque[dict] = deque(maxlen=6)
        self.alert_counts: dict[str, int] = {}
        # process -> history deques for the sparklines
        self.rss: dict[str, deque] = {}
        self.cpu: dict[str, deque] = {}
        self.health_status: str | None = None

    # ------------------------------------------------------------------
    def _site(self, name: str) -> dict:
        return self.sites.setdefault(
            name, {"last_seen": None, "tasks": 0, "staleness": 0,
                   "quarantined": False})

    def feed_trace_record(self, record: dict) -> None:
        if record.get("schema"):
            self.trace_id = record.get("trace_id")
            return
        if record.get("event") == "process":
            client = record.get("client") or record.get("process")
            if client and client != "server":
                self._site(str(client))["last_seen"] = self._clock()
            return
        if record.get("event") == "end":
            self.finished = True
            return
        if "span_id" not in record:
            return
        name, attrs = record.get("name"), record.get("attrs") or {}
        if name == "client_task":
            site = self._site(str(attrs.get("client",
                                            record.get("process", "?"))))
            site["last_seen"] = self._clock()
            site["tasks"] += 1
            if "staleness" in attrs:
                site["staleness"] = attrs["staleness"]
        elif name == "round":
            number = attrs.get("round")
            if number is not None:
                self.rounds[int(number)] = {
                    "seconds": record.get("wall_s") or 0.0,
                    "quorum_met": attrs.get("quorum_met", True),
                    "updates": attrs.get("n_clients"),
                    "mode": attrs.get("mode", "sync"),
                    "version": attrs.get("version"),
                    "accepted": attrs.get("accepted"),
                    "buffer_size": attrs.get("buffer_size"),
                    "staleness_max": attrs.get("staleness_max"),
                }

    def feed_health_record(self, record: dict) -> None:
        event = record.get("event")
        if event == "alert":
            self.alerts.append(record)
            severity = record.get("severity", "info")
            self.alert_counts[severity] = self.alert_counts.get(severity, 0) + 1
            client = record.get("client")
            if client:
                self._site(str(client))
        elif event == "round":
            quarantined = set(record.get("quarantined", []))
            for client in record.get("participants", []) or []:
                self._site(str(client))["quarantined"] = client in quarantined
            for client in quarantined:
                self._site(str(client))["quarantined"] = True

    def feed_scrape(self, samples: list[tuple[str, dict, float]]) -> None:
        now = self._clock()
        for name, labels, value in samples:
            process = labels.get("process", "main")
            if name == "sys_rss_bytes":
                self.rss.setdefault(process, deque(maxlen=HISTORY)).append(value)
                if process != "server":
                    self._site(process)["last_seen"] = now
            elif name == "sys_cpu_percent":
                self.cpu.setdefault(process, deque(maxlen=HISTORY)).append(value)
            elif name == "federation_rounds":
                for number in range(int(value)):
                    self.rounds.setdefault(number, {"seconds": 0.0,
                                                    "quorum_met": True,
                                                    "updates": None,
                                                    "mode": "?"})

    def feed_healthz(self, payload: dict) -> None:
        self.health_status = payload.get("status")
        self.alert_counts = dict(payload.get("alert_counts", {}))
        quarantined = set(payload.get("quarantined", []))
        for client in quarantined:
            self._site(str(client))["quarantined"] = True
        for site, info in self.sites.items():
            info["quarantined"] = site in quarantined
        self.alerts.clear()
        self.alerts.extend(payload.get("alerts", [])[-6:])

    # ------------------------------------------------------------------
    def render(self) -> str:
        now = self._clock()
        lines = [f"== federation dashboard — {self.target} "
                 f"(q or Ctrl-C quits) =="]
        if self.trace_id:
            lines.append(f"trace {self.trace_id}")

        done = sorted(self.rounds)
        if done:
            last = self.rounds[done[-1]]
            progress = f"rounds: {len(done)} complete"
            if last.get("mode") == "async":
                progress = (f"commits: {len(done)} "
                            f"(global v{last.get('version', '?')})")
                fill = last.get("accepted")
                if fill is not None:
                    progress += (f", last window {fill}/"
                                 f"{last.get('buffer_size', '?')} update(s)")
                if last.get("staleness_max") is not None:
                    progress += f", staleness max {last['staleness_max']}"
            else:
                updates = last.get("updates")
                progress += (f", last round {done[-1]}: "
                             f"{last.get('seconds', 0.0):.2f}s")
                if updates is not None:
                    progress += f", {updates} update(s)"
            if not last.get("quorum_met", True):
                progress += "  [UNDER QUORUM]"
            lines.append(progress)
        else:
            lines.append("rounds: none finished yet")
        if self.health_status is not None:
            counts = ", ".join(f"{v} {k}" for k, v in
                               sorted(self.alert_counts.items())) or "none"
            lines.append(f"health: {self.health_status} (alerts: {counts})")

        if self.sites:
            lines.append("")
            lines.append(f"  {'site':<12} {'last seen':>10} {'tasks':>6} "
                         f"{'staleness':>9}  status")
            for name in sorted(self.sites):
                info = self.sites[name]
                seen = (_fmt_ago(now - info["last_seen"])
                        if info["last_seen"] is not None else "-")
                status = "QUARANTINED" if info["quarantined"] else "ok"
                lines.append(f"  {name:<12} {seen:>10} {info['tasks']:>6} "
                             f"{info['staleness']:>9}  {status}")

        if self.alerts:
            lines.append("")
            lines.append("alerts (most recent):")
            for alert in list(self.alerts):
                client = alert.get("client") or "-"
                lines.append(f"  r{alert.get('round_number', '?')} "
                             f"{alert.get('severity', '?'):<8} "
                             f"{alert.get('detector', '?'):<20} {client:<10} "
                             f"{alert.get('message', '')[:60]}")

        if self.rss or self.cpu:
            lines.append("")
            for process in sorted(self.rss):
                history = self.rss[process]
                lines.append(f"  rss {process:<10} {sparkline(history)} "
                             f"{_fmt_bytes(history[-1])}")
            for process in sorted(self.cpu):
                history = self.cpu[process]
                lines.append(f"  cpu {process:<10} {sparkline(history)} "
                             f"{history[-1]:.0f}%")

        if self.finished:
            lines.append("")
            lines.append("run finished (trace footer seen)")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# follow loops
# ---------------------------------------------------------------------------
def _fetch(url: str, timeout: float = 2.0) -> bytes | None:
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.read()
    except Exception:
        return None


def _quit_pressed() -> bool:
    """Non-blocking check for a 'q' on a tty stdin."""
    try:
        import select

        if not sys.stdin.isatty():
            return False
        readable, _, _ = select.select([sys.stdin], [], [], 0)
        return bool(readable) and "q" in (sys.stdin.readline() or "")
    except Exception:
        return False


def watch(target: str, refresh: float = 1.0, stream=None,
          max_frames: int | None = None, idle_timeout: float | None = None,
          clear: bool | None = None) -> int:
    """Follow ``target`` (run dir or exporter URL), rendering frames.

    Returns the number of frames rendered.  Exits on the trace footer
    (run-dir mode), an unreachable endpoint after ``idle_timeout`` seconds
    (URL mode), ``max_frames``, a ``q`` keypress or Ctrl-C.
    """
    stream = stream if stream is not None else sys.stdout
    if clear is None:
        clear = hasattr(stream, "isatty") and stream.isatty()
    board = Dashboard(target=target)
    frames = 0
    is_url = target.startswith(("http://", "https://"))

    if not is_url:
        trace = JsonlReader(Path(target) / TRACE_FILE)
        health = JsonlReader(Path(target) / HEALTH_FILE)

    last_progress = time.monotonic()
    try:
        while True:
            progressed = False
            if is_url:
                body = _fetch(target.rstrip("/") + "/metrics")
                if body is not None:
                    try:
                        board.feed_scrape(parse_prometheus_text(body.decode()))
                        progressed = True
                    except ValueError:
                        pass
                health_body = _fetch(target.rstrip("/") + "/healthz")
                if health_body is not None:
                    try:
                        board.feed_healthz(json.loads(health_body))
                        progressed = True
                    except json.JSONDecodeError:
                        pass
            else:
                for record in trace.poll():
                    progressed = True
                    board.feed_trace_record(record)
                for record in health.poll():
                    progressed = True
                    board.feed_health_record(record)

            if progressed:
                last_progress = time.monotonic()
            frame = board.render()
            if clear:
                stream.write(CLEAR)
            stream.write(frame)
            stream.flush()
            frames += 1

            if board.finished:
                break
            if max_frames is not None and frames >= max_frames:
                break
            if idle_timeout is not None and \
                    time.monotonic() - last_progress > idle_timeout:
                break
            if _quit_pressed():
                break
            time.sleep(refresh)
    except KeyboardInterrupt:
        pass
    return frames
