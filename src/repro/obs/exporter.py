"""Prometheus/OpenMetrics exporter: a loopback HTTP view of a live run.

Zero new dependencies: :class:`MetricsExporter` runs a stdlib
``http.server`` in a daemon thread, bound to loopback only, serving

- ``/metrics`` — the live :class:`~repro.obs.metrics.MetricsRegistry`
  snapshot sources (a :class:`~repro.obs.session.TelemetrySession`
  serves one: its registry, the bus's and every worker's latest streamed
  snapshot, summed) rendered in the Prometheus text exposition format,
  tags mapped to labels;
- ``/healthz`` — a JSON view of the
  :class:`~repro.obs.health.HealthMonitor`'s current state: alert feed,
  per-severity counts, quarantine set, rounds observed.

Fully off by default; arm it with ``SimulatorRunner(metrics_port=...)`` or
``TelemetrySession(exporter=...)``.  Rendering happens per scrape on the
server thread — the run itself pays nothing between scrapes, keeping the
established <3% telemetry overhead budget.

Metric names are sanitized Prometheus-style (``sys.rss_bytes`` becomes
``sys_rss_bytes``); :func:`parse_prometheus_text` is the matching
minimal parser used by the dashboard and the ``live-smoke`` CI gate.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

__all__ = ["MetricsExporter", "render_prometheus", "parse_prometheus_text",
           "sanitize_metric_name", "escape_label_value"]

_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>[^\s]+)\s*$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def sanitize_metric_name(name: str) -> str:
    """``transport.bytes_delivered`` -> ``transport_bytes_delivered``."""
    name = _NAME_BAD.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name or "_"


def escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _unescape_label_value(value: str) -> str:
    return (value.replace(r"\n", "\n").replace(r"\"", '"')
            .replace("\\\\", "\\"))


def _label_str(tags: dict, extra: dict | None = None) -> str:
    merged = dict(tags or {})
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{sanitize_metric_name(str(k))}="{escape_label_value(v)}"'
        for k, v in sorted(merged.items()))
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(snapshots: list[dict]) -> str:
    """Render ``repro.obs.metrics/v1`` snapshots as Prometheus text.

    Later snapshots win on exact (name, labelset) collisions, so the
    output never carries the duplicate series real scrapers reject.
    """
    types: dict[str, str] = {}
    # family -> {labelstr: line(s)}; insertion-ordered for stable output
    series: dict[str, dict[str, list[str]]] = {}

    def put(family: str, kind: str, label_str: str, lines: list[str]) -> None:
        types.setdefault(family, kind)
        series.setdefault(family, {})[label_str] = lines

    for snapshot in snapshots:
        if not isinstance(snapshot, dict):
            continue
        for entry in snapshot.get("counters", []):
            name = sanitize_metric_name(entry["name"])
            labels = _label_str(entry.get("tags"))
            put(name, "counter", labels,
                [f"{name}{labels} {_fmt(entry['value'])}"])
        for entry in snapshot.get("gauges", []):
            name = sanitize_metric_name(entry["name"])
            labels = _label_str(entry.get("tags"))
            put(name, "gauge", labels,
                [f"{name}{labels} {_fmt(entry['value'])}"])
        for entry in snapshot.get("histograms", []):
            name = sanitize_metric_name(entry["name"])
            tags = entry.get("tags") or {}
            lines = []
            cumulative = 0
            bounds = list(entry.get("buckets", []))
            counts = list(entry.get("bucket_counts", []))
            for bound, count in zip(bounds, counts):
                cumulative += int(count)
                lines.append(f"{name}_bucket"
                             f"{_label_str(tags, {'le': _fmt(bound)})} "
                             f"{cumulative}")
            lines.append(f"{name}_bucket{_label_str(tags, {'le': '+Inf'})} "
                         f"{int(entry.get('count', 0))}")
            base = _label_str(tags)
            lines.append(f"{name}_sum{base} {_fmt(entry.get('sum', 0.0))}")
            lines.append(f"{name}_count{base} {int(entry.get('count', 0))}")
            put(name, "histogram", base, lines)

    out: list[str] = []
    for family in sorted(series):
        out.append(f"# TYPE {family} {types[family]}")
        for label_str in sorted(series[family]):
            out.extend(series[family][label_str])
    out.append("")  # trailing newline
    return "\n".join(out)


def parse_prometheus_text(text: str) -> list[tuple[str, dict[str, str], float]]:
    """Minimal parser for the text format :func:`render_prometheus` emits.

    Returns ``(name, labels, value)`` triples, skipping comments.  Raises
    :class:`ValueError` on a malformed sample line — the ``live-smoke`` CI
    gate relies on that to call a scrape "parseable".
    """
    samples: list[tuple[str, dict[str, str], float]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _LINE.match(line)
        if match is None:
            raise ValueError(f"unparseable metrics line: {raw!r}")
        labels = {key: _unescape_label_value(value)
                  for key, value in _LABEL.findall(match.group("labels") or "")}
        samples.append((match.group("name"), labels,
                        float(match.group("value"))))
    return samples


class _Handler(BaseHTTPRequestHandler):
    exporter: "MetricsExporter"  # set on the server class per instance

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path.split("?")[0] in ("/metrics", "/"):
                body = self.exporter.render().encode()
                self._send(200, "text/plain; version=0.0.4; charset=utf-8",
                           body)
            elif self.path.split("?")[0] == "/healthz":
                payload = self.exporter.healthz()
                self._send(200, "application/json",
                           json.dumps(payload, indent=2).encode())
            else:
                self._send(404, "text/plain", b"not found\n")
        except BrokenPipeError:  # pragma: no cover - client hung up
            pass
        except Exception as error:  # never kill the serving thread
            try:
                self._send(500, "text/plain", f"error: {error}\n".encode())
            except Exception:  # pragma: no cover
                pass

    def log_message(self, *args) -> None:  # noqa: D102 - silence stderr
        pass


class MetricsExporter:
    """Loopback HTTP endpoint over live metric snapshots + health state.

    ``sources`` are zero-argument callables returning either one
    ``repro.obs.metrics/v1`` snapshot dict or a list of them (or ``None``);
    they are invoked per scrape, so the endpoint always shows the live
    registry — including gauges a :class:`~repro.obs.sysmon.SysMonitor`
    updated a moment ago and the latest streamed snapshot of every worker
    process.
    """

    def __init__(self, port: int = 0, host: str = "127.0.0.1",
                 sources: list[Callable[[], object]] | None = None,
                 health=None) -> None:
        self.host = host
        self.requested_port = port
        self.health = health
        self._sources: list[Callable[[], object]] = list(sources or [])
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def add_source(self, source: Callable[[], object]) -> None:
        with self._lock:
            self._sources.append(source)

    def snapshots(self) -> list[dict]:
        with self._lock:
            sources = list(self._sources)
        flat: list[dict] = []
        for source in sources:
            try:
                result = source()
            except Exception:
                continue  # a racing teardown must not break a scrape
            if isinstance(result, dict):
                flat.append(result)
            elif isinstance(result, (list, tuple)):
                flat.extend(r for r in result if isinstance(r, dict))
        return flat

    def render(self) -> str:
        return render_prometheus(self.snapshots())

    def healthz(self) -> dict:
        """JSON health view: alerts, severity counts, quarantine set."""
        monitor = self.health
        if monitor is None:
            return {"status": "ok", "health_monitor": False}
        alerts = list(monitor.alerts)
        counts: dict[str, int] = {}
        for alert in alerts:
            counts[alert.severity] = counts.get(alert.severity, 0) + 1
        quarantined = list(monitor.quarantined_clients)
        status = "ok"
        if counts.get("critical") or quarantined:
            status = "critical"
        elif counts.get("warning"):
            status = "warning"
        return {
            "status": status,
            "health_monitor": True,
            "rounds": len(monitor.history),
            "alert_counts": counts,
            "quarantined": quarantined,
            "alerts": [alert.to_dict() for alert in alerts[-100:]],
        }

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None:
            return self.requested_port
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MetricsExporter":
        if self._server is not None:
            return self
        server = ThreadingHTTPServer((self.host, self.requested_port),
                                     _Handler)
        server.daemon_threads = True
        server.RequestHandlerClass = type(
            "_BoundHandler", (_Handler,), {"exporter": self})
        self._server = server
        self._thread = threading.Thread(target=server.serve_forever,
                                        name="metrics-exporter", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server = None

    def __enter__(self) -> "MetricsExporter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
