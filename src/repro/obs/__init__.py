"""``repro.obs`` — federation-wide telemetry.

The instrument panel every other subsystem reports into:

- :mod:`repro.obs.metrics` — process-wide registry of counters, gauges and
  fixed-bucket histograms (cheap no-ops while disabled).
- :mod:`repro.obs.trace` — hierarchical trace spans
  (``round -> client_task -> local_train -> step``) with wall + exclusive
  time, exported as JSONL.
- :mod:`repro.obs.profiler` — autograd op profiler hooking the fused
  forward/backward kernels (per-op calls, seconds, bytes).
- :mod:`repro.obs.session` — :class:`TelemetrySession`, the one switch that
  arms all three and writes ``metrics.json`` / ``trace.jsonl`` /
  ``profile.json`` under a run directory; in a federation's worker
  processes the same session streams deltas to the parent's
  :class:`~repro.obs.session.TelemetryCollector` instead.
- :mod:`repro.obs.rundir` — the run directory's artifact names and the one
  reader of its JSONL streams (read once, or incrementally while a run
  writes them).
- :mod:`repro.obs.health` — :class:`HealthMonitor` + pluggable anomaly
  :class:`Detector` rules: per-client drift diagnostics, severity-ranked
  :class:`Alert` events and optional quarantine, streamed to
  ``health.jsonl``.
- :mod:`repro.obs.registry` — the run registry and run-over-run comparison
  behind ``python -m repro.obs runs list|show|diff``.
- :mod:`repro.obs.report` — the run-report renderer behind
  ``python -m repro.obs report <run_dir>``.
- :mod:`repro.obs.chrome` — Chrome/Perfetto trace-event export
  (``python -m repro.obs trace export <run_dir>``).
- :mod:`repro.obs.tail` — live trace follower for streaming runs
  (``python -m repro.obs tail <run_dir>``).
- :mod:`repro.obs.sysmon` — :class:`SysMonitor`, the background resource
  sampler (RSS, CPU, fds, /dev/shm, GC) feeding ``sys.*`` gauges into the
  registry, armed per process.
- :mod:`repro.obs.exporter` — :class:`MetricsExporter`, the loopback
  Prometheus/OpenMetrics ``/metrics`` + ``/healthz`` endpoint
  (``SimulatorRunner(metrics_port=...)``).
- :mod:`repro.obs.dashboard` — the live terminal dashboard
  (``python -m repro.obs watch <run_dir|url>``).

See ``docs/OBSERVABILITY.md`` for the full API and artifact schemas.
"""

from . import metrics, trace
from .chrome import export_chrome_trace, to_chrome_trace
from .dashboard import Dashboard, watch
from .exporter import (
    MetricsExporter,
    parse_prometheus_text,
    render_prometheus,
)
from .health import (
    Alert,
    Detector,
    DivergingClientDetector,
    HealthMonitor,
    NonFiniteUpdateDetector,
    StalledConvergenceDetector,
    StragglerDetector,
    WireBlowupDetector,
    default_detectors,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .profiler import OpProfiler, get_profiler
from .registry import RunRegistry, diff_runs, summarize_run
from .report import load_trace, load_trace_events, render_report
from .session import TelemetrySession, TraceStreamWriter
from .sysmon import SysMonitor, read_proc_sample
from .tail import iter_trace_records, tail_run
from .trace import (
    Span,
    Tracer,
    current_context,
    format_traceparent,
    get_tracer,
    parse_traceparent,
    set_tracer,
    span,
)

__all__ = [
    "metrics", "trace",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "DEFAULT_BUCKETS",
    "get_registry", "set_registry",
    "Tracer", "Span", "span", "get_tracer", "set_tracer",
    "current_context", "format_traceparent", "parse_traceparent",
    "OpProfiler", "get_profiler",
    "TelemetrySession", "TraceStreamWriter", "render_report",
    "load_trace", "load_trace_events",
    "to_chrome_trace", "export_chrome_trace",
    "iter_trace_records", "tail_run",
    "HealthMonitor", "Alert", "Detector", "default_detectors",
    "NonFiniteUpdateDetector", "DivergingClientDetector", "StragglerDetector",
    "StalledConvergenceDetector", "WireBlowupDetector",
    "RunRegistry", "summarize_run", "diff_runs",
    "SysMonitor", "read_proc_sample",
    "MetricsExporter", "render_prometheus", "parse_prometheus_text",
    "Dashboard", "watch",
]
