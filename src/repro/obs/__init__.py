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
- :mod:`repro.obs.sysmon` — :class:`SysMonitor`, the background resource
  sampler (RSS, CPU, fds, /dev/shm, GC) feeding ``sys.*`` gauges into the
  registry, armed per process.

The package imports only what every run uses.  The CLI's modules are
imported where they are used, never from here:
:mod:`~repro.obs.report` (``python -m repro.obs report``),
:mod:`~repro.obs.registry` (``runs list|show|diff``),
:mod:`~repro.obs.chrome` (``trace export``), :mod:`~repro.obs.tail`
(``tail``) and :mod:`~repro.obs.exporter`, the loopback ``/metrics`` +
``/healthz`` endpoint a session starts for ``SimulatorRunner(metrics_port=...)``.

See ``docs/OBSERVABILITY.md`` for the full API and artifact schemas.
"""

from . import metrics, trace
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
from .session import TelemetrySession, TraceStreamWriter
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
    "TelemetrySession", "TraceStreamWriter",
    "HealthMonitor", "Alert", "Detector", "default_detectors",
    "NonFiniteUpdateDetector", "DivergingClientDetector", "StragglerDetector",
    "StalledConvergenceDetector", "WireBlowupDetector",
]
