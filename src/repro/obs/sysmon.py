"""SysMonitor: a stdlib-only background resource sampler.

Everything else in ``repro.obs`` measures what the *code* did; this module
measures what the *process* costs while doing it.  A daemon thread samples
``/proc/self`` every ``interval`` seconds and publishes tagged gauges into
a :class:`~repro.obs.metrics.MetricsRegistry`:

========================  =============================================
``sys.rss_bytes``         resident set size (``/proc/self/statm``)
``sys.peak_rss_bytes``    high-water RSS seen by this monitor
``sys.cpu_percent``       CPU use since the previous sample
                          (utime+stime deltas from ``/proc/self/stat``)
``sys.open_fds``          open descriptor count (``/proc/self/fd``)
``sys.shm_bytes``         bytes in this run's ``/dev/shm`` segments
                          (the shm transport's ``repro-shm-*`` dirs)
``sys.gc_collections``    collection count per generation (``gen=`` tag)
========================  =============================================

Every gauge carries a ``process=`` tag, so the server's samples and every
forked worker's samples coexist in one merged ``metrics.json`` (worker
samples ride the normal streamed-telemetry deltas — see
:class:`~repro.obs.session.TelemetryCollector`) and in one exporter
scrape.  The monitor takes one synchronous sample on :meth:`start` and one
on :meth:`stop`, so even a sub-interval run records real numbers.

Off by default everywhere; arming is explicit
(``TelemetrySession(sysmon=True)``, ``SimulatorRunner(metrics_port=...)``)
and costs one short-lived thread doing a few file reads per interval — far
inside the <3% telemetry overhead budget.  On platforms without ``/proc``
the sampler degrades to ``resource.getrusage`` RSS and GC stats only.
"""

from __future__ import annotations

import gc
import glob
import os
import threading
import time

from .metrics import MetricsRegistry

__all__ = ["SysMonitor", "read_proc_sample", "DEFAULT_INTERVAL",
           "SHM_SEGMENT_GLOB"]

DEFAULT_INTERVAL = 1.0

# Segment directories the shm transport creates (see
# repro.flare.shm_transport); summing only these keeps the gauge about
# *this federation's* shared memory, not whatever else the machine runs.
SHM_SEGMENT_GLOB = "/dev/shm/repro-shm-*"

_PAGE_SIZE = 4096
try:  # pragma: no branch - trivial platform probe
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover
    pass
_CLK_TCK = 100.0
try:
    _CLK_TCK = float(os.sysconf("SC_CLK_TCK"))
except (AttributeError, ValueError, OSError):  # pragma: no cover
    pass


def _rss_bytes_fallback() -> int:
    """RSS via getrusage for platforms without /proc (ru_maxrss, so this
    is actually the peak — the closest portable stand-in)."""
    try:
        import resource

        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS reports bytes.
        return int(maxrss * 1024) if maxrss < 1 << 40 else int(maxrss)
    except Exception:
        return 0


def read_proc_sample(shm_glob: str = SHM_SEGMENT_GLOB) -> dict:
    """One point-in-time resource sample (JSON-safe dict).

    Keys: ``rss_bytes``, ``cpu_seconds`` (cumulative user+system),
    ``open_fds``, ``shm_bytes``, ``gc_collections`` (per-generation list).
    Every probe is individually guarded: a missing ``/proc`` entry yields
    a zero, never an exception — the sampler must not be able to kill the
    process it watches.
    """
    sample = {"rss_bytes": 0, "cpu_seconds": 0.0, "open_fds": 0,
              "shm_bytes": 0,
              "gc_collections": [s.get("collections", 0)
                                 for s in gc.get_stats()]}
    try:
        with open("/proc/self/statm") as fh:
            sample["rss_bytes"] = int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        sample["rss_bytes"] = _rss_bytes_fallback()
    try:
        with open("/proc/self/stat") as fh:
            # fields 14/15 (utime/stime) count from after the comm field,
            # which may itself contain spaces — split after the ')'
            after_comm = fh.read().rpartition(")")[2].split()
            sample["cpu_seconds"] = (int(after_comm[11])
                                     + int(after_comm[12])) / _CLK_TCK
    except (OSError, ValueError, IndexError):
        pass
    try:
        sample["open_fds"] = len(os.listdir("/proc/self/fd"))
    except OSError:
        pass
    try:
        shm_total = 0
        for segment_dir in glob.glob(shm_glob):
            for root, _dirs, files in os.walk(segment_dir):
                for name in files:
                    try:
                        shm_total += os.stat(os.path.join(root, name)).st_size
                    except OSError:
                        continue  # segment unlinked between listdir and stat
        sample["shm_bytes"] = shm_total
    except OSError:
        pass
    return sample


class SysMonitor:
    """Background resource sampler publishing into a metrics registry.

    Parameters
    ----------
    registry:
        Where the gauges land.  ``None`` resolves the process-wide
        registry lazily at each sample, so a monitor armed before a
        :class:`~repro.obs.session.TelemetrySession` still publishes into
        the session's registry.
    interval:
        Seconds between samples (daemon thread).  ``None`` disables the
        thread entirely — samples are then taken only on :meth:`start`,
        :meth:`stop` and explicit :meth:`sample` calls.
    process:
        Value of the ``process=`` tag on every gauge ("server", a site
        name, ...).
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 interval: float | None = DEFAULT_INTERVAL,
                 process: str = "main",
                 shm_glob: str = SHM_SEGMENT_GLOB) -> None:
        if interval is not None and interval <= 0:
            raise ValueError("interval must be positive (or None)")
        self._registry = registry
        self.interval = interval
        self.process = process
        self.shm_glob = shm_glob
        self.peak_rss_bytes = 0
        self.samples_taken = 0
        self._last_cpu: tuple[float, float] | None = None  # (wall, cpu_s)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    @property
    def registry(self) -> MetricsRegistry:
        if self._registry is not None:
            return self._registry
        from . import metrics as _metrics

        return _metrics.get_registry()

    def sample(self) -> dict:
        """Take one sample now and publish the gauges; returns the sample."""
        raw = read_proc_sample(self.shm_glob)
        now = time.monotonic()
        if raw["rss_bytes"] > self.peak_rss_bytes:
            self.peak_rss_bytes = raw["rss_bytes"]
        cpu_percent = 0.0
        if self._last_cpu is not None:
            wall = now - self._last_cpu[0]
            if wall > 0:
                cpu_percent = max(
                    0.0, (raw["cpu_seconds"] - self._last_cpu[1]) / wall * 100.0)
        self._last_cpu = (now, raw["cpu_seconds"])
        registry = self.registry
        tag = {"process": self.process}
        registry.gauge("sys.rss_bytes", **tag).set(raw["rss_bytes"])
        registry.gauge("sys.peak_rss_bytes", **tag).set(self.peak_rss_bytes)
        registry.gauge("sys.cpu_percent", **tag).set(round(cpu_percent, 2))
        registry.gauge("sys.open_fds", **tag).set(raw["open_fds"])
        registry.gauge("sys.shm_bytes", **tag).set(raw["shm_bytes"])
        for gen, collections in enumerate(raw["gc_collections"]):
            registry.gauge("sys.gc_collections", gen=gen, **tag).set(collections)
        self.samples_taken += 1
        return raw

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample()
            except Exception:  # pragma: no cover - defensive
                pass  # never let a sampling hiccup kill the thread

    def start(self) -> "SysMonitor":
        if self._thread is not None:
            return self
        self._stop.clear()
        self.sample()  # synchronous first sample: short runs still record
        if self.interval is not None:
            self._thread = threading.Thread(
                target=self._loop, name=f"sysmon-{self.process}", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and take one last sample (final RSS/fd truth)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        try:
            self.sample()
        except Exception:  # pragma: no cover - defensive
            pass

    def __enter__(self) -> "SysMonitor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
