"""Run registry and run-over-run comparison.

A *run* is a directory (or a ``BENCH_*.json`` file) full of the artifacts
the rest of ``repro.obs`` writes — ``stats.json``, ``metrics.json``,
``health.jsonl``, bench reports embedding the metrics schema.  The registry
gives those runs names and one index file, and ``diff`` turns two of them
into threshold-based regression verdicts suitable for CI gating::

    python -m repro.obs runs register runs/pr5-smoke --name pr5-smoke
    python -m repro.obs runs list
    python -m repro.obs runs show pr5-smoke
    python -m repro.obs runs diff baseline pr5-smoke   # exit 2 on regression

Comparison dimensions are extracted into one flat ``dims`` mapping
(``step_time_p50{objective=classifier}``, ``round_bytes_p50``,
``final_metric{valid_acc}``, ``alerts_critical`` ...), each with a known
"which direction is worse" so the diff can rank every shared dimension.

Exit-code contract of ``runs diff`` (CI relies on it):

- ``0`` — no regression verdicts,
- ``1`` — usage or I/O error (unknown run, unreadable artifacts),
- ``2`` — at least one regression verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .rundir import HEALTH_FILE, METRICS_FILE, RUN_ARTIFACTS, STATS_FILE, read_records

__all__ = ["RunRegistry", "DiffThresholds", "DiffLine", "DiffReport",
           "summarize_run", "diff_runs", "render_list", "render_show",
           "render_diff", "REGISTRY_FILE"]

REGISTRY_FILE = "registry.json"
REGISTRY_SCHEMA = "repro.obs.registry/v1"



# ---------------------------------------------------------------------------
# summarization
# ---------------------------------------------------------------------------
def _load_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _load_health(path: Path) -> dict:
    """Tolerant health.jsonl summary: alert counts, rounds, quarantines."""
    counts = {"info": 0, "warning": 0, "critical": 0}
    rounds = 0
    quarantined: set[str] = set()
    detectors: dict[str, int] = {}
    try:
        records = read_records(path)
    except OSError:
        return {}
    for record in records:
        event = record.get("event")
        if event == "round":
            rounds += 1
            quarantined.update(record.get("quarantined", []))
        elif event == "alert":
            severity = record.get("severity", "info")
            counts[severity] = counts.get(severity, 0) + 1
            name = record.get("detector", "?")
            detectors[name] = detectors.get(name, 0) + 1
    return {"rounds": rounds, "alerts": counts,
            "alerts_by_detector": detectors,
            "quarantined": sorted(quarantined)}


def _metric_dims(metrics_payload: dict) -> dict[str, float]:
    """Pull comparison dimensions out of a ``repro.obs.metrics/v1`` dump."""
    dims: dict[str, float] = {}
    for hist in metrics_payload.get("histograms", []):
        name = hist.get("name", "")
        tags = dict(hist.get("tags", {}))
        if not hist.get("count"):
            continue
        if name == "train.step_seconds":
            suffix = "{%s}" % ",".join(f"{k}={v}" for k, v in sorted(tags.items())) \
                if tags else ""
            dims[f"step_time_p50{suffix}"] = float(hist.get("p50", 0.0))
        elif name == "bench.step_seconds" and tags.get("side") == "candidate":
            model = tags.get("model", "?")
            dims[f"step_time_p50{{model={model}}}"] = float(hist.get("p50", 0.0))
        elif name == "federation.round_seconds":
            dims["round_seconds_p50"] = float(hist.get("p50", 0.0))
        elif name == "federation.round_bytes":
            dims["round_bytes_p50"] = float(hist.get("p50", 0.0))
    for gauge in metrics_payload.get("gauges", []):
        name = gauge.get("name", "")
        tags = dict(gauge.get("tags", {}))
        if name == "bench.wire_bytes_per_round":
            key = "round_bytes_p50{%s}" % ",".join(
                f"{k}={v}" for k, v in sorted(tags.items()))
            dims[key] = float(gauge.get("value", 0.0))
        elif name in ("sys.peak_rss_bytes", "sys.open_fds"):
            # sysmon resource gauges, one per process: memory/fd footprint
            # regressions show up in ``runs diff`` like timing ones do
            stem = "peak_rss" if name == "sys.peak_rss_bytes" else "open_fds"
            process = tags.get("process", "?")
            dims[f"{stem}{{process={process}}}"] = float(
                gauge.get("value", 0.0))
    return dims


def summarize_run(path: str | Path) -> dict:
    """One JSON-safe summary of a run directory or BENCH-style report file.

    Never raises on partial artifacts: whatever is missing is listed under
    ``"absent"`` and the rest of the summary is still produced.  Raises
    :class:`FileNotFoundError` only when ``path`` itself does not exist.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"run {path} does not exist")
    summary: dict = {"path": str(path), "dims": {}, "absent": [],
                     "artifacts": []}

    if path.is_file():
        # BENCH_*.json style report embedding the metrics schema.
        summary["kind"] = "bench"
        payload = _load_json(path)
        if payload is None:
            summary["absent"].append(path.name)
            return summary
        summary["artifacts"].append(path.name)
        protocol = payload.get("protocol", {})
        if protocol:
            summary["protocol"] = {k: protocol[k] for k in
                                   ("pr", "baseline_ref", "candidate_ref")
                                   if k in protocol}
        metrics_payload = payload.get("metrics")
        if isinstance(metrics_payload, dict):
            summary["dims"].update(_metric_dims(metrics_payload))
        return summary

    summary["kind"] = "run"
    dims = summary["dims"]

    stats_payload = _load_json(path / STATS_FILE)
    if stats_payload is not None:
        summary["artifacts"].append(STATS_FILE)
        rounds = stats_payload.get("rounds", [])
        summary["rounds"] = len(rounds)
        summary["failed_rounds"] = stats_payload.get("failed_rounds", 0)
        summary["dropped_clients"] = stats_payload.get("dropped_clients", [])
        if rounds:
            final_metrics = rounds[-1].get("global_metrics", {}) or {}
            summary["final_metrics"] = final_metrics
            for key, value in final_metrics.items():
                dims[f"final_metric{{{key}}}"] = float(value)
            bytes_series = [r.get("bytes_on_wire", 0) for r in rounds]
            if any(bytes_series) and "round_bytes_p50" not in dims:
                ordered = sorted(bytes_series)
                dims["round_bytes_p50"] = float(ordered[len(ordered) // 2])
        for key in ("wire_bytes_raw", "wire_bytes_encoded"):
            if stats_payload.get(key):
                summary[key] = stats_payload[key]
        for key in ("peak_rss_bytes", "peak_receive_buffer_bytes"):
            if stats_payload.get(key):  # dims peak_rss, peak_receive_buffer
                summary[key] = stats_payload[key]
                dims[key.removesuffix("_bytes")] = float(stats_payload[key])
        alerts = stats_payload.get("alerts", [])
        if alerts:
            summary.setdefault("alerts_sample", alerts[:5])
    else:
        summary["absent"].append(STATS_FILE)

    metrics_payload = _load_json(path / METRICS_FILE)
    if metrics_payload is not None:
        summary["artifacts"].append(METRICS_FILE)
        dims.update(_metric_dims(metrics_payload))
    else:
        summary["absent"].append(METRICS_FILE)

    health_path = path / HEALTH_FILE
    if health_path.exists():
        health = _load_health(health_path)
        if health:
            summary["artifacts"].append(HEALTH_FILE)
            summary["health"] = health
            counts = health.get("alerts", {})
            dims["alerts_critical"] = float(counts.get("critical", 0))
            dims["alerts_warning"] = float(counts.get("warning", 0))
    else:
        summary["absent"].append(HEALTH_FILE)
    return summary


# ---------------------------------------------------------------------------
# the registry index
# ---------------------------------------------------------------------------
class RunRegistry:
    """Named index of runs under one root directory.

    The index itself (``<root>/registry.json``) only stores names and
    pointers; summaries are recomputed from the artifacts on demand so the
    registry never goes stale when a run dir is re-written.
    """

    def __init__(self, root: str | Path = "runs") -> None:
        self.root = Path(root)

    @property
    def index_path(self) -> Path:
        return self.root / REGISTRY_FILE

    # ------------------------------------------------------------------
    def entries(self) -> list[dict]:
        payload = _load_json(self.index_path) or {}
        return list(payload.get("runs", []))

    def _write(self, entries: list[dict]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self.index_path.write_text(json.dumps(
            {"schema": REGISTRY_SCHEMA, "runs": entries}, indent=2))

    def register(self, path: str | Path, name: str | None = None,
                 kind: str | None = None, note: str | None = None) -> dict:
        """Add (or update) one run; the name defaults to the basename."""
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"cannot register {path}: does not exist")
        name = name or path.stem
        entry = {"name": name, "path": str(path),
                 "kind": kind or ("bench" if path.is_file() else "run")}
        if note:
            entry["note"] = note
        entries = [e for e in self.entries() if e.get("name") != name]
        entries.append(entry)
        self._write(entries)
        return entry

    def resolve(self, ref: str) -> Path:
        """A registered name, or a filesystem path, to a concrete path."""
        for entry in self.entries():
            if entry.get("name") == ref:
                return Path(entry["path"])
        path = Path(ref)
        if path.exists():
            return path
        known = ", ".join(sorted(e.get("name", "?") for e in self.entries())) \
            or "none registered"
        raise FileNotFoundError(
            f"unknown run {ref!r}: not a registered name ({known}) "
            f"and not an existing path")

    def discover(self) -> list[dict]:
        """Unregistered run dirs directly under the root."""
        registered = {str(Path(e["path"])) for e in self.entries()}
        found: list[dict] = []
        if not self.root.is_dir():
            return found
        for child in sorted(self.root.iterdir()):
            if not child.is_dir() or str(child) in registered:
                continue
            if any((child / artifact).exists() for artifact in RUN_ARTIFACTS):
                found.append({"name": child.name, "path": str(child),
                              "kind": "run", "registered": False})
        return found

    def list_runs(self) -> list[dict]:
        """Registered entries plus discovered unregistered run dirs."""
        entries = [dict(e, registered=True) for e in self.entries()]
        return entries + self.discover()


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------
@dataclass
class DiffThresholds:
    """Relative/absolute tolerances before a difference is a regression."""

    step_time: float = 0.10       # +10% p50 step time
    round_seconds: float = 0.25   # +25% p50 round wall clock (noisier)
    bytes: float = 0.10           # +10% p50 bytes per round
    metric_drop: float = 0.01     # absolute drop of a final metric
    rss: float = 0.25             # +25% peak resident set (allocator noise)
    open_fds: float = 0.50        # +50% open fds (small denominators)
    # metric keys matching these substrings are better when *lower*
    lower_better_metrics: tuple[str, ...] = ("loss", "perplexity", "error")


@dataclass
class DiffLine:
    dimension: str
    a: float | None
    b: float | None
    verdict: str  # "ok" | "improved" | "regression" | "missing"
    detail: str = ""

    def to_dict(self) -> dict:
        return {"dimension": self.dimension, "a": self.a, "b": self.b,
                "verdict": self.verdict, "detail": self.detail}


@dataclass
class DiffReport:
    a: str
    b: str
    lines: list[DiffLine] = field(default_factory=list)

    @property
    def regressions(self) -> list[DiffLine]:
        return [line for line in self.lines if line.verdict == "regression"]

    @property
    def exit_code(self) -> int:
        return 2 if self.regressions else 0

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b,
                "lines": [line.to_dict() for line in self.lines],
                "regressions": len(self.regressions)}


_VERDICT_ORDER = {"regression": 0, "missing": 1, "improved": 2, "ok": 3}


def _dimension_rule(dimension: str,
                    thresholds: DiffThresholds) -> tuple[str, float, str]:
    """``(direction, tolerance, kind)`` for one dimension name.

    ``direction`` is "lower" (lower is better) or "higher"; ``kind`` is
    "relative" (tolerance is a ratio) or "absolute".
    """
    if dimension.startswith("step_time"):
        return "lower", thresholds.step_time, "relative"
    if dimension.startswith("round_seconds"):
        return "lower", thresholds.round_seconds, "relative"
    if dimension.startswith("round_bytes"):
        return "lower", thresholds.bytes, "relative"
    if dimension.startswith("peak_rss"):
        return "lower", thresholds.rss, "relative"
    if dimension.startswith("open_fds"):
        return "lower", thresholds.open_fds, "relative"
    if dimension.startswith("alerts_critical"):
        return "lower", 0.0, "absolute"
    if dimension.startswith("alerts_warning"):
        return "lower", 0.0, "absolute"
    if dimension.startswith("final_metric"):
        key = dimension[len("final_metric{"):-1].lower()
        if any(tag in key for tag in thresholds.lower_better_metrics):
            return "lower", thresholds.metric_drop, "absolute"
        return "higher", thresholds.metric_drop, "absolute"
    return "lower", 0.10, "relative"


def diff_runs(a: str | Path, b: str | Path,
              thresholds: DiffThresholds | None = None,
              dimensions: list[str] | None = None) -> DiffReport:
    """Compare run ``b`` (candidate) against run ``a`` (baseline).

    ``dimensions`` filters by prefix (e.g. ``["round_bytes", "alerts"]``);
    default is every dimension present in either run.  A dimension present
    on one side only yields a non-fatal ``missing`` line.
    """
    thresholds = thresholds or DiffThresholds()
    summary_a = summarize_run(a)
    summary_b = summarize_run(b)
    dims_a: dict[str, float] = summary_a["dims"]
    dims_b: dict[str, float] = summary_b["dims"]
    names = sorted(set(dims_a) | set(dims_b))
    if dimensions:
        names = [n for n in names
                 if any(n.startswith(prefix) for prefix in dimensions)]
    report = DiffReport(a=str(a), b=str(b))
    for name in names:
        va, vb = dims_a.get(name), dims_b.get(name)
        if va is None or vb is None:
            side = "baseline" if va is None else "candidate"
            report.lines.append(DiffLine(
                dimension=name, a=va, b=vb, verdict="missing",
                detail=f"absent from the {side} run"))
            continue
        direction, tolerance, kind = _dimension_rule(name, thresholds)
        worse = vb - va if direction == "lower" else va - vb
        if kind == "relative":
            scale = abs(va) if va else 1.0
            over = worse > tolerance * scale
            under = -worse > tolerance * scale
            detail = (f"{(vb / va - 1) * 100:+.1f}%" if va else f"{vb:+.4g}")
        else:
            over = worse > tolerance
            under = -worse > tolerance
            detail = f"{vb - va:+.4g}"
        verdict = "regression" if over else ("improved" if under else "ok")
        report.lines.append(DiffLine(dimension=name, a=va, b=vb,
                                     verdict=verdict, detail=detail))
    report.lines.sort(key=lambda line: (_VERDICT_ORDER.get(line.verdict, 9),
                                        line.dimension))
    return report


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def _fmt(value: float | None) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def render_list(registry: RunRegistry) -> str:
    rows = registry.list_runs()
    if not rows:
        return (f"no runs under {registry.root} "
                f"(and no {registry.index_path.name})")
    lines = [f"runs under {registry.root}:"]
    for entry in rows:
        marker = "*" if entry.get("registered") else " "
        note = f"  ({entry['note']})" if entry.get("note") else ""
        lines.append(f" {marker} {entry['name']:24s} {entry['kind']:5s} "
                     f"{entry['path']}{note}")
    lines.append(" (* = registered in registry.json)")
    return "\n".join(lines)


def render_show(summary: dict) -> str:
    lines = [f"run: {summary['path']}  [{summary.get('kind', 'run')}]"]
    if summary.get("absent"):
        lines.append("absent artifacts: " + ", ".join(summary["absent"]))
    if "rounds" in summary:
        lines.append(f"rounds: {summary['rounds']} "
                     f"(failed: {summary.get('failed_rounds', 0)})")
    if summary.get("dropped_clients"):
        lines.append("dropped clients: " + ", ".join(summary["dropped_clients"]))
    health = summary.get("health")
    if health:
        counts = health.get("alerts", {})
        lines.append("alerts: " + ", ".join(
            f"{counts.get(s, 0)} {s}" for s in ("critical", "warning", "info")))
        by_det = health.get("alerts_by_detector", {})
        if by_det:
            lines.append("  by detector: " + ", ".join(
                f"{k}={v}" for k, v in sorted(by_det.items())))
        if health.get("quarantined"):
            lines.append("quarantined: " + ", ".join(health["quarantined"]))
    dims = summary.get("dims", {})
    if dims:
        lines.append("dimensions:")
        for name in sorted(dims):
            lines.append(f"  {name:44s} {_fmt(dims[name])}")
    return "\n".join(lines)


def render_diff(report: DiffReport) -> str:
    lines = [f"diff: {report.a} (baseline) vs {report.b} (candidate)"]
    if not report.lines:
        return "\n".join(lines + ["(no shared dimensions to compare)"])
    width = max(len(line.dimension) for line in report.lines)
    for line in report.lines:
        lines.append(f"  {line.verdict.upper():10s} {line.dimension.ljust(width)}"
                     f"  {_fmt(line.a):>12s} -> {_fmt(line.b):>12s}"
                     f"  {line.detail}")
    n = len(report.regressions)
    lines.append(f"{n} regression(s)" if n else "no regressions")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI (dispatched from ``python -m repro.obs runs ...``)
# ---------------------------------------------------------------------------
def add_runs_parser(subparsers) -> None:
    runs = subparsers.add_parser(
        "runs", help="run registry: list, show, diff, register")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    list_p = runs_sub.add_parser("list", help="list registered + discovered runs")
    list_p.add_argument("--root", default="runs")

    show_p = runs_sub.add_parser("show", help="summarize one run")
    show_p.add_argument("run", help="registered name or run dir / BENCH file")
    show_p.add_argument("--root", default="runs")

    reg_p = runs_sub.add_parser("register", help="add a run to the registry")
    reg_p.add_argument("path")
    reg_p.add_argument("--name", default=None)
    reg_p.add_argument("--kind", default=None, choices=(None, "run", "bench"))
    reg_p.add_argument("--note", default=None)
    reg_p.add_argument("--root", default="runs")

    diff_p = runs_sub.add_parser(
        "diff", help="regression verdicts for run B against baseline run A "
                     "(exit 0 ok / 2 regression)")
    diff_p.add_argument("a", help="baseline: registered name or path")
    diff_p.add_argument("b", help="candidate: registered name or path")
    diff_p.add_argument("--root", default="runs")
    diff_p.add_argument("--dimensions", default=None,
                        help="comma-separated dimension prefixes to compare "
                             "(e.g. round_bytes,final_metric,alerts)")
    diff_p.add_argument("--step-time-threshold", type=float, default=0.10)
    diff_p.add_argument("--round-seconds-threshold", type=float, default=0.25)
    diff_p.add_argument("--bytes-threshold", type=float, default=0.10)
    diff_p.add_argument("--metric-drop", type=float, default=0.01)
    diff_p.add_argument("--rss-threshold", type=float, default=0.25)
    diff_p.add_argument("--fds-threshold", type=float, default=0.50)
    diff_p.add_argument("--json", action="store_true",
                        help="emit the diff as JSON instead of text")


def run_runs_command(args) -> int:
    registry = RunRegistry(args.root)
    try:
        if args.runs_command == "list":
            print(render_list(registry))
        elif args.runs_command == "show":
            print(render_show(summarize_run(registry.resolve(args.run))))
        elif args.runs_command == "register":
            entry = registry.register(args.path, name=args.name,
                                      kind=args.kind, note=args.note)
            print(f"registered {entry['name']} -> {entry['path']} "
                  f"({registry.index_path})")
        elif args.runs_command == "diff":
            thresholds = DiffThresholds(
                step_time=args.step_time_threshold,
                round_seconds=args.round_seconds_threshold,
                bytes=args.bytes_threshold,
                metric_drop=args.metric_drop,
                rss=args.rss_threshold,
                open_fds=args.fds_threshold)
            dimensions = ([d.strip() for d in args.dimensions.split(",") if d.strip()]
                          if args.dimensions else None)
            report = diff_runs(registry.resolve(args.a),
                               registry.resolve(args.b),
                               thresholds=thresholds, dimensions=dimensions)
            print(json.dumps(report.to_dict(), indent=2) if args.json
                  else render_diff(report))
            return report.exit_code
    except FileNotFoundError as error:
        print(f"error: {error}")
        return 1
    return 0
