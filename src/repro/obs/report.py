"""Run-report renderer: ``python -m repro.obs report <run_dir>``.

Reads the artifacts a :class:`~repro.obs.session.TelemetrySession` writes
(``metrics.json``, ``trace.jsonl``, ``profile.json``, ``health.jsonl``) and
renders a plain-text report: counters/gauges, latency histograms with
percentiles, a span tree aggregated by call path (flamegraph-style, widest
first), the per-autograd-op profile table and the health-alert digest.

The report never crashes on a partial run: artifacts that are missing,
truncated mid-line (aborted run) or malformed are skipped with a note, and
the footer lists exactly which artifacts were absent or unreadable.
"""

from __future__ import annotations

import json
from pathlib import Path

from .rundir import HEALTH_FILE, METRICS_FILE, PROFILE_FILE, TRACE_FILE, read_records

__all__ = ["render_report", "render_metrics", "render_trace",
           "render_profile", "render_health", "load_trace",
           "load_trace_events", "load_health", "main"]


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.1f}us"


def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024.0
    return f"{value:.1f}GiB"


def _fmt_value(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.4g}"


def _tag_suffix(tags: dict) -> str:
    if not tags:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(tags.items()))
    return "{" + inner + "}"


def _table(rows: list[list[str]], header: list[str]) -> list[str]:
    """Left-align the first column, right-align the rest."""
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render(row: list[str]) -> str:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(widths[i]) for i, cell in enumerate(row) if i > 0]
        return "  " + "  ".join(cells).rstrip()

    lines = [render(header), "  " + "-" * (sum(widths) + 2 * (len(widths) - 1))]
    lines += [render(row) for row in rows]
    return lines


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def render_metrics(payload: dict) -> str:
    """Render a ``repro.obs.metrics/v1`` payload as text."""
    lines: list[str] = ["== metrics =="]
    counters = payload.get("counters", [])
    gauges = payload.get("gauges", [])
    histograms = payload.get("histograms", [])
    if counters:
        rows = [[c["name"] + _tag_suffix(c.get("tags", {})), _fmt_value(c["value"])]
                for c in counters]
        lines += ["", "counters:"] + _table(rows, ["name", "value"])
    if gauges:
        rows = [[g["name"] + _tag_suffix(g.get("tags", {})), _fmt_value(g["value"])]
                for g in gauges]
        lines += ["", "gauges:"] + _table(rows, ["name", "value"])
    if histograms:
        rows = [[h["name"] + _tag_suffix(h.get("tags", {})), str(h["count"]),
                 _fmt_seconds(h.get("mean", 0.0)), _fmt_seconds(h.get("p50", 0.0)),
                 _fmt_seconds(h.get("p90", 0.0)), _fmt_seconds(h.get("p99", 0.0)),
                 _fmt_seconds(h.get("max", 0.0))]
                for h in histograms]
        lines += ["", "histograms:"] + _table(
            rows, ["name", "count", "mean", "p50", "p90", "p99", "max"])
    if not (counters or gauges or histograms):
        lines.append("(no instruments recorded)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------
def _span_paths(spans: list[dict]) -> dict[str, dict]:
    """Aggregate spans by root-to-span name path ("round > client_task")."""
    by_id = {s["span_id"]: s for s in spans}

    def path_of(span: dict) -> str:
        names = [span["name"]]
        seen = {span["span_id"]}
        parent = span.get("parent_id")
        while parent is not None and parent in by_id and parent not in seen:
            seen.add(parent)
            names.append(by_id[parent]["name"])
            parent = by_id[parent].get("parent_id")
        return " > ".join(reversed(names))

    aggregated: dict[str, dict] = {}
    for span in spans:
        entry = aggregated.setdefault(
            path_of(span), {"count": 0, "wall": 0.0, "excl": 0.0,
                            "aborted": 0})
        entry["count"] += 1
        # aborted spans (a crashed worker never closed them) have no
        # timings; they count but contribute no wall/excl time
        entry["wall"] += span.get("wall_s") or 0.0
        entry["excl"] += span.get("excl_s") or 0.0
        if span.get("status") == "aborted" or span.get("t_end") is None:
            entry["aborted"] += 1
    return aggregated


def render_trace(spans: list[dict]) -> str:
    """Render parsed trace spans as an aggregated call-path tree."""
    lines = ["== trace =="]
    if not spans:
        return "\n".join(lines + ["(no spans recorded)"])
    aggregated = _span_paths(spans)
    # Depth-first over the path tree, siblings widest-wall first, so each
    # path prints directly under its parent.
    ordered: list[str] = []

    def visit(prefix: str) -> None:
        children = [p for p in aggregated
                    if (p.rsplit(" > ", 1)[0] if " > " in p else "") == prefix]
        for path in sorted(children, key=lambda p: -aggregated[p]["wall"]):
            ordered.append(path)
            visit(path)

    visit("")
    rows = []
    n_aborted = 0
    for path in ordered:
        entry = aggregated[path]
        depth = path.count(" > ")
        label = "  " * depth + path.rsplit(" > ", 1)[-1]
        if entry["aborted"]:
            label += f" [{entry['aborted']} aborted]"
            n_aborted += entry["aborted"]
        rows.append([label, str(entry["count"]), _fmt_seconds(entry["wall"]),
                     _fmt_seconds(entry["excl"])])
    summary = f"{len(spans)} span(s), {len(aggregated)} distinct path(s)"
    if n_aborted:
        summary += f", {n_aborted} aborted"
    lines += [summary, ""]
    lines += _table(rows, ["path", "count", "wall", "excl"])
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------
def render_profile(payload: dict) -> str:
    """Render a ``repro.obs.profile/v1`` payload as a per-op table."""
    lines = ["== autograd profile =="]
    ops = payload.get("ops", {})
    if not ops:
        return "\n".join(lines + ["(no ops recorded)"])
    total = sum(r.get("fwd_seconds", 0.0) + r.get("bwd_seconds", 0.0)
                for r in ops.values())
    rows = []
    for name, record in sorted(
            ops.items(),
            key=lambda kv: -(kv[1].get("fwd_seconds", 0.0)
                             + kv[1].get("bwd_seconds", 0.0))):
        op_total = record.get("fwd_seconds", 0.0) + record.get("bwd_seconds", 0.0)
        share = (op_total / total * 100.0) if total else 0.0
        rows.append([name, str(record.get("nodes", 0)),
                     _fmt_seconds(record.get("fwd_seconds", 0.0)),
                     _fmt_seconds(record.get("bwd_seconds", 0.0)),
                     f"{share:.1f}%", _fmt_bytes(record.get("bytes", 0))])
    lines += [f"total op time {_fmt_seconds(total)}", ""]
    lines += _table(rows, ["op", "nodes", "fwd", "bwd", "share", "bytes"])
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# health
# ---------------------------------------------------------------------------
def load_health(path: Path) -> list[dict]:
    """The events of a health.jsonl file (the header line is skipped)."""
    return [record for record in read_records(path) if "event" in record]


def render_health(records: list[dict]) -> str:
    """Render parsed health.jsonl events: round digest + alert table."""
    lines = ["== health =="]
    rounds = [r for r in records if r.get("event") == "round"]
    alerts = [r for r in records if r.get("event") == "alert"]
    if not rounds and not alerts:
        return "\n".join(lines + ["(no health events recorded)"])
    quarantined: set[str] = set()
    for record in rounds:
        quarantined.update(record.get("quarantined", []))
    counts: dict[str, int] = {}
    for alert in alerts:
        counts[alert.get("severity", "info")] = \
            counts.get(alert.get("severity", "info"), 0) + 1
    summary = ", ".join(f"{counts.get(s, 0)} {s}"
                        for s in ("critical", "warning", "info"))
    lines.append(f"{len(rounds)} round(s) monitored, alerts: {summary}")
    if quarantined:
        lines.append("quarantined clients: " + ", ".join(sorted(quarantined)))
    if alerts:
        rows = [[a.get("detector", "?"), a.get("severity", "?"),
                 str(a.get("round_number", "?")), a.get("client") or "-",
                 a.get("message", "")]
                for a in alerts]
        lines += [""] + _table(rows, ["detector", "severity", "round",
                                      "client", "message"])
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# whole-run report
# ---------------------------------------------------------------------------
def load_trace(path: Path) -> list[dict]:
    """The spans of a trace.jsonl file (header and event markers skipped)."""
    return [record for record in read_records(path) if "span_id" in record]


load_trace_events = read_records  # every record: header, spans, markers


def render_report(run_dir: str | Path) -> str:
    """The full text report for one telemetry-enabled run directory.

    Every artifact is optional: missing or unreadable ones are noted in
    place and listed in the footer instead of aborting the report.
    """
    run_dir = Path(run_dir)
    if not run_dir.exists():
        raise FileNotFoundError(f"run directory {run_dir} does not exist")
    sections = [f"telemetry report: {run_dir}"]
    absent: list[str] = []
    found = 0

    def section(title: str, path: Path, loader, renderer) -> None:
        nonlocal found
        if not path.exists():
            absent.append(path.name)
            sections.append(f"== {title} ==\n({path.name} not found)")
            return
        try:
            payload = loader(path)
        except (OSError, json.JSONDecodeError) as error:
            absent.append(f"{path.name} (unreadable)")
            sections.append(f"== {title} ==\n({path.name} unreadable: {error})")
            return
        sections.append(renderer(payload))
        found += 1

    section("metrics", run_dir / METRICS_FILE,
            lambda p: json.loads(p.read_text()), render_metrics)
    section("trace", run_dir / TRACE_FILE, load_trace, render_trace)
    section("autograd profile", run_dir / PROFILE_FILE,
            lambda p: json.loads(p.read_text()), render_profile)
    section("health", run_dir / HEALTH_FILE, load_health, render_health)

    if found == 0:
        raise FileNotFoundError(
            f"no telemetry artifacts in {run_dir} (expected {METRICS_FILE}, "
            f"{TRACE_FILE}, {PROFILE_FILE} or {HEALTH_FILE}; run with "
            f"telemetry enabled)")
    if absent:
        sections.append("absent artifacts: " + ", ".join(absent))
    return "\n\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    import argparse

    from .registry import add_runs_parser, run_runs_command

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render telemetry artifacts written by a TelemetrySession, "
                    "follow live runs, export traces and compare runs via the "
                    "run registry.")
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser("report", help="render a run directory's telemetry")
    report.add_argument("run_dir", help=f"directory holding {METRICS_FILE} / "
                                        f"{TRACE_FILE} / {PROFILE_FILE} / "
                                        f"{HEALTH_FILE}")
    report.add_argument("--format", choices=["text", "chrome-trace"],
                        default="text",
                        help="text report (default) or Chrome trace-event "
                             "JSON on stdout")
    tail_cmd = sub.add_parser(
        "tail", help="follow a live run's trace.jsonl and health.jsonl, "
                     "printing round progress and alerts")
    tail_cmd.add_argument("run_dir", help="run directory being written by a "
                                          "streaming TelemetrySession")
    tail_cmd.add_argument("--idle-timeout", type=float, default=30.0,
                          help="exit after this many seconds without new "
                               "trace data (default 30)")
    trace_cmd = sub.add_parser("trace", help="trace-file operations")
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser(
        "export", help="convert trace.jsonl to Chrome trace-event JSON")
    export.add_argument("run_dir", help="run directory (or a trace.jsonl path)")
    export.add_argument("-o", "--output", default=None,
                        help="output path (default <trace>.chrome.json)")
    add_runs_parser(sub)
    args = parser.parse_args(argv)
    if args.command == "runs":
        return run_runs_command(args)
    if args.command == "tail":
        from .tail import tail_run

        trace_path = Path(args.run_dir) / TRACE_FILE
        seen = tail_run(args.run_dir, idle_timeout=args.idle_timeout)
        if seen == 0:
            print(f"error: no trace records appeared in {trace_path}")
            return 1
        return 0
    if args.command == "trace":
        from .chrome import export_chrome_trace

        target = Path(args.run_dir)
        trace_path = target if target.is_file() else target / TRACE_FILE
        if not trace_path.exists():
            print(f"error: {trace_path} does not exist")
            return 1
        out = export_chrome_trace(trace_path, args.output)
        print(f"wrote {out}")
        return 0
    try:
        if args.format == "chrome-trace":
            from .chrome import to_chrome_trace

            trace_path = Path(args.run_dir) / TRACE_FILE
            if not trace_path.exists():
                raise FileNotFoundError(f"{trace_path} does not exist")
            print(json.dumps(to_chrome_trace(load_trace_events(trace_path)),
                             indent=1, sort_keys=True))
        else:
            print(render_report(args.run_dir))
    except FileNotFoundError as error:
        print(f"error: {error}")
        return 1
    return 0
