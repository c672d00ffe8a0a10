"""The run-dir reader, and every consumer reading a run dir through it."""

from __future__ import annotations

import io
import json
import re
import threading
import time
from dataclasses import replace

import pytest

from repro.flare import FLJob, SimulatorRunner
from repro.obs.chrome import export_chrome_trace
from repro.obs.registry import summarize_run
from repro.obs.report import render_report
from repro.obs.rundir import HEALTH_FILE, TRACE_FILE, JsonlReader, read_records
from repro.obs.tail import tail_run

from ..flare.helpers import ToyLearner, toy_weights

HEADER = {"schema": "repro.obs.trace/v2", "trace_id": "t" * 32,
          "process": "server"}


def span(name, span_id, **attrs):
    return {"span_id": span_id, "parent_id": None, "name": name,
            "process": "server", "thread": "MainThread", "t_start": 0.1,
            "t_end": 0.2, "wall_s": 0.1, "excl_s": 0.1, "attrs": attrs}


def write(path, lines):
    path.write_text("".join(line if isinstance(line, str) else json.dumps(line) + "\n"
                            for line in lines))


def finished_run(run_dir, junk=()):
    """A finished run dir: trace with its footer, health with a round and an
    alert, with ``junk`` lines among the records of both files."""
    write(run_dir / TRACE_FILE, [HEADER, span("round", "server-000001", round=0),
                                 *junk, {"event": "end", "trace_id": "t" * 32}])
    write(run_dir / HEALTH_FILE, [
        {"schema": "repro.obs.health/v1"},
        {"event": "round", "round_number": 0, "participants": ["site-1"],
         "quarantined": []},
        {"event": "alert", "detector": "straggler", "severity": "warning",
         "round_number": 0, "client": "site-1", "message": "slow"},
        *junk])


class TestReader:
    def test_read_once_keeps_a_parsable_unterminated_tail(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"a": 1}\n42\n[1]\n"s"\nnull\n\ngarbage\n{"b": 2}')
        assert read_records(path) == [{"a": 1}, {"b": 2}]

    def test_read_once_drops_a_truncated_tail(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"a": 1}\n{"b": ')
        assert read_records(path) == [{"a": 1}]

    def test_read_once_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            read_records(tmp_path / "absent.jsonl")

    def test_poll_returns_only_complete_new_records(self, tmp_path):
        path = tmp_path / "a.jsonl"
        reader = JsonlReader(path)
        assert reader.poll() == []  # no file yet: nothing, and no wait
        with path.open("w") as fh:
            fh.write('{"a": 1}\n{"b": ')
            fh.flush()
            assert reader.poll() == [{"a": 1}]
            assert reader.poll() == []  # the partial line is held back
            fh.write('2}\n7\n{"c": 3}')
            fh.flush()
            assert reader.poll() == [{"b": 2}]
            fh.write("\n")
            fh.flush()
            assert reader.poll() == [{"c": 3}]
        assert reader.poll() == []


def test_consumers_skip_non_object_lines(tmp_path):
    finished_run(tmp_path, junk=["42\n", "[1, 2]\n"])
    for name in (TRACE_FILE, HEALTH_FILE):
        with (tmp_path / name).open("a") as fh:
            fh.write('{"event": "alert", "sev')  # an aborted writer's tail

    report = render_report(tmp_path)
    assert "1 span(s)" in report
    assert "1 round(s) monitored, alerts: 0 critical, 1 warning" in report
    summary = summarize_run(tmp_path)
    assert summary["health"]["rounds"] == 1
    assert summary["health"]["alerts"]["warning"] == 1
    out = io.StringIO()
    assert tail_run(tmp_path, stream=out, poll=0.01, idle_timeout=1.0) == 3
    lines = out.getvalue().splitlines()
    assert "round 0 complete in 100.0ms (0 task(s) streamed so far)" in lines
    assert [line for line in lines if line.startswith("  alert ")] == [
        "  alert r0 warning straggler site-1: slow"]
    assert lines[-1] == "sites: site-1 0 task(s); quarantined: none"


def test_tail_leaves_no_thread_behind(tmp_path):
    finished_run(tmp_path)
    before = set(threading.enumerate())
    assert tail_run(tmp_path, stream=io.StringIO(), poll=0.01) == 3
    time.sleep(0.2)
    assert [t.name for t in threading.enumerate()
            if t not in before and t.is_alive()] == []


def test_every_consumer_agrees_on_one_socket_run(tmp_path):
    """report, runs, tail and the Chrome export read one run dir the same
    way, including a half-written final line."""
    job = FLJob(name="agree", initial_weights=toy_weights(0.0), num_rounds=2,
                learner_factory=lambda name: ToyLearner(
                    name, delta=-40.0 if name == "site-2" else 1.0))
    result = SimulatorRunner(replace(job, transport="socket"), n_clients=2, seed=0,
                             run_dir=tmp_path, telemetry=True, health=True,
                             capture_log=False).run()
    n_alerts = len(result.stats.alerts)
    assert n_alerts > 0  # site-2 diverges
    for name in (TRACE_FILE, HEALTH_FILE):
        with (tmp_path / name).open("a") as fh:
            fh.write('{"event": "alert", "detector": "x", "sev')

    events = read_records(tmp_path / TRACE_FILE)
    spans = [e for e in events if "span_id" in e]
    tasks = [s for s in spans if s["name"] == "client_task"]
    assert len(tasks) == 4 and events[-1]["event"] == "end"

    report = render_report(tmp_path)
    assert f"{len(spans)} span(s)" in report
    severities = [alert.severity for alert in result.stats.alerts]
    assert ("2 round(s) monitored, alerts: " + ", ".join(
        f"{severities.count(s)} {s}" for s in ("critical", "warning", "info"))) in report
    assert len(re.findall(r"^  diverging-client ", report, re.M)) == n_alerts

    summary = summarize_run(tmp_path)
    assert summary["rounds"] == summary["health"]["rounds"] == 2
    assert sum(summary["health"]["alerts"].values()) == n_alerts

    out = io.StringIO()
    assert tail_run(tmp_path, stream=out, poll=0.01, idle_timeout=1.0) == len(events)
    text = out.getvalue()
    assert len(re.findall(r"^round \d+ complete", text, re.M)) == 2
    assert text.count(" done in ") == len(tasks)
    assert len(re.findall(r"^  alert r\d+ ", text, re.M)) == n_alerts
    footer = text.splitlines()[-1]
    assert footer.startswith("sites: ")
    assert sum(int(n) for n in re.findall(r"site-\d+ (\d+) task\(s\)", footer)) \
        == len(tasks)

    chrome = json.loads(export_chrome_trace(tmp_path / TRACE_FILE).read_text())
    complete = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == len(spans)
    assert sum(e["name"] == "round" for e in complete) == 2
