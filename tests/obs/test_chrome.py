"""Chrome trace-event export: mapping, units, aborted spans, round-trip."""

from __future__ import annotations

import json

from repro.obs import Tracer
from repro.obs.chrome import to_chrome_trace
from repro.obs.chrome import export_chrome_trace
from repro.obs.report import load_trace_events
from repro.obs.session import TelemetrySession
from repro.obs import trace as obs_trace


def sample_records():
    return [
        {"schema": "repro.obs.trace/v2", "trace_id": "t" * 32,
         "process": "server"},
        {"span_id": "server-000001", "parent_id": None, "name": "round",
         "process": "server", "thread": "MainThread",
         "t_start": 0.0, "t_end": 0.5, "wall_s": 0.5, "excl_s": 0.1,
         "attrs": {"round": 0}},
        {"span_id": "site-1-000001", "parent_id": "server-000001",
         "name": "client_task", "process": "site-1", "thread": "MainThread",
         "t_start": 0.1, "t_end": 0.4, "wall_s": 0.3, "excl_s": 0.3,
         "attrs": {"client": "site-1", "round": 0}},
        {"span_id": "site-1-000002", "parent_id": "site-1-000001",
         "name": "local_train", "process": "site-1", "thread": "MainThread",
         "t_start": 0.15, "t_end": None, "wall_s": None, "excl_s": 0.0,
         "attrs": {}, "status": "aborted"},
        {"event": "end", "trace_id": "t" * 32, "n_records": 3},
    ]


class TestToChromeTrace:
    def test_processes_and_threads_get_metadata(self):
        payload = to_chrome_trace(sample_records())
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e["args"]["name"]) for e in meta}
        assert ("process_name", "server") in names
        assert ("process_name", "site-1") in names
        assert ("thread_name", "MainThread") in names
        # distinct processes map to distinct pids
        pids = {e["pid"] for e in meta if e["name"] == "process_name"}
        assert len(pids) == 2

    def test_complete_events_in_microseconds(self):
        payload = to_chrome_trace(sample_records())
        events = {e["args"].get("span_id"): e
                  for e in payload["traceEvents"] if e["ph"] == "X"}
        round_event = events["server-000001"]
        assert round_event["ts"] == 0.0
        assert round_event["dur"] == 500000.0
        task = events["site-1-000001"]
        assert task["ts"] == 100000.0
        assert task["dur"] == 300000.0
        assert task["args"]["parent_id"] == "server-000001"
        assert task["args"]["client"] == "site-1"
        assert task["pid"] != round_event["pid"]

    def test_aborted_span_survives_as_zero_duration(self):
        payload = to_chrome_trace(sample_records())
        aborted = next(e for e in payload["traceEvents"]
                       if e.get("args", {}).get("span_id") == "site-1-000002")
        assert aborted["dur"] == 0.0
        assert aborted["args"]["status"] == "aborted"
        assert aborted["cat"] == "aborted"

    def test_trace_id_carried_in_other_data(self):
        payload = to_chrome_trace(sample_records())
        assert payload["otherData"]["trace_id"] == "t" * 32


class TestRoundTrip:
    def test_real_session_exports_and_reimports(self, tmp_path):
        with TelemetrySession(tmp_path, metrics=False, profile=False,
                              process="server") as session:
            with obs_trace.span("round", round=0):
                with obs_trace.span("aggregate", round=0):
                    pass
        out = export_chrome_trace(tmp_path / "trace.jsonl")
        assert out.name == "trace.chrome.json"
        payload = json.loads(out.read_text())
        source = load_trace_events(tmp_path / "trace.jsonl")
        source_spans = [r for r in source if "span_id" in r]
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        # one X event per span, same names, same ids, matching timings
        assert len(complete) == len(source_spans)
        by_id = {e["args"]["span_id"]: e for e in complete}
        for record in source_spans:
            event = by_id[record["span_id"]]
            assert event["name"] == record["name"]
            assert event["ts"] == round(record["t_start"] * 1e6, 1)
            assert event["dur"] == round(
                (record["t_end"] - record["t_start"]) * 1e6, 1)
        assert payload["otherData"]["trace_id"] == session.tracer.trace_id

    def test_export_honours_output_path(self, tmp_path):
        tracer = Tracer(process="server")
        with tracer.span("round"):
            pass
        trace_path = tracer.export_jsonl(tmp_path / "trace.jsonl")
        out = export_chrome_trace(trace_path, tmp_path / "custom.json")
        assert out == tmp_path / "custom.json"
        assert json.loads(out.read_text())["traceEvents"]
