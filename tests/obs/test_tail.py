"""Live run follower: incremental reads, footer stop, progress, alert,
quarantine and per-site lines."""

from __future__ import annotations

import io
import json
import threading

from repro.obs import tail as tail_module
from repro.obs.rundir import JsonlReader
from repro.obs.tail import _RoundTracker, iter_trace_records, tail_run


def write_lines(path, records, mode="a"):
    with path.open(mode) as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


HEADER = {"schema": "repro.obs.trace/v2", "trace_id": "t" * 32,
          "process": "server"}


def health_round(round_number, participants, quarantined=()):
    return {"event": "round", "round_number": round_number,
            "participants": list(participants), "quarantined": list(quarantined)}


def health_alert(round_number, client, detector="diverging-client",
                 severity="warning", message="cosine to peers below threshold"):
    return {"event": "alert", "detector": detector, "severity": severity,
            "round_number": round_number, "client": client, "message": message}


def finished_trace(path, tasks=()):
    """A finished trace: header, one ``client_task`` per ``(round, client)``
    in ``tasks``, one ``round`` span per round, and the footer."""
    records = [HEADER]
    for index, (round_number, client) in enumerate(tasks):
        records.append(span_record("client_task", span_id=f"{client}-{index:06d}",
                                   process=client, round=round_number,
                                   client=client))
    records += [span_record("round", span_id=f"server-{r:06d}", round=r)
                for r in sorted({r for r, _ in tasks})]
    write_lines(path, records + [{"event": "end"}], mode="w")


def span_record(name, span_id="server-000001", process="server", t_end=0.2,
                **attrs):
    return {"span_id": span_id, "parent_id": None, "name": name,
            "process": process, "thread": "MainThread", "t_start": 0.1,
            "t_end": t_end, "wall_s": None if t_end is None else t_end - 0.1,
            "excl_s": 0.0, "attrs": attrs}


class TestIterTraceRecords:
    def test_stops_at_end_footer(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_lines(path, [HEADER, span_record("round", round=0),
                           {"event": "end", "trace_id": "t" * 32}], mode="w")
        records = list(iter_trace_records(path, poll=0.01))
        assert [r.get("event", r.get("name", "header")) for r in records] \
            == ["header", "round", "end"]

    def test_idle_timeout_without_footer(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_lines(path, [HEADER], mode="w")
        records = list(iter_trace_records(path, poll=0.01, idle_timeout=0.1))
        assert len(records) == 1  # header only; returned instead of hanging

    def test_missing_file_times_out_cleanly(self, tmp_path):
        records = list(iter_trace_records(tmp_path / "absent.jsonl",
                                          poll=0.01, idle_timeout=0.1))
        assert records == []

    def test_partial_line_buffered_until_complete(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_lines(path, [HEADER], mode="w")
        full_line = json.dumps(span_record("round", round=0)) + "\n"
        with path.open("a") as fh:
            fh.write(full_line[:20])  # writer mid-append
            fh.flush()

            collected = []

            def consume():
                collected.extend(iter_trace_records(path, poll=0.01))

            reader = threading.Thread(target=consume)
            reader.start()
            fh.write(full_line[20:])
            fh.flush()
            fh.write(json.dumps({"event": "end"}) + "\n")
            fh.flush()
            reader.join(timeout=5.0)
        assert not reader.is_alive()
        assert [r.get("name") for r in collected] == [None, "round", None]

    def test_live_appends_are_picked_up(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_lines(path, [HEADER], mode="w")
        collected = []

        def consume():
            collected.extend(iter_trace_records(path, poll=0.01))

        reader = threading.Thread(target=consume)
        reader.start()
        write_lines(path, [span_record("round", round=0)])
        write_lines(path, [{"event": "end"}])
        reader.join(timeout=5.0)
        assert not reader.is_alive()
        assert len(collected) == 3


class TestProgressRendering:
    def test_round_digest_lines(self):
        tracker = _RoundTracker()
        lines = [tracker.feed(r) for r in (
            HEADER,
            {"event": "process", "process": "site-1", "client": "site-1",
             "clock_offset": 1.5e-6},
            span_record("client_task", span_id="site-1-000001",
                        process="site-1", round=0, client="site-1"),
            span_record("round", round=0),
            {"event": "end"},
        )]
        assert "trace " + "t" * 32 in lines[0]
        assert "site-1 joined" in lines[1] and "+1.5us" in lines[1]
        assert "round 0: client site-1 done" in lines[2]
        assert "round 0 complete" in lines[3]
        assert "1 task(s) streamed" in lines[3]
        assert lines[4] == "run ended"

    def test_aborted_span_flagged(self):
        tracker = _RoundTracker()
        line = tracker.feed(span_record("client_task", process="site-2",
                                        t_end=None, round=1))
        assert "aborted" in line and "site-2" in line

    def test_uninteresting_spans_stay_quiet(self):
        tracker = _RoundTracker()
        assert tracker.feed(span_record("codec.encode")) is None


class TestTailRun:
    def test_tail_run_prints_and_counts(self, tmp_path):
        write_lines(tmp_path / "trace.jsonl",
                    [HEADER, span_record("round", round=0),
                     {"event": "end"}], mode="w")
        out = io.StringIO()
        seen = tail_run(tmp_path, stream=out, poll=0.01)
        assert seen == 3
        assert "round 0 complete" in out.getvalue()

    def test_tail_run_empty_dir_times_out(self, tmp_path):
        assert tail_run(tmp_path, stream=io.StringIO(), poll=0.01,
                        idle_timeout=0.1) == 0

    def test_no_health_file_prints_no_health_lines(self, tmp_path):
        finished_trace(tmp_path / "trace.jsonl", tasks=[(0, "site-1")])
        out = io.StringIO()
        assert tail_run(tmp_path, stream=out, poll=0.01) == 4
        assert out.getvalue().splitlines()[-2:] == [
            "run ended", "sites: site-1 1 task(s); quarantined: none"]
        assert "alert" not in out.getvalue()


class TestHealthLines:
    def test_one_line_per_alert_without_a_cap(self, tmp_path):
        finished_trace(tmp_path / "trace.jsonl", tasks=[(0, "site-1")])
        alerts = [health_alert(r, f"site-{r}") for r in range(9)]
        write_lines(tmp_path / "health.jsonl",
                    [{"schema": "repro.obs.health/v1"}, *alerts], mode="w")
        out = io.StringIO()
        tail_run(tmp_path, stream=out, poll=0.01)
        lines = [line for line in out.getvalue().splitlines()
                 if line.startswith("  alert ")]
        assert lines == [f"  alert r{r} warning diverging-client site-{r}: "
                         "cosine to peers below threshold" for r in range(9)]

    def test_quarantine_entry_and_exit(self, tmp_path):
        finished_trace(tmp_path / "trace.jsonl",
                       tasks=[(r, s) for r in range(4) for s in ("site-1", "site-2")])
        write_lines(tmp_path / "health.jsonl", [
            health_round(0, ["site-1", "site-2"]),
            health_round(1, ["site-1", "site-2"], quarantined=["site-2"]),
            health_round(2, ["site-1", "site-2"], quarantined=["site-2"]),
            health_round(3, ["site-1", "site-2"]),
        ], mode="w")
        out = io.StringIO()
        tail_run(tmp_path, stream=out, poll=0.01)
        assert [line for line in out.getvalue().splitlines()
                if "quarantine" in line and not line.startswith("sites:")] == [
            "  round 1: site-2 enters quarantine",
            "  round 3: site-2 leaves quarantine"]

    def test_footer_counts_tasks_and_names_quarantined_sites(self, tmp_path):
        finished_trace(tmp_path / "trace.jsonl",
                       tasks=[(0, "site-1"), (0, "site-2"), (1, "site-1")])
        write_lines(tmp_path / "health.jsonl", [
            health_round(0, ["site-1", "site-2", "site-3"]),
            health_round(1, ["site-1", "site-3"], quarantined=["site-3"]),
        ], mode="w")
        out = io.StringIO()
        tail_run(tmp_path, stream=out, poll=0.01)
        assert out.getvalue().splitlines()[-1] == (
            "sites: site-1 2 task(s), site-2 1 task(s), site-3 0 task(s); "
            "quarantined: site-3")

    def test_health_is_read_to_its_end_after_the_footer(self, tmp_path,
                                                         monkeypatch):
        trace, health = tmp_path / "trace.jsonl", tmp_path / "health.jsonl"
        finished_trace(trace)
        write_lines(health, [health_alert(0, "site-1")], mode="w")

        class Reader(JsonlReader):
            def poll(self):
                records = super().poll()
                if any(record.get("event") == "end" for record in records):
                    # the monitor writes its last alert after the footer
                    write_lines(health, [health_alert(1, "site-2")])
                return records

        monkeypatch.setattr(tail_module, "JsonlReader", Reader)
        out = io.StringIO()
        assert tail_run(tmp_path, stream=out, poll=0.01) == 2
        lines = out.getvalue().splitlines()
        assert [line.split()[1] for line in lines if line.startswith("  alert ")] \
            == ["r0", "r1"]
        assert lines[-1] == "sites: none; quarantined: none"


# ---------------------------------------------------------------------------
# tail renders async commit windows
# ---------------------------------------------------------------------------
def test_tail_renders_async_commit_window():
    tracker = _RoundTracker()
    line = tracker.feed({"span_id": "x", "name": "round", "t_end": 2.0,
                         "wall_s": 1.5,
                         "attrs": {"round": 3, "mode": "async", "version": 4,
                                   "accepted": 8, "buffer_size": 8,
                                   "staleness_max": 1, "quorum_met": True}})
    assert line == ("commit window 3 closed in 1.500s "
                    "(buffer 8/8 update(s), global v4, staleness max 1)")


def test_tail_renders_async_under_quorum():
    tracker = _RoundTracker()
    line = tracker.feed({"span_id": "y", "name": "round", "t_end": 2.0,
                         "wall_s": 0.5,
                         "attrs": {"round": 0, "mode": "async", "version": 0,
                                   "accepted": 1, "buffer_size": 4,
                                   "quorum_met": False}})
    assert "under quorum" in line
    assert "buffer 1/4 update(s)" in line


def test_tail_sync_round_rendering_unchanged():
    tracker = _RoundTracker()
    line = tracker.feed({"span_id": "z", "name": "round", "t_end": 1.0,
                         "wall_s": 0.2, "attrs": {"round": 1}})
    assert line == "round 1 complete in 200.0ms (0 task(s) streamed so far)"
