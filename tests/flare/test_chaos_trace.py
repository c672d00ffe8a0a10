"""Chaos: a worker process dying mid-round must not corrupt the merged trace.

The streaming design's crash contract:

- everything a worker flushed before dying (earlier rounds' spans, its
  cumulative metrics) survives in the parent's merged ``trace.jsonl``;
- the spans it had open when it died are finalized by the parent as
  ``status: "aborted"`` records (no ``t_end``), so the crash is visible
  in the timeline instead of silently missing;
- the run itself completes under quorum, and the report CLI still
  renders the run directory.

The crash is a real one: the learner calls ``os._exit`` mid-task, taking
the whole forked worker down with no goodbye delta and no Python-level
cleanup.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.flare import FLJob, SimulatorRunner
from repro.obs.report import load_trace_events, render_report

from .helpers import ToyLearner, toy_weights

pytestmark = pytest.mark.chaos

CRASH_SITE = "site-2"


class CrashingLearner(ToyLearner):
    """Round 0 trains normally; round 1 lingers past one flush, then dies."""

    def train(self, dxo, fl_ctx):
        round_number = int(fl_ctx.get_prop("current_round", 0))
        if self.site_name == CRASH_SITE and round_number == 1:
            # stay inside the open client_task long enough for the worker's
            # exporter (interval 0.15s) to stream a delta reporting it open
            time.sleep(0.6)
            os._exit(13)
        return super().train(dxo, fl_ctx)


@pytest.fixture(scope="module")
def crashed_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("chaos-trace")
    job = FLJob(name="chaos-trace", initial_weights=toy_weights(0.0),
                learner_factory=lambda name: CrashingLearner(name, delta=1.0),
                num_rounds=3, min_clients=1, result_timeout=5.0,
                max_failed_rounds=2,
                evaluator=lambda w: {"valid_acc": float(np.mean(w["layer.weight"]))})
    result = SimulatorRunner(replace(job, transport="socket"), n_clients=2, seed=0,
                             run_dir=run_dir, telemetry=True,
                             telemetry_flush=0.15).run()
    return result, load_trace_events(run_dir / "trace.jsonl")


class TestCrashForensics:
    def test_run_completes_without_the_crashed_site(self, crashed_run):
        result, _ = crashed_run
        assert result.stats.num_rounds == 3
        assert any(CRASH_SITE in r.dropped_clients
                   for r in result.stats.rounds[1:])
        contributors = [c.client for r in result.stats.rounds[1:]
                        for c in r.client_records]
        assert CRASH_SITE not in contributors

    def test_pre_crash_spans_survive(self, crashed_run):
        _, events = crashed_run
        closed = [e for e in events if "span_id" in e and e.get("t_end")]
        round0_tasks = [e for e in closed if e["name"] == "client_task"
                        and e.get("attrs", {}).get("round") == 0]
        assert {e["process"] for e in round0_tasks} == {"site-1", CRASH_SITE}

    def test_crashed_span_marked_aborted(self, crashed_run):
        _, events = crashed_run
        aborted = [e for e in events if e.get("status") == "aborted"]
        assert aborted, "no aborted spans recorded for the crashed worker"
        assert {e["process"] for e in aborted} == {CRASH_SITE}
        crashed_task = next(e for e in aborted if e["name"] == "client_task")
        assert crashed_task["attrs"]["round"] == 1
        assert crashed_task["t_end"] is None

    def test_survivor_keeps_streaming_after_the_crash(self, crashed_run):
        _, events = crashed_run
        later = [e for e in events if "span_id" in e
                 and e["name"] == "client_task"
                 and e.get("attrs", {}).get("round") == 2]
        assert [e["process"] for e in later] == ["site-1"]

    def test_report_renders_crashed_run(self, crashed_run):
        result, _ = crashed_run
        text = render_report(result.run_dir)
        assert "client_task" in text

    def test_single_end_footer_despite_crash(self, crashed_run):
        _, events = crashed_run
        assert sum(1 for e in events if e.get("event") == "end") == 1
