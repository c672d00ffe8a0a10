"""Distributed tracing across fabrics: one tree, one clock, no collisions.

The property under test: a telemetry-enabled run on ANY fabric — threaded
in-memory, process-per-client sockets, fork-inherited shared memory —
produces one merged ``trace.jsonl`` in which

- every span carries the run's single ``trace_id`` lineage (header +
  per-process join markers agree);
- span ids are globally unique even though workers are forked processes
  minting ids independently (ids are process-prefixed);
- every ``client_task`` is a direct child of the server's ``round`` span
  for the same round, and every ``local_train`` sits under a
  ``client_task`` — the tree crosses process boundaries;
- after per-process clock alignment, child intervals nest inside their
  remote parent's interval on the server's timeline.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.flare import FLJob, SimulatorRunner
from repro.obs import trace as obs_trace
from repro.obs.report import load_trace, load_trace_events

from .helpers import ToyLearner, toy_weights

TRANSPORTS = ("memory", "socket", "shm")

# Clock offsets are derived from a shared CLOCK_MONOTONIC with a single
# sample for send-timestamp and context, so alignment is near-exact; the
# slack only covers float rounding in the exported records.
ALIGN_SLACK = 0.005


class TracingLearner(ToyLearner):
    """Opens a ``local_train`` span so the full chain exists without a model."""

    def train(self, dxo, fl_ctx):
        with obs_trace.span("local_train", site=self.site_name):
            return super().train(dxo, fl_ctx)


@pytest.fixture(scope="module", params=TRANSPORTS)
def traced_run(request, tmp_path_factory):
    transport = request.param
    run_dir = tmp_path_factory.mktemp(f"trace-{transport}")
    job = FLJob(name="traced", initial_weights=toy_weights(0.0),
                learner_factory=lambda name: TracingLearner(name, delta=1.0),
                num_rounds=2,
                evaluator=lambda w: {"valid_acc": float(np.mean(w["layer.weight"]))})
    result = SimulatorRunner(replace(job, transport=transport), n_clients=2, seed=0,
                             run_dir=run_dir, telemetry=True,
                             telemetry_flush=0.2).run()
    trace_path = run_dir / "trace.jsonl"
    return {
        "transport": transport,
        "result": result,
        "spans": load_trace(trace_path),
        "events": load_trace_events(trace_path),
    }


def spans_named(run, name):
    return [s for s in run["spans"] if s["name"] == name]


class TestMergedTree:
    def test_single_trace_id_everywhere(self, traced_run):
        events = traced_run["events"]
        header = next(e for e in events if e.get("schema"))
        trace_ids = {header["trace_id"]}
        trace_ids |= {e["trace_id"] for e in events
                      if e.get("event") == "process" and "trace_id" in e}
        footer = [e for e in events if e.get("event") == "end"]
        trace_ids |= {f["trace_id"] for f in footer if "trace_id" in f}
        assert len(trace_ids) == 1
        assert len(footer) == 1

    def test_span_ids_globally_unique(self, traced_run):
        ids = [s["span_id"] for s in traced_run["spans"]]
        assert len(ids) == len(set(ids))

    def test_every_span_id_carries_its_process(self, traced_run):
        for span in traced_run["spans"]:
            assert span["span_id"].startswith(span["process"] + "-")

    def test_worker_processes_present(self, traced_run):
        processes = {s["process"] for s in traced_run["spans"]}
        assert "server" in processes
        if traced_run["transport"] != "memory":
            # process-per-client fabrics: each site's spans come from its
            # own forked process
            assert {"site-1", "site-2"} <= processes

    def test_client_tasks_are_children_of_their_round(self, traced_run):
        rounds = {s["attrs"]["round"]: s for s in spans_named(traced_run, "round")}
        tasks = spans_named(traced_run, "client_task")
        assert len(rounds) == 2
        assert len(tasks) == 4  # 2 clients x 2 rounds
        for task in tasks:
            round_span = rounds[task["attrs"]["round"]]
            assert task["parent_id"] == round_span["span_id"]

    def test_local_train_under_client_task(self, traced_run):
        tasks = {s["span_id"]: s for s in spans_named(traced_run, "client_task")}
        trains = spans_named(traced_run, "local_train")
        assert len(trains) == 4
        for train in trains:
            parent = tasks[train["parent_id"]]
            assert parent["process"] == train["process"]

    def test_child_intervals_nest_in_remote_parent(self, traced_run):
        rounds = {s["attrs"]["round"]: s for s in spans_named(traced_run, "round")}
        for task in spans_named(traced_run, "client_task"):
            round_span = rounds[task["attrs"]["round"]]
            assert task["t_start"] >= round_span["t_start"] - ALIGN_SLACK
            assert task["t_end"] <= round_span["t_end"] + ALIGN_SLACK
            for train in spans_named(traced_run, "local_train"):
                if train["parent_id"] != task["span_id"]:
                    continue
                assert train["t_start"] >= task["t_start"] - ALIGN_SLACK
                assert train["t_end"] <= task["t_end"] + ALIGN_SLACK

    def test_worker_clock_offsets_recorded(self, traced_run):
        if traced_run["transport"] == "memory":
            pytest.skip("single process, no clock to align")
        joins = {e["process"]: e for e in traced_run["events"]
                 if e.get("event") == "process"}
        assert {"site-1", "site-2"} <= set(joins)
        for join in joins.values():
            assert isinstance(join["clock_offset"], float)

    def test_trace_valid_jsonl_line_per_record(self, traced_run):
        trace_path = traced_run["result"].run_dir / "trace.jsonl"
        for line in trace_path.read_text().splitlines():
            json.loads(line)

    def test_codec_spans_with_byte_attrs(self, traced_run):
        codec_spans = [s for s in traced_run["spans"]
                       if s["name"].startswith("codec.")]
        assert {s["name"] for s in codec_spans} >= {"codec.encode",
                                                    "codec.decode"}
        for span in codec_spans:
            assert span["attrs"]["codec"]
            assert span["attrs"]["raw_bytes"] >= 0
            assert span["attrs"]["encoded_bytes"] > 0


class TestFilterSpans:
    def test_compression_filter_passes_traced(self, tmp_path):
        job = FLJob(name="filtered", initial_weights=toy_weights(0.0),
                    learner_factory=lambda name: ToyLearner(name, delta=1.0),
                    num_rounds=1)
        run_dir = tmp_path / "filtered"
        SimulatorRunner(replace(job, compression="delta+fp16"), n_clients=2, seed=0,
                        run_dir=run_dir, telemetry=True).run()
        filters = [s for s in load_trace(run_dir / "trace.jsonl")
                   if s["name"] == "filter"]
        stages = {s["attrs"]["stage"] for s in filters}
        assert {"task_data", "task_result", "server_result"} <= stages
        assert all(s["attrs"]["filter"] for s in filters)
