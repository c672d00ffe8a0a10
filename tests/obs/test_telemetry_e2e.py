"""End-to-end telemetry: simulator runs and real training under a session."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.flare import FaultPlan, FLJob, SimulatorRunner
from repro.models import build_classifier
from repro.obs import TelemetrySession
from repro.obs.report import render_report
from repro.training import TrainConfig, train_classifier

from ..flare.helpers import ToyLearner, toy_weights


def make_job(num_rounds=2, **kw):
    return FLJob(name="toy", initial_weights=toy_weights(0.0),
                 learner_factory=lambda name: ToyLearner(name, delta=1.0),
                 num_rounds=num_rounds,
                 evaluator=lambda w: {"valid_acc": float(np.mean(w["layer.weight"]))},
                 **kw)


def load_trace_names(path) -> dict[str, int]:
    names: dict[str, int] = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if "span_id" not in record:
            continue  # header / process marker / end footer
        names[record["name"]] = names.get(record["name"], 0) + 1
    return names


class TestSimulatorTelemetry:
    def test_artifacts_written_and_linked(self, tmp_path):
        result = SimulatorRunner(make_job(), n_clients=3, seed=0,
                                 run_dir=tmp_path, telemetry=True).run()
        assert set(result.stats.telemetry) == {"metrics", "trace", "profile"}
        for path in result.stats.telemetry.values():
            assert Path(path).exists()

    def test_metrics_cover_transport_and_federation(self, tmp_path):
        result = SimulatorRunner(make_job(), n_clients=3, seed=0,
                                 run_dir=tmp_path, telemetry=True).run()
        payload = json.loads((tmp_path / "metrics.json").read_text())
        counters = {c["name"] for c in payload["counters"]}
        assert {"federation.rounds", "transport.messages_delivered",
                "transport.messages"} <= counters
        histograms = {h["name"] for h in payload["histograms"]}
        assert {"federation.round_seconds", "federation.aggregation_seconds",
                "transport.latency_seconds"} <= histograms
        rounds = next(c for c in payload["counters"]
                      if c["name"] == "federation.rounds")
        assert rounds["value"] == 2

    def test_trace_has_round_and_client_spans(self, tmp_path):
        SimulatorRunner(make_job(), n_clients=3, seed=0,
                        run_dir=tmp_path, telemetry=True).run()
        names = load_trace_names(tmp_path / "trace.jsonl")
        assert names["round"] == 2
        assert names["client_task"] == 6  # 3 clients x 2 rounds
        assert names["client_thread"] == 3
        assert names["aggregate"] == 2

    def test_stats_json_roundtrips_pointers(self, tmp_path):
        from repro.flare.stats import RunStats

        result = SimulatorRunner(make_job(), n_clients=2, seed=0,
                                 run_dir=tmp_path, telemetry=True).run()
        saved = result.stats.save_json(tmp_path / "stats.json")
        restored = RunStats.from_dict(json.loads(saved.read_text()))
        assert restored.telemetry == result.stats.telemetry
        assert restored.duplicates_dropped == result.stats.duplicates_dropped

    def test_telemetry_off_writes_nothing(self, tmp_path):
        result = SimulatorRunner(make_job(), n_clients=2, seed=0,
                                 run_dir=tmp_path).run()
        assert result.stats.telemetry == {}
        assert not (tmp_path / "metrics.json").exists()
        assert not (tmp_path / "trace.jsonl").exists()

    def test_fault_injections_exported(self, tmp_path):
        plan = FaultPlan(seed=7, duplicate_prob=0.5)
        result = SimulatorRunner(make_job(), n_clients=3, seed=0,
                                 run_dir=tmp_path, fault_plan=plan,
                                 telemetry=True).run()
        payload = json.loads((tmp_path / "metrics.json").read_text())
        faults = [c for c in payload["counters"] if c["name"] == "transport.faults"]
        assert any(c["tags"] == {"kind": "duplicate"} and c["value"] > 0
                   for c in faults)
        dedup = next(c for c in payload["counters"]
                     if c["name"] == "transport.duplicates_dropped")
        assert dedup["value"] == result.stats.duplicates_dropped > 0

    def test_report_renders_run(self, tmp_path):
        SimulatorRunner(make_job(), n_clients=2, seed=0,
                        run_dir=tmp_path, telemetry=True).run()
        text = render_report(tmp_path)
        assert "federation.rounds" in text
        assert "client_task" in text


def wire_job() -> FLJob:
    return FLJob(name="wire", learner_factory=ToyLearner, num_rounds=2,
                 initial_weights={"w": np.zeros((64, 64), dtype=np.float32)})


def metrics_wire_bytes(run_dir) -> tuple[float, float]:
    """``transport.bytes_raw`` / ``bytes_encoded`` as metrics.json has them."""
    payload = json.loads((Path(run_dir) / "metrics.json").read_text())
    return tuple(sum(c["value"] for c in payload["counters"] if c["name"] == name)
                 for name in ("transport.bytes_raw", "transport.bytes_encoded"))


class TestWireAccounting:
    """metrics.json counts each codec pass once, whatever ran before."""

    @pytest.fixture(autouse=True)
    def fresh_wire_registry(self):
        from repro.flare import codec

        old = codec.reset_wire_metrics()  # what a fresh process starts with
        yield
        codec.wire_metrics = old

    def run(self, run_dir, transport):
        return SimulatorRunner(replace(wire_job(), transport=transport), n_clients=2,
                               seed=0, run_dir=run_dir, telemetry=True,
                               capture_log=False).run().stats

    def test_memory_metrics_equal_run_stats(self, tmp_path):
        for attempt in ("fresh", "warm"):
            stats = self.run(tmp_path / attempt, "memory")
            assert metrics_wire_bytes(tmp_path / attempt) == (
                stats.wire_bytes_raw, stats.wire_bytes_encoded)

    @pytest.mark.parametrize("transport", ["shm", "socket"])
    def test_process_fabrics_ignore_earlier_runs(self, tmp_path, transport):
        stats = self.run(tmp_path / "fresh", transport)
        fresh = metrics_wire_bytes(tmp_path / "fresh")
        self.run(tmp_path / "warm", transport)
        assert metrics_wire_bytes(tmp_path / "warm") == fresh
        # the server's share is in stats; metrics.json adds the workers'
        assert fresh[0] > stats.wire_bytes_raw > 0


class TestTrainingTelemetry:
    @pytest.fixture(scope="class")
    def trained_session(self, tmp_path_factory, tiny_split, vocab_size):
        run_dir = tmp_path_factory.mktemp("train-telemetry")
        train, _ = tiny_split
        model = build_classifier("lstm-tiny", vocab_size=vocab_size, seed=0)
        with TelemetrySession(run_dir) as session:
            train_classifier(model, train,
                             TrainConfig(epochs=1, batch_size=32, lr=1e-2))
        return run_dir, session

    def test_real_tokens_and_padding_share(self, trained_session, tiny_split):
        _, session = trained_session
        cells = session.registry.counter("train.tokens", objective="classifier").value
        real = session.registry.counter("train.real_tokens",
                                        objective="classifier").value
        assert real == tiny_split[0].attention_mask.sum()   # one epoch, every row
        share = session.registry.gauge("train.padding_share",
                                       objective="classifier").value
        assert share == pytest.approx(1 - real / cells) and 0 <= share < 0.15

    def test_local_train_and_step_spans(self, trained_session):
        run_dir, session = trained_session
        names = load_trace_names(run_dir / "trace.jsonl")
        assert names["local_train"] == 1
        assert names["step"] >= 1

    def test_step_histogram_and_throughput(self, trained_session):
        _, session = trained_session
        hist = session.registry.histogram("train.step_seconds",
                                          objective="classifier")
        assert hist.count >= 1
        assert session.registry.counter("train.tokens",
                                        objective="classifier").value > 0
        assert session.registry.gauge("train.tokens_per_sec",
                                      objective="classifier").value > 0

    def test_profiler_saw_fused_ops(self, trained_session):
        run_dir, _ = trained_session
        payload = json.loads((run_dir / "profile.json").read_text())
        # one node per LSTM layer per step: the forward call, the graph node
        # and the single BPTT all land under the functional name, and the
        # unconsumed final-cell-state sibling never runs a second one
        lstm = payload["ops"]["lstm_layer"]
        assert lstm["fwd_calls"] > 0
        assert lstm["nodes"] == lstm["bwd_calls"] == lstm["fwd_calls"]
        assert payload["ops"]["lstm_layer_c"]["bwd_calls"] == 0
        assert "lstm_step" not in payload["ops"]
        assert payload["ops"]["cross_entropy"]["fwd_calls"] >= 1
        assert payload["ops"]["cross_entropy"]["bwd_seconds"] >= 0.0
