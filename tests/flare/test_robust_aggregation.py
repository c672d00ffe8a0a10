"""Robust aggregators, client sampling, straggler tolerance, stats export."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flare import (
    DXO,
    CoordinateMedianAggregator,
    DataKind,
    FLContext,
    FLJob,
    MetaKey,
    SimulatorRunner,
    TrimmedMeanAggregator,
)

from .helpers import ToyLearner, toy_weights


def ctx():
    c = FLContext()
    c.set_prop("current_round", 0)
    return c


def dxo_of(value, kind=DataKind.WEIGHTS):
    return DXO(kind, data={"w": np.full(4, float(value))},
               meta={MetaKey.NUM_STEPS_CURRENT_ROUND: 1})


class TestMedianAggregator:
    def test_median_of_values(self):
        agg = CoordinateMedianAggregator()
        agg.reset()
        for index, value in enumerate([1.0, 2.0, 100.0]):
            agg.accept(dxo_of(value), f"c{index}", ctx())
        np.testing.assert_allclose(agg.aggregate(ctx()).data["w"], 2.0)

    def test_byzantine_client_bounded_influence(self):
        """One corrupted site cannot move the median beyond honest values."""
        agg = CoordinateMedianAggregator()
        agg.reset()
        for index, value in enumerate([1.0, 1.1, 0.9, 1e9]):
            agg.accept(dxo_of(value), f"c{index}", ctx())
        out = agg.aggregate(ctx()).data["w"]
        assert np.all(out <= 1.1)

    def test_duplicate_and_mismatch_rejected(self):
        agg = CoordinateMedianAggregator()
        agg.reset()
        assert agg.accept(dxo_of(1.0), "a", ctx())
        assert not agg.accept(dxo_of(2.0), "a", ctx())
        other = DXO(DataKind.WEIGHTS, data={"v": np.ones(4)})
        assert not agg.accept(other, "b", ctx())

    def test_empty_raises(self):
        agg = CoordinateMedianAggregator()
        agg.reset()
        with pytest.raises(RuntimeError):
            agg.aggregate(ctx())

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            CoordinateMedianAggregator(expected_data_kind=DataKind.METRICS)


class TestTrimmedMean:
    def test_trims_extremes(self):
        agg = TrimmedMeanAggregator(trim=1)
        agg.reset()
        for index, value in enumerate([0.0, 1.0, 2.0, 3.0, 1000.0]):
            agg.accept(dxo_of(value), f"c{index}", ctx())
        np.testing.assert_allclose(agg.aggregate(ctx()).data["w"], 2.0)

    def test_trim_zero_is_mean(self):
        agg = TrimmedMeanAggregator(trim=0)
        agg.reset()
        for index, value in enumerate([1.0, 3.0]):
            agg.accept(dxo_of(value), f"c{index}", ctx())
        np.testing.assert_allclose(agg.aggregate(ctx()).data["w"], 2.0)

    def test_too_few_contributions(self):
        agg = TrimmedMeanAggregator(trim=2)
        agg.reset()
        for index in range(4):
            agg.accept(dxo_of(index), f"c{index}", ctx())
        with pytest.raises(RuntimeError, match="trimmed mean"):
            agg.aggregate(ctx())

    def test_negative_trim(self):
        with pytest.raises(ValueError):
            TrimmedMeanAggregator(trim=-1)


class TestClientSampling:
    def _run(self, tmp_path, threads, clients_per_round=2, n_clients=5):
        learners: dict[str, ToyLearner] = {}

        def factory(name):
            learners[name] = ToyLearner(name)
            return learners[name]

        from repro.flare import (
            Barrier,
            FederatedClient,
            FLServer,
            InTimeAccumulateWeightedAggregator,
            MessageBus,
            Provisioner,
            ScatterAndGather,
            default_project,
        )

        project = default_project(n_clients=n_clients, name="sample")
        kits = Provisioner(project, seed=0, key_bits=512).provision()
        bus = MessageBus()
        server = FLServer(kits["server"], bus, seed=0)
        clients = []
        for spec in project.clients:
            client = FederatedClient(kits[spec.name], factory(spec.name), bus)
            client.register(server)
            client.serve_in_thread()
            clients.append(client)
        controller = ScatterAndGather(
            server=server, client_names=[c.name for c in clients],
            initial_weights=toy_weights(),
            aggregator=InTimeAccumulateWeightedAggregator(),
            num_rounds=4, policy=Barrier(clients_per_round))
        try:
            stats = controller.run()
        finally:
            server.stop_clients([c.name for c in clients])
            for client in clients:
                client.stop()
        return stats, learners

    def test_each_round_uses_subset(self, tmp_path):
        stats, _ = self._run(tmp_path, threads=True)
        for record in stats.rounds:
            assert len(record.client_records) == 2

    def test_min_clients_defaults_to_sample_size(self, tmp_path):
        stats, _ = self._run(tmp_path, threads=True)
        assert stats.num_rounds == 4

    def test_sampling_varies_over_rounds(self, tmp_path):
        stats, learners = self._run(tmp_path, threads=True)
        participants_per_round = [sorted(c.client for c in r.client_records)
                                  for r in stats.rounds]
        assert len({tuple(p) for p in participants_per_round}) > 1

    def test_invalid_sample_size(self, tmp_path):
        from repro.flare import (
            Barrier,
            InTimeAccumulateWeightedAggregator,
            ScatterAndGather,
        )

        with pytest.raises(ValueError):
            ScatterAndGather(server=None, client_names=["a"],  # type: ignore[arg-type]
                             initial_weights=toy_weights(),
                             aggregator=InTimeAccumulateWeightedAggregator(),
                             policy=Barrier(clients_per_round=2))


class TestStragglerTolerance:
    def test_round_survives_missing_result(self, tmp_path):
        """A client that never answers must not hang the round forever."""

        def factory(name):
            return ToyLearner(name)

        from repro.flare import (
            FederatedClient,
            FLServer,
            InTimeAccumulateWeightedAggregator,
            MessageBus,
            Provisioner,
            ScatterAndGather,
            default_project,
        )

        project = default_project(n_clients=2, name="straggle")
        kits = Provisioner(project, seed=0, key_bits=512).provision()
        bus = MessageBus()
        server = FLServer(kits["server"], bus, seed=0)
        clients = []
        for index, spec in enumerate(project.clients):
            client = FederatedClient(kits[spec.name], factory(spec.name), bus)
            client.register(server)
            if index > 0:
                client.serve_in_thread()  # the first client never polls
            clients.append(client)
        controller = ScatterAndGather(
            server=server, client_names=[c.name for c in clients],
            initial_weights=toy_weights(),
            aggregator=InTimeAccumulateWeightedAggregator(),
            num_rounds=1, min_clients=1, result_timeout=2.0)
        try:
            stats = controller.run()
        finally:
            server.stop_clients([c.name for c in clients])
            for client in clients:
                client.stop()
        assert stats.num_rounds == 1
        assert len(stats.rounds[0].client_records) == 1


class TestStatsExport:
    def test_json_roundtrip(self, tmp_path):
        from repro.flare import RunStats

        job = FLJob(name="export", initial_weights=toy_weights(),
                    learner_factory=lambda name: ToyLearner(name), num_rounds=2)
        result = SimulatorRunner(job, n_clients=2, seed=0, run_dir=tmp_path,
                                 capture_log=False).run()
        path = result.stats.save_json(tmp_path / "stats.json")
        import json

        restored = RunStats.from_dict(json.loads(path.read_text()))
        assert restored.num_rounds == 2
        assert restored.rounds[0].client_records[0].num_steps == 10
        assert restored.messages_delivered == result.stats.messages_delivered
