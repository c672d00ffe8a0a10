"""Deterministic chaos suite: full simulator runs over a faulty bus.

The acceptance scenario from the fault-injection issue: 8 clients with
drop_prob=0.2, one crashed site and two stragglers must complete every round
via partial aggregation, report the dropped sites and retry counts in
``RunStats``, and reproduce bit-identical final weights across runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flare import DXO, DataKind, FaultPlan, FLJob, MetaKey, SimulatorRunner
from repro.obs import metrics as obs_metrics

from .helpers import ToyLearner, toy_weights

pytestmark = pytest.mark.chaos

# The issue's reference chaos scenario: lossy links, one dead site, two slow
# ones.  Kept fast (tiny straggler delays) so the suite stays well under 60s.
CHAOS_PLAN = FaultPlan(
    seed=7,
    drop_prob=0.2,
    duplicate_prob=0.1,
    crashed_clients=("site-3",),
    stragglers={"site-5": 0.05, "site-7": 0.05},
)


def chaos_job(num_rounds: int = 3, **kw) -> FLJob:
    kw.setdefault("min_clients", 4)
    kw.setdefault("result_timeout", 10.0)
    return FLJob(name="chaos", initial_weights=toy_weights(0.0),
                 learner_factory=lambda name: ToyLearner(name, delta=1.0),
                 num_rounds=num_rounds, **kw)


def run_chaos(tmp_dir, plan=CHAOS_PLAN, num_rounds: int = 3, **kw):
    return SimulatorRunner(chaos_job(num_rounds, **kw), n_clients=8, seed=0,
                           run_dir=tmp_dir, capture_log=False,
                           fault_plan=plan).run()


class TestChaosScenario:
    def test_completes_all_rounds_via_partial_aggregation(self, tmp_path):
        result = run_chaos(tmp_path)
        assert result.stats.num_rounds == 3
        assert all(record.quorum_met for record in result.stats.rounds)
        # partial aggregation: the crashed site never contributes
        for record in result.stats.rounds:
            assert len(record.client_records) < 8

    def test_converges_to_clean_run_weights_when_quorum_holds(self, tmp_path):
        chaos = run_chaos(tmp_path / "chaos")
        clean = SimulatorRunner(chaos_job(), n_clients=8, seed=0,
                                run_dir=tmp_path / "clean",
                                capture_log=False).run()
        # every ToyLearner applies the same +delta, so FedAvg over any quorum
        # equals the full average and the chaos run must match exactly
        for key, value in clean.final_weights.items():
            assert np.array_equal(chaos.final_weights[key], value)

    def test_reports_dropped_clients_and_retries(self, tmp_path):
        result = run_chaos(tmp_path)
        assert "site-3" in result.stats.dropped_clients
        for record in result.stats.rounds:
            assert "site-3" in record.dropped_clients
        # the server re-sends to the crashed site every round, so retries
        # must have been recorded
        assert result.stats.retries > 0
        payload = result.stats.to_dict()
        assert payload["dropped_clients"] == result.stats.dropped_clients
        assert payload["retries"] == result.stats.retries

    def test_bit_identical_weights_across_same_seed_runs(self, tmp_path):
        first = run_chaos(tmp_path / "a")
        second = run_chaos(tmp_path / "b")
        assert set(first.final_weights) == set(second.final_weights)
        for key, value in first.final_weights.items():
            assert np.array_equal(second.final_weights[key], value)
        assert first.stats.dropped_clients == second.stats.dropped_clients


class TestDuplicatesAndQuorum:
    def test_duplicated_messages_counted_once(self, tmp_path):
        plan = FaultPlan(seed=3, duplicate_prob=1.0)
        job = chaos_job(num_rounds=2, min_clients=2)
        result = SimulatorRunner(job, n_clients=2, seed=0, run_dir=tmp_path,
                                 capture_log=False, fault_plan=plan).run()
        # every envelope was sent twice; dedup keeps each contribution single
        for record in result.stats.rounds:
            assert len(record.client_records) == 2
        np.testing.assert_allclose(result.final_weights["layer.weight"], 2.0)

    def test_under_quorum_round_keeps_model_and_continues(self, tmp_path):
        job = FLJob(name="quorum", initial_weights=toy_weights(0.0),
                    learner_factory=lambda n: ToyLearner(n, fail_on_round=1),
                    num_rounds=3, max_failed_rounds=1, result_timeout=10.0)
        result = SimulatorRunner(job, n_clients=2, seed=0, run_dir=tmp_path,
                                 capture_log=False).run()
        stats = result.stats
        assert stats.num_rounds == 3
        assert [r.quorum_met for r in stats.rounds] == [True, False, True]
        assert stats.failed_rounds == 1
        assert stats.rounds[1].dropped_clients == ["site-1", "site-2"]
        # round 1 kept the previous global model; rounds 0 and 2 advanced it
        np.testing.assert_allclose(result.final_weights["layer.weight"], 2.0)

    def test_aborts_after_consecutive_under_quorum_rounds(self, tmp_path):
        class FailFromRoundOne(ToyLearner):
            def train(self, dxo: DXO, fl_ctx) -> DXO:
                if int(fl_ctx.get_prop("current_round", 0)) >= 1:
                    raise RuntimeError("site offline")
                return super().train(dxo, fl_ctx)

        job = FLJob(name="abort", initial_weights=toy_weights(0.0),
                    learner_factory=FailFromRoundOne, num_rounds=5,
                    max_failed_rounds=1, result_timeout=10.0)
        with pytest.raises(RuntimeError, match="usable results"):
            SimulatorRunner(job, n_clients=2, seed=0, run_dir=tmp_path,
                            capture_log=False).run()


class TestLateReplies:
    def test_reply_to_an_abandoned_task_is_never_folded(self, tmp_path):
        """site-3 answers every task one round late.  Its reply to round r
        (trained on global r) used to be dequeued by round r+1, counted
        toward quorum and FedAvg'd beside three fresh updates (final bias
        3.3125 instead of 4)."""
        job = chaos_job(num_rounds=4, min_clients=3, result_timeout=0.3)
        registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_registry(registry)
        try:
            result = SimulatorRunner(
                job, n_clients=4, seed=0, run_dir=tmp_path, capture_log=False,
                fault_plan=FaultPlan(stragglers={"site-3": 0.6})).run()
        finally:
            obs_metrics.set_registry(previous)
        for value in result.final_weights.values():
            assert np.array_equal(value, np.full_like(value, 4.0))
        for record in result.stats.rounds:
            assert record.dropped_clients == ["site-3"]
            senders = [c.client for c in record.client_records]
            assert len(senders) == len(set(senders))
        assert registry.counter("federation.late_results").value >= 1


class TestFaultPlanValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="drop_prob"):
            FaultPlan(drop_prob=1.5)
        with pytest.raises(ValueError, match="corrupt_prob"):
            FaultPlan(corrupt_prob=-0.1)

    def test_negative_delays_rejected(self):
        with pytest.raises(ValueError, match="max_delay"):
            FaultPlan(max_delay=-1.0)
        with pytest.raises(ValueError, match="straggler"):
            FaultPlan(stragglers={"site-1": -0.5})

    def test_decisions_are_deterministic(self):
        plan_a = FaultPlan(seed=11, drop_prob=0.5)
        plan_b = FaultPlan(seed=11, drop_prob=0.5)
        keys = [f"s|r|train|{i}|0" for i in range(50)]
        assert [plan_a.unit("drop", k) for k in keys] == \
               [plan_b.unit("drop", k) for k in keys]
        assert any(plan_a.unit("drop", k) < 0.5 for k in keys)
        assert any(plan_a.unit("drop", k) >= 0.5 for k in keys)
