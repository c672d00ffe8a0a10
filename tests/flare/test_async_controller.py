"""The round engine under ``Buffered``: async commits, staleness and
reproducibility (behaviours shared with ``Barrier`` live in
``test_round_engine.py``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flare import FLJob, SimulatorRunner, staleness_discount

from .helpers import ToyLearner, toy_weights


def async_job(**overrides) -> FLJob:
    defaults = dict(name="async", initial_weights=toy_weights(0.0),
                    learner_factory=lambda name: ToyLearner(name, delta=1.0),
                    num_rounds=3, mode="async", buffer_size=2, concurrency=4,
                    staleness_alpha=0.5)
    defaults.update(overrides)
    return FLJob(**defaults)


def run_job(job: FLJob, n_clients: int = 6, seed: int = 0):
    return SimulatorRunner(job, n_clients=n_clients, seed=seed,
                           threads=False, key_bits=128).run()


class TestStalenessDiscount:
    def test_fresh_updates_undiscounted(self):
        assert staleness_discount(0, 0.5) == 1.0

    def test_polynomial_decay(self):
        assert staleness_discount(1, 0.5) == pytest.approx(1 / np.sqrt(2))
        assert staleness_discount(3, 1.0) == pytest.approx(0.25)

    def test_alpha_zero_disables(self):
        assert staleness_discount(7, 0.0) == 1.0


class TestAsyncCommits:
    def test_every_window_commits_buffer_size_updates(self):
        result = run_job(async_job())
        assert result.stats.num_rounds == 3
        for record in result.stats.rounds:
            assert record.quorum_met
            assert len(record.client_records) == 2

    def test_staleness_observed_when_concurrency_exceeds_buffer(self):
        # 4 in flight, commits every 2: some updates must land >= 1 commit
        # after their dispatch, and the record keeps the count
        result = run_job(async_job())
        staleness = [c.staleness for r in result.stats.rounds
                     for c in r.client_records]
        assert max(staleness) >= 1
        assert min(staleness) == 0

    def test_same_seed_runs_are_bit_identical(self):
        a = run_job(async_job())
        b = run_job(async_job())
        for key in a.final_weights:
            assert np.array_equal(a.final_weights[key], b.final_weights[key])
        assert [c.staleness for r in a.stats.rounds for c in r.client_records] \
            == [c.staleness for r in b.stats.rounds for c in r.client_records]

    def test_discounted_fold_matches_closed_form(self):
        # one commit, buffer 2, concurrency 2: both updates are fresh, all
        # learners add +1 to a zero model, so the committed global is exactly 1
        result = run_job(async_job(num_rounds=1, buffer_size=2, concurrency=2))
        np.testing.assert_allclose(result.final_weights["layer.bias"],
                                   np.full(2, 1.0), rtol=1e-6)

    def test_peak_materialization_stays_constant(self):
        # streaming fold: only one decoded update is ever alive at a time,
        # regardless of cohort or buffer size
        result = run_job(async_job(buffer_size=4, concurrency=6), n_clients=12)
        assert result.stats.peak_materialized_updates == 1

    def test_bounded_concurrency(self):
        # no more than `concurrency` distinct sites hold a task per window
        result = run_job(async_job(num_rounds=1, buffer_size=2, concurrency=3))
        assert len(result.stats.rounds[0].client_records) <= 3


class TestAsyncFailureModes:
    def test_max_staleness_discards_old_updates(self):
        # max_staleness=0: stale updates are still received and recorded,
        # but never folded — every commit is a mean of fresh (+1) updates,
        # so the global advances by exactly 1 per commit; folding the v0
        # stragglers into window 1 would have pulled it below 2
        result = run_job(async_job(max_staleness=0, num_rounds=2))
        staleness = [c.staleness for r in result.stats.rounds
                     for c in r.client_records]
        assert max(staleness) >= 1
        np.testing.assert_allclose(result.final_weights["layer.bias"],
                                   np.full(2, 2.0), rtol=1e-6)

    def test_min_clients_cannot_exceed_buffer_size(self):
        with pytest.raises(ValueError, match="can never be met"):
            run_job(async_job(min_clients=5, buffer_size=2))


class TestAsyncStatsRoundTrip:
    def test_staleness_survives_json_round_trip(self):
        from repro.flare import RunStats

        stats = run_job(async_job()).stats
        clone = RunStats.from_dict(stats.to_dict())
        assert [c.staleness for r in clone.rounds for c in r.client_records] \
            == [c.staleness for r in stats.rounds for c in r.client_records]
        assert clone.peak_materialized_updates == stats.peak_materialized_updates
