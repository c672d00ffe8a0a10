"""The uniform cohort draw: determinism, pinned cohorts and quorum interplay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flare import FLJob, SimulatorRunner, UniformSampler

from .helpers import ToyLearner, toy_weights

CLIENTS = [f"site-{i}" for i in range(1, 13)]


class TestUniformSampler:
    def test_same_seed_same_round_is_deterministic(self):
        a = UniformSampler(seed=7).sample(CLIENTS, 5, round_number=3)
        b = UniformSampler(seed=7).sample(CLIENTS, 5, round_number=3)
        assert a == b

    def test_draw_is_stateless_across_call_history(self):
        # round-3 draw does not depend on which rounds were sampled before
        fresh = UniformSampler(seed=7)
        warmed = UniformSampler(seed=7)
        for r in range(3):
            warmed.sample(CLIENTS, 5, round_number=r)
        assert fresh.sample(CLIENTS, 5, 3) == warmed.sample(CLIENTS, 5, 3)

    def test_rounds_differ_and_seeds_differ(self):
        sampler = UniformSampler(seed=0)
        draws = {tuple(sampler.sample(CLIENTS, 4, r)) for r in range(8)}
        assert len(draws) > 1
        assert UniformSampler(seed=1).sample(CLIENTS, 4, 0) != \
            UniformSampler(seed=2).sample(CLIENTS, 4, 0)

    def test_preserves_registration_order_and_uniqueness(self):
        picks = UniformSampler(seed=3).sample(CLIENTS, 6, 0)
        assert len(set(picks)) == 6
        indices = [CLIENTS.index(name) for name in picks]
        assert indices == sorted(indices)

    def test_n_at_least_population_returns_everyone(self):
        assert UniformSampler(seed=0).sample(CLIENTS, len(CLIENTS), 0) == CLIENTS
        assert UniformSampler(seed=0).sample(CLIENTS, 99, 0) == CLIENTS

    def test_rejects_non_positive_n(self):
        with pytest.raises(ValueError, match="positive"):
            UniformSampler().sample(CLIENTS, 0, 0)

    @pytest.mark.parametrize("seed, n, wave, cohort", [
        (0, 3, 0, [5, 6, 8]),
        (0, 3, 1, [4, 7, 8]),
        (0, 5, 7, [1, 2, 4, 5, 6]),
        (7, 4, 3, [4, 6, 7, 8]),
        (42, 2, 11, [1, 4]),
        (3, 6, 0, [1, 2, 3, 5, 7, 8]),
        (1, 1, 5, [7]),
    ])
    def test_draw_is_pinned(self, seed, n, wave, cohort):
        # literal cohorts on 8 sites: Buffered refills draw through this, so
        # a different draw would change every async job's checkpoints
        sites = [f"site-{i}" for i in range(1, 9)]
        assert UniformSampler(seed=seed).sample(sites, n, wave) == \
            [f"site-{i}" for i in cohort]


class TestSamplingQuorumInterplay:
    """Satellite: sampled rounds × quorum/min_clients behaviour."""

    def test_min_clients_above_clients_per_round_rejected(self):
        job = FLJob(name="q", initial_weights=toy_weights(),
                    learner_factory=lambda name: ToyLearner(name),
                    num_rounds=1, clients_per_round=2, min_clients=3)
        with pytest.raises(ValueError, match="can never be met"):
            SimulatorRunner(job, n_clients=5, threads=False,
                            key_bits=128).run()

    def test_under_quorum_sampled_round_keeps_previous_global(self):
        # every site fails on round 1, so the sampled round-1 cohort yields
        # zero usable updates; with max_failed_rounds=1 the run keeps the
        # previous global and recovers at round 2
        job = FLJob(name="q", initial_weights=toy_weights(0.0),
                    learner_factory=lambda name: ToyLearner(
                        name, delta=1.0, fail_on_round=1),
                    num_rounds=3, clients_per_round=3, min_clients=2,
                    max_failed_rounds=1)
        result = SimulatorRunner(job, n_clients=8, seed=0, threads=False,
                                 key_bits=128).run()
        quorum = [r.quorum_met for r in result.stats.rounds]
        assert quorum == [True, False, True]
        # global advanced by delta exactly twice (rounds 0 and 2)
        np.testing.assert_allclose(
            result.final_weights["layer.bias"], np.full(2, 2.0), rtol=1e-6)
        assert result.stats.rounds[1].dropped_clients  # sampled sites dropped

    def test_sampled_run_tasks_exactly_clients_per_round(self):
        job = FLJob(name="q", initial_weights=toy_weights(),
                    learner_factory=lambda name: ToyLearner(name),
                    num_rounds=4, clients_per_round=3)
        result = SimulatorRunner(job, n_clients=8, seed=0, threads=False,
                                 key_bits=128).run()
        for record in result.stats.rounds:
            assert len(record.client_records) == 3
            assert record.quorum_met

    def test_controller_truncates_participant_log(self):
        # satellite pin: at scale the sampled-cohort log line stays short
        job = FLJob(name="q", initial_weights=toy_weights(),
                    learner_factory=lambda name: ToyLearner(name),
                    num_rounds=1, clients_per_round=10)
        result = SimulatorRunner(job, n_clients=12, seed=0, threads=False,
                                 key_bits=128).run()
        sampled = [line for line in result.log_text.splitlines()
                   if "sampled 10/12 clients" in line]
        assert sampled and "… and 2 more" in sampled[0]
