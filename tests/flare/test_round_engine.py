"""The round engine's admission pipeline and quorum close-out: each
behaviour asserted by one test body, under both commit policies.

Everything runs on the sequential drive (``threads=False``), so both
policies are deterministic; a ``Buffered`` window that cannot fill spins
until ``result_timeout``, hence the short timeout.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flare import DXO, FLJob, SimulatorRunner
from repro.obs import HealthMonitor

from .helpers import ToyLearner, toy_weights

POLICIES = {
    "barrier": dict(mode="sync"),
    "buffered": dict(mode="async", buffer_size=2, concurrency=3),
}


@pytest.fixture(params=sorted(POLICIES))
def policy(request) -> dict:
    return POLICIES[request.param]


def run(policy: dict, learner_factory=ToyLearner, *, n_clients: int = 3,
        health=False, **overrides):
    options = dict(name="engine", initial_weights=toy_weights(0.0),
                   learner_factory=learner_factory, num_rounds=3,
                   min_clients=2, result_timeout=0.3)
    options.update(policy)
    options.update(overrides)
    return SimulatorRunner(FLJob(**options), n_clients=n_clients, seed=0,
                           threads=False, key_bits=128, capture_log=False,
                           health=health).run()


class Offline(ToyLearner):
    def train(self, dxo: DXO, fl_ctx) -> DXO:
        raise RuntimeError("site offline")


class Poisoner(ToyLearner):
    """One fold of this update would sink the global model below zero."""

    def train(self, dxo: DXO, fl_ctx) -> DXO:
        result = super().train(dxo, fl_ctx)
        result.data = {key: np.asarray(value) - 50.0
                       for key, value in dxo.data.items()}
        return result


class QuarantineSite3(HealthMonitor):
    def is_quarantined(self, client, round_number=None) -> bool:
        return client == "site-3"


def test_non_ok_reply_is_skipped_and_its_sender_dropped(policy):
    result = run(policy, lambda name: (Offline if name == "site-1"
                                       else ToyLearner)(name))
    for record in result.stats.rounds:
        assert record.quorum_met
        assert "site-1" in record.dropped_clients
        assert "site-1" not in [c.client for c in record.client_records]
    assert np.all(result.final_weights["layer.bias"] > 0)


def test_quarantined_site_is_recorded_but_neither_folded_nor_counted(policy):
    def factory(name):
        return (Poisoner if name == "site-3" else ToyLearner)(name)

    result = run(policy, factory, health=QuarantineSite3(), num_rounds=2)
    stats = result.stats
    assert all(record.quorum_met for record in stats.rounds)
    assert "site-3" in [c.client for r in stats.rounds for c in r.client_records]
    assert "site-3" in stats.quarantined_clients
    assert "site-3" not in stats.dropped_clients
    assert np.all(result.final_weights["layer.bias"] > 0)
    # with every site needed for quorum, the quarantined one does not count
    with pytest.raises(RuntimeError,
                       match=r"only 2 usable results \(min_clients=3\)"):
        run(policy, factory, health=QuarantineSite3(), min_clients=3,
            buffer_size=3)


def test_under_quorum_streak_is_tolerated_then_aborts(policy):
    # every task dispatched in window 1 fails
    quiet = dict(n_clients=2, concurrency=2, max_failed_rounds=1)
    result = run(policy, lambda name: ToyLearner(name, fail_on_round=1), **quiet)
    stats = result.stats
    assert [record.quorum_met for record in stats.rounds] == [True, False, True]
    assert stats.failed_rounds == 1
    assert "site-2" in stats.rounds[1].dropped_clients
    # window 1 kept the previous global; windows 0 and 2 advanced it
    np.testing.assert_array_equal(result.final_weights["layer.bias"],
                                  np.full(2, 2.0, dtype=np.float32))

    class OfflineFromRoundOne(ToyLearner):
        def train(self, dxo: DXO, fl_ctx) -> DXO:
            if int(fl_ctx.get_prop("current_round", 0)) >= 1:
                raise RuntimeError("site offline")
            return super().train(dxo, fl_ctx)

    with pytest.raises(RuntimeError, match=r"only 0 usable results "
                       r"\(min_clients=2\) after 2 consecutive under-quorum"):
        run(policy, OfflineFromRoundOne, num_rounds=5, **quiet)


def test_run_stats_totals_are_filled(policy):
    stats = run(policy).stats
    assert stats.num_rounds == 3
    assert stats.messages_delivered > 0
    assert stats.retries == 0 and stats.duplicates_dropped == 0
    assert 0 < sum(r.bytes_on_wire for r in stats.rounds) <= stats.bytes_delivered
    # streaming fold: one decoded update alive at a time
    assert stats.peak_materialized_updates == 1
