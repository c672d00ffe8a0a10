"""Massive-cohort benchmarks: hierarchical fan-in and async wall-clock.

Two families of measurements:

- ``test_fanin_weighted`` / ``test_fanin_median`` time a single aggregation
  fold over a synthetic cohort of updates, flat vs :class:`TreeAggregator`.
  The weighted family shows the tree's overhead on the in-place streaming
  fold is modest; the median family (which must stash updates) shows the
  tree caps peak materialized updates at O(arity * depth) instead of O(n).
- ``test_cohort_round`` runs a full simulated federation — sync sampled
  rounds vs the FedBuff-style buffered commit policy — and attaches wall-clock,
  wire traffic and the peak-materialization high-water mark.

The 1,000-site gated run (bounded materialization + peak RSS + registry
diff) is ``python -m repro.smoke cohort``; these benchmarks time the same
mechanisms under pytest-benchmark.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flare import (
    DXO,
    CoordinateMedianAggregator,
    DataKind,
    FLContext,
    FLJob,
    InTimeAccumulateWeightedAggregator,
    Learner,
    MaterializationTracker,
    MetaKey,
    SimulatorRunner,
    TreeAggregator,
)

from .conftest import run_once

ARITY = 8

# scale.name -> synthetic-cohort sizes for the fan-in fold and the simulated
# federation (the paper's cohort is sites*patients; here "cohort" means sites)
SIZES = {
    "smoke": {"fanin_updates": 96, "clients": 24},
    "bench": {"fanin_updates": 384, "clients": 48},
    "paper": {"fanin_updates": 1000, "clients": 200},
}

FANIN_DIM = 128  # one 128x128 fp32 tensor per update (~64 KiB)


def make_updates(n: int) -> list[DXO]:
    return [
        DXO(data_kind=DataKind.WEIGHTS,
            data={"w": np.full((FANIN_DIM, FANIN_DIM), float(i),
                               dtype=np.float32)},
            meta={MetaKey.NUM_STEPS_CURRENT_ROUND: 1 + i % 7})
        for i in range(n)
    ]


def fold(agg, updates):
    ctx = FLContext()
    agg.reset()
    for i, dxo in enumerate(updates):
        agg.accept(dxo, f"site-{i}", ctx)
    return agg.aggregate(ctx)


# ---------------------------------------------------------------------------
# fan-in fold: flat vs arity-8 reduction tree
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["flat", "tree"])
def test_fanin_weighted(benchmark, scale, mode):
    n = SIZES[scale.name]["fanin_updates"]
    updates = make_updates(n)
    if mode == "flat":
        agg = InTimeAccumulateWeightedAggregator()
    else:
        agg = TreeAggregator(arity=ARITY)
    agg.tracker = MaterializationTracker()

    result = benchmark(fold, agg, updates)

    reference = fold(InTimeAccumulateWeightedAggregator(), updates)
    np.testing.assert_allclose(result.data["w"], reference.data["w"],
                               rtol=1e-5)
    benchmark.extra_info.update({
        "family": "weighted", "mode": mode, "n_updates": n, "arity": ARITY,
        "peak_materialized": agg.tracker.peak,
        "depth": getattr(agg, "depth", 1),
    })


@pytest.mark.parametrize("mode", ["flat", "tree"])
def test_fanin_median(benchmark, scale, mode):
    # the robust aggregator must stash updates until the fold; flat keeps
    # all n alive at once, the tree folds subtrees eagerly
    n = SIZES[scale.name]["fanin_updates"]
    updates = make_updates(n)
    if mode == "flat":
        agg = CoordinateMedianAggregator()
    else:
        agg = TreeAggregator(arity=ARITY,
                             node_factory=CoordinateMedianAggregator)
    agg.tracker = MaterializationTracker()

    benchmark(fold, agg, updates)

    peak = agg.tracker.peak
    if mode == "flat":
        assert peak >= n
    else:
        assert peak < n // 4
    benchmark.extra_info.update({
        "family": "median", "mode": mode, "n_updates": n, "arity": ARITY,
        "peak_materialized": peak,
        "depth": getattr(agg, "depth", 1),
    })


# ---------------------------------------------------------------------------
# full simulated round: sync sampled cohort vs FedBuff-style async
# ---------------------------------------------------------------------------
class DeltaLearner(Learner):
    """Instant deterministic learner so the benchmark measures the runtime
    (dispatch, transport, fold), not the optimizer."""

    def __init__(self, site_name: str) -> None:
        super().__init__(name="DeltaLearner")
        self.site_name = site_name
        index = int(site_name.rsplit("-", 1)[-1])
        self.delta = 0.001 * (1 + index % 13)
        self.steps = 1 + index % 7

    def train(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        updated = {key: np.asarray(value) + np.float32(self.delta)
                   for key, value in dxo.data.items()}
        return DXO(DataKind.WEIGHTS, data=updated,
                   meta={MetaKey.NUM_STEPS_CURRENT_ROUND: self.steps})


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_cohort_round(benchmark, tmp_path, scale, mode):
    n_clients = SIZES[scale.name]["clients"]
    commits = 3
    weights = {"dense.weight": np.zeros((64, 64), dtype=np.float32)}
    common = dict(name=f"cohort-{mode}", initial_weights=weights,
                  learner_factory=DeltaLearner, num_rounds=commits,
                  sampling_seed=0)
    if mode == "sync":
        job = FLJob(clients_per_round=8, **common)
    else:
        job = FLJob(mode="async", buffer_size=8, concurrency=16,
                    staleness_alpha=0.5, **common)

    def run():
        return SimulatorRunner(job, n_clients=n_clients, seed=0,
                               run_dir=tmp_path / mode, capture_log=False,
                               threads=False, key_bits=128).run()

    result = run_once(benchmark, run)
    stats = result.stats
    staleness = [c.staleness for r in stats.rounds for c in r.client_records]
    assert all(r.quorum_met for r in stats.rounds)
    benchmark.extra_info.update({
        "mode": mode,
        "clients": n_clients,
        "commits": commits,
        "updates_per_commit": 8,
        "bytes_delivered": stats.bytes_delivered,
        "peak_materialized_updates": stats.peak_materialized_updates,
        "staleness_max": max(staleness, default=0),
        "round_seconds_mean": float(np.mean([r.seconds
                                             for r in stats.rounds])),
    })
