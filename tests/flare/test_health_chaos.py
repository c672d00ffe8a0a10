"""Chaos suite for the health monitor: detectors must fire under injection.

The fault plans reuse the seeded ``MessageBus(fault_plan=...)`` machinery, so
every scenario is reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flare import DXO, DataKind, FLJob, MetaKey, SimulatorRunner
from repro.flare.faults import FaultPlan
from repro.flare.stats import RunStats
from repro.obs import HealthMonitor
from repro.obs.health import DivergingClientDetector, StragglerDetector
from repro.obs.rundir import HEALTH_FILE, read_records

from .helpers import ToyLearner, toy_weights

pytestmark = pytest.mark.chaos


class DivergingLearner(ToyLearner):
    """Honest ToyLearner everywhere except one site pulling hard backwards."""

    def __init__(self, site_name: str, bad_site: str = "site-3",
                 magnitude: float = 50.0) -> None:
        super().__init__(site_name, delta=1.0)
        self.bad_site = bad_site
        self.magnitude = magnitude

    def train(self, dxo: DXO, fl_ctx) -> DXO:
        result = super().train(dxo, fl_ctx)
        if self.site_name == self.bad_site:
            result.data = {k: np.asarray(v) - self.magnitude
                           for k, v in dxo.data.items()}
        return result


def run_job(learner_factory, *, n_clients=4, num_rounds=3, monitor=None,
            fault_plan=None, run_dir=None):
    job = FLJob(name="health-chaos", initial_weights=toy_weights(),
                learner_factory=learner_factory, num_rounds=num_rounds,
                min_clients=2)
    runner = SimulatorRunner(job, n_clients=n_clients, seed=0,
                             run_dir=run_dir, fault_plan=fault_plan,
                             health=monitor if monitor is not None else True)
    return runner.run()


class TestStragglerUnderInjection:
    def test_injected_transport_delay_raises_straggler_alert(self, tmp_path):
        plan = FaultPlan(seed=7, stragglers={"site-2": 0.25})
        monitor = HealthMonitor(
            run_dir=tmp_path,
            detectors=[StragglerDetector(ratio=3.0, min_seconds=0.05)])
        result = run_job(lambda name: ToyLearner(name, delta=1.0),
                         monitor=monitor, fault_plan=plan, run_dir=tmp_path)
        stragglers = [a for a in result.stats.alerts
                      if a.detector == "straggler"]
        assert stragglers, "injected 0.25s delay must trip the detector"
        assert {a.client for a in stragglers} == {"site-2"}


class TestDivergingUnderInjection:
    def test_diverging_client_flagged_with_right_identity(self, tmp_path):
        monitor = HealthMonitor(
            run_dir=tmp_path,
            detectors=[DivergingClientDetector(persist=2)])
        result = run_job(lambda name: DivergingLearner(name),
                         monitor=monitor, run_dir=tmp_path)
        diverging = [a for a in result.stats.alerts
                     if a.detector == "diverging-client"]
        assert diverging
        assert {a.client for a in diverging} == {"site-3"}
        # escalates: round 0 warning, persistent rounds critical
        severities = {a.round_number: a.severity for a in diverging}
        assert severities[0] == "warning"
        assert severities[2] == "critical"

    def test_detection_survives_a_lossy_bus(self, tmp_path):
        plan = FaultPlan(seed=3, drop_prob=0.05, duplicate_prob=0.05)
        monitor = HealthMonitor(
            run_dir=tmp_path,
            detectors=[DivergingClientDetector(persist=2)])
        result = run_job(lambda name: DivergingLearner(name),
                         monitor=monitor, fault_plan=plan, run_dir=tmp_path,
                         num_rounds=4)
        flagged = {a.client for a in result.stats.alerts
                   if a.detector == "diverging-client"}
        assert flagged == {"site-3"}


class TestQuarantineRoundTrip:
    def test_quarantine_and_readmission_through_runstats(self, tmp_path):
        monitor = HealthMonitor(
            run_dir=tmp_path,
            detectors=[DivergingClientDetector(persist=2)],
            quarantine_after=2, quarantine_rounds=2)
        result = run_job(lambda name: DivergingLearner(name),
                         monitor=monitor, run_dir=tmp_path, num_rounds=6)
        stats = result.stats
        assert "site-3" in stats.quarantined_clients
        quarantined_rounds = [r.round_number for r in stats.rounds
                              if "site-3" in r.quarantined_clients]
        assert quarantined_rounds, "some rounds must record the exclusion"
        # the excluded client must not block quorum for honest clients
        assert all(r.quorum_met for r in stats.rounds)

        # full serialization round-trip: alerts + per-round quarantine
        clone = RunStats.from_dict(stats.to_dict())
        assert [a.to_dict() for a in clone.alerts] == \
            [a.to_dict() for a in stats.alerts]
        assert clone.quarantined_clients == stats.quarantined_clients
        assert any(a.detector == "quarantine" and a.severity == "critical"
                   for a in clone.alerts)

    def test_readmitted_client_contributes_again(self, tmp_path):
        # misbehaves in rounds 0-1 only; after the 2-round sentence it is
        # re-admitted and its contributions count again
        class Recovering(DivergingLearner):
            def train(self, dxo, fl_ctx):
                round_number = int(fl_ctx.get_prop("current_round", 0))
                if round_number >= 2:
                    return ToyLearner.train(self, dxo, fl_ctx)
                return DivergingLearner.train(self, dxo, fl_ctx)

        monitor = HealthMonitor(
            run_dir=tmp_path,
            detectors=[DivergingClientDetector(persist=2)],
            quarantine_after=2, quarantine_rounds=2)
        result = run_job(lambda name: Recovering(name), monitor=monitor,
                         run_dir=tmp_path, num_rounds=6)
        readmissions = [a for a in result.stats.alerts
                        if a.detector == "quarantine" and a.severity == "info"]
        assert readmissions and readmissions[0].client == "site-3"
        assert monitor.quarantined_clients == []
        last_round = result.stats.rounds[-1]
        assert "site-3" not in last_round.quarantined_clients


def test_monitor_without_run_dir_writes_the_runners_health_file(tmp_path):
    """A monitor passed in without a run dir adopts the runner's, so
    ``repro.obs tail`` / ``report`` see its rounds and alerts."""
    monitor = HealthMonitor(quarantine_after=1)
    result = run_job(lambda name: DivergingLearner(name), monitor=monitor,
                     run_dir=tmp_path)
    assert monitor.run_dir == tmp_path
    records = read_records(tmp_path / HEALTH_FILE)
    events = [record.get("event") for record in records]
    assert events.count("round") == 3
    alerts = [record for record in records if record.get("event") == "alert"]
    assert alerts and len(alerts) == len(result.stats.alerts)
    assert any(a["detector"] == "quarantine" and a["client"] == "site-3"
               for a in alerts)
