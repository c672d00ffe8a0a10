"""Acceptance e2e: a seeded diverging client is named, and runs diff sees it.

Mirrors the ``health`` smoke scenario: one clean run and one run with an
injected diverging client, both with telemetry+health on, then a registry
diff whose verdict must be nonzero.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.flare import DXO, FLJob, SimulatorRunner
from repro.obs import HealthMonitor
from repro.obs.health import DivergingClientDetector, default_detectors
from repro.obs.registry import diff_runs
from repro.obs.report import main as obs_main

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from flare.helpers import ToyLearner, toy_weights  # noqa: E402


BAD_SITE = "site-2"


class InjectedDivergingLearner(ToyLearner):
    def train(self, dxo: DXO, fl_ctx) -> DXO:
        result = super().train(dxo, fl_ctx)
        if self.site_name == BAD_SITE:
            result.data = {k: np.asarray(v) - 40.0
                           for k, v in dxo.data.items()}
        return result


def run_sim(run_dir, learner_cls, rounds=3):
    job = FLJob(name="health-e2e", initial_weights=toy_weights(),
                learner_factory=lambda name: learner_cls(name, delta=1.0)
                if learner_cls is ToyLearner else learner_cls(name),
                num_rounds=rounds, min_clients=2)
    runner = SimulatorRunner(job, n_clients=4, seed=0, run_dir=run_dir,
                             telemetry=True,
                             health=HealthMonitor(
                                 run_dir=run_dir,
                                 detectors=default_detectors()))
    return runner.run()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("health-e2e")
    clean = run_sim(base / "clean", ToyLearner)
    dirty = run_sim(base / "dirty", InjectedDivergingLearner)
    return base, clean, dirty


class TestDivergingClientIsNamed:
    def test_alert_in_runstats_names_client_and_round(self, runs):
        _, _, dirty = runs
        diverging = [a for a in dirty.stats.alerts
                     if a.detector == "diverging-client"]
        assert diverging, "injected divergence must raise an alert"
        assert all(a.client == BAD_SITE for a in diverging)
        assert {a.round_number for a in diverging} <= {0, 1, 2}
        # escalation to critical once persistent
        assert any(a.severity == "critical" for a in diverging)

    def test_alert_in_health_jsonl_names_client(self, runs):
        _, _, dirty = runs
        lines = [json.loads(line) for line in
                 (dirty.run_dir / "health.jsonl").read_text().splitlines()]
        alerts = [l for l in lines if l.get("event") == "alert"
                  and l.get("detector") == "diverging-client"]
        assert alerts
        assert {a["client"] for a in alerts} == {BAD_SITE}
        rounds = [l for l in lines if l.get("event") == "round"]
        assert len(rounds) == 3
        assert BAD_SITE in rounds[0]["clients"]

    def test_clean_run_has_no_diverging_alerts(self, runs):
        _, clean, _ = runs
        assert not [a for a in clean.stats.alerts
                    if a.detector == "diverging-client"]


class TestRunsDiffVerdict:
    def test_diff_vs_clean_baseline_is_nonzero(self, runs):
        base, clean, dirty = runs
        report = diff_runs(clean.run_dir, dirty.run_dir,
                           dimensions=["alerts"])
        assert report.exit_code == 2
        regressed = {line.dimension for line in report.regressions}
        assert "alerts_critical" in regressed or "alerts_warning" in regressed

    def test_cli_exit_code_matches(self, runs, capsys):
        base, clean, dirty = runs
        code = obs_main(["runs", "diff", str(clean.run_dir),
                         str(dirty.run_dir), "--root", str(base),
                         "--dimensions", "alerts"])
        assert code == 2
        assert "REGRESSION" in capsys.readouterr().out

    def test_self_diff_is_clean(self, runs):
        _, clean, _ = runs
        assert diff_runs(clean.run_dir, clean.run_dir).exit_code == 0


class TestArtifactsWiredThroughStats:
    def test_stats_points_at_health_artifact(self, runs):
        _, _, dirty = runs
        assert "health" in dirty.stats.telemetry
        stats_json = json.loads((dirty.run_dir / "stats.json").read_text())
        assert stats_json.get("alerts"), "alerts must survive stats.json"
