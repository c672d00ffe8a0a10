"""The smoke runner: CI's matrix covers its scenarios, and one runs here."""

from __future__ import annotations

from pathlib import Path

import yaml

from repro.smoke import SCENARIOS, main

CI = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def test_ci_matrix_runs_every_scenario():
    jobs = yaml.safe_load(CI.read_text())["jobs"]
    assert jobs["smoke"]["strategy"]["matrix"]["scenario"] == list(SCENARIOS)


def test_health_scenario_holds_against_the_baseline(tmp_path, capsys):
    assert main(["health", "--run-dir", str(tmp_path / "health")]) == 0
    out = capsys.readouterr().out
    assert "REGRESSION alerts_critical" in out  # the diverging run's diff
    assert (tmp_path / "health" / "dirty" / "health.jsonl").exists()
