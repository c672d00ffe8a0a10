"""The `python -m repro.experiments` CLI."""

from __future__ import annotations

import pytest

from repro.experiments.__main__ import main


def test_table3_smoke(capsys):
    code = main(["table3", "--scale", "smoke"])
    out = capsys.readouterr().out
    assert "Table III" in out
    assert code in (0, 1)  # shape checks may not all hold at smoke scale


def test_fig3_smoke(capsys):
    code = main(["fig3", "--scale", "smoke"])
    out = capsys.readouterr().out
    assert "sec/local epoch" in out
    assert code == 0  # transcript stages must always be present


def test_ablations_smoke(capsys):
    code = main(["ablations", "--scale", "smoke"])
    out = capsys.readouterr().out
    for table in ("privacy filters", "site-8 corrupted", "dataset size"):
        assert f"Ablation — {table}" in out
    assert code in (0, 1)  # like table3, the checks need not hold at smoke scale


def test_unknown_artifact_rejected():
    with pytest.raises(SystemExit):
        main(["fig9"])


def test_unknown_scale_rejected():
    with pytest.raises(SystemExit):
        main(["table3", "--scale", "galactic"])
