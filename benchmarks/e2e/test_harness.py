"""Harness self-test at a reduced scale (320 patients, a third of the rounds).

Not collected by tier-1 (``testpaths = ["tests"]``); run it by hand after
touching the benchmark::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q

It checks the instrument, not the program's speed: every metric named in
``BENCHMARK.json`` is printed once with its unit, names are well formed,
the spans add up and come from every worker, and ``compare`` of a result
file with itself is all ok.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

import pytest

from benchmarks.e2e import compare, run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
SECONDS, PATIENTS = 10, 320


@pytest.fixture(scope="module")
def reports() -> dict[tuple[str, int], dict]:
    return {(name, trace): run.measure(name, seed=5, seconds=SECONDS, trace=trace,
                                       patients=PATIENTS)
            for name in WORKLOADS for trace in (0, 1)}


def printed(report: dict) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run.print_report(report)
    return buffer.getvalue()


def test_spec_names_are_well_formed():
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[section]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert any(entry["name"] == "setup_s" for entry in SPEC["end_to_end"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_runs_are_correct(reports, name):
    for trace in (0, 1):
        assert reports[name, trace]["problems"] == []
        assert reports[name, trace]["failed"] == 0


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_spec_metric_printed_once_with_its_unit(reports, name, trace, section):
    text = printed(reports[name, trace])
    for entry in SPEC[section]:
        lines = [line for line in text.splitlines()
                 if line.split()[:1] == [entry["name"]]]
        assert len(lines) == 1, entry["name"]
        assert lines[0].split()[2] == entry["unit"], entry["name"]
        assert reports[name, trace][section][entry["name"]]["unit"] == entry["unit"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_spans_cover_the_round_and_every_worker(reports, name):
    layers = reports[name, 1]["per_layer"]
    if name not in compare.ASYNC_WORKLOADS:
        assert layers["controller.round_coverage"]["value"] >= 0.95
        # one span file per forked worker, all eight present
        assert layers["trace.span_processes"]["value"] == 8
    assert layers["training.train_calls"]["value"] >= layers[
        "aggregators.accept_calls"]["value"] > 0


def test_sync_checkpoints_survive_tracing(reports):
    for name in set(WORKLOADS) - set(compare.ASYNC_WORKLOADS):
        assert reports[name, 0]["digest"] == reports[name, 1]["digest"]


def test_compare_with_itself_is_all_ok(reports, tmp_path, capsys):
    path = tmp_path / "results.json"
    path.write_text(json.dumps({"runs": list(reports.values())}))
    assert compare.main([str(path), str(path)]) == 0
    assert "0 regression, 0 unresolved" in capsys.readouterr().out
