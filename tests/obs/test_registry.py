"""Run registry: summaries, name resolution, diff verdicts, CLI exit codes."""

from __future__ import annotations

import json

import pytest

from repro.obs.registry import (
    DiffThresholds,
    RunRegistry,
    diff_runs,
    render_diff,
    render_list,
    render_show,
    summarize_run,
)
from repro.obs.report import main as obs_main


def make_run(path, *, acc=0.8, bytes_per_round=1000, critical=0, warning=0,
             step_p50=0.01):
    """A minimal but schema-correct run directory."""
    path.mkdir(parents=True, exist_ok=True)
    rounds = [{"round_number": r, "bytes_on_wire": bytes_per_round,
               "seconds": 0.1, "global_metrics": {"valid_acc": acc}}
              for r in range(3)]
    (path / "stats.json").write_text(json.dumps(
        {"rounds": rounds, "failed_rounds": 0, "dropped_clients": []}))
    (path / "metrics.json").write_text(json.dumps({
        "schema": "repro.obs.metrics/v1", "counters": [], "gauges": [],
        "histograms": [
            {"name": "train.step_seconds", "tags": {"objective": "classifier"},
             "count": 10, "p50": step_p50},
            {"name": "federation.round_bytes", "tags": {},
             "count": 3, "p50": bytes_per_round},
        ]}))
    lines = [json.dumps({"schema": "repro.obs.health/v1"})]
    for r in range(3):
        lines.append(json.dumps({"event": "round", "round_number": r,
                                 "clients": {}, "quarantined": []}))
    for i in range(critical):
        lines.append(json.dumps({"event": "alert", "detector": "nan-update",
                                 "severity": "critical", "round_number": i}))
    for i in range(warning):
        lines.append(json.dumps({"event": "alert", "detector": "straggler",
                                 "severity": "warning", "round_number": i}))
    (path / "health.jsonl").write_text("\n".join(lines) + "\n")
    return path


class TestSummarize:
    def test_full_run(self, tmp_path):
        summary = summarize_run(make_run(tmp_path / "a", critical=2))
        assert summary["kind"] == "run"
        assert summary["rounds"] == 3
        dims = summary["dims"]
        assert dims["final_metric{valid_acc}"] == pytest.approx(0.8)
        assert dims["round_bytes_p50"] == 1000
        assert dims["alerts_critical"] == 2
        assert dims["step_time_p50{objective=classifier}"] == pytest.approx(0.01)
        assert summary["absent"] == []

    def test_partial_run_lists_absent(self, tmp_path):
        run = tmp_path / "partial"
        run.mkdir()
        (run / "health.jsonl").write_text(
            json.dumps({"schema": "repro.obs.health/v1"}) + "\n")
        summary = summarize_run(run)
        assert "stats.json" in summary["absent"]
        assert "metrics.json" in summary["absent"]

    def test_truncated_health_tolerated(self, tmp_path):
        run = make_run(tmp_path / "a")
        with (run / "health.jsonl").open("a") as fh:
            fh.write('{"event": "alert", "sever')  # aborted mid-write
        summary = summarize_run(run)
        assert summary["health"]["rounds"] == 3

    def test_bench_file(self, tmp_path):
        bench = tmp_path / "BENCH_pr9.json"
        bench.write_text(json.dumps({
            "protocol": {"pr": 9},
            "metrics": {"histograms": [
                {"name": "bench.step_seconds",
                 "tags": {"side": "candidate", "model": "bert-mini"},
                 "count": 5, "p50": 0.2}]}}))
        summary = summarize_run(bench)
        assert summary["kind"] == "bench"
        assert summary["dims"]["step_time_p50{model=bert-mini}"] == pytest.approx(0.2)

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            summarize_run(tmp_path / "nope")


class TestRegistry:
    def test_register_resolve_list(self, tmp_path):
        run = make_run(tmp_path / "runs" / "a")
        registry = RunRegistry(tmp_path / "runs")
        registry.register(run, name="baseline", note="seed run")
        assert registry.resolve("baseline") == run
        listed = registry.list_runs()
        assert [e["name"] for e in listed] == ["baseline"]
        # unregistered run dirs under the root are discovered
        make_run(tmp_path / "runs" / "b")
        names = {e["name"]: e.get("registered") for e in registry.list_runs()}
        assert names == {"baseline": True, "b": False}

    def test_register_overwrites_same_name(self, tmp_path):
        registry = RunRegistry(tmp_path)
        a = make_run(tmp_path / "a")
        b = make_run(tmp_path / "b")
        registry.register(a, name="x")
        registry.register(b, name="x")
        assert registry.resolve("x") == b
        assert len(registry.entries()) == 1

    def test_resolve_falls_back_to_path(self, tmp_path):
        run = make_run(tmp_path / "a")
        assert RunRegistry(tmp_path / "nowhere").resolve(str(run)) == run

    def test_unknown_ref_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunRegistry(tmp_path).resolve("ghost")


class TestDiff:
    def test_identical_runs_ok(self, tmp_path):
        a = make_run(tmp_path / "a")
        report = diff_runs(a, a)
        assert report.exit_code == 0
        assert all(line.verdict == "ok" for line in report.lines)

    def test_new_critical_alert_is_regression(self, tmp_path):
        a = make_run(tmp_path / "a")
        b = make_run(tmp_path / "b", critical=1)
        report = diff_runs(a, b)
        assert report.exit_code == 2
        dims = {line.dimension: line.verdict for line in report.lines}
        assert dims["alerts_critical"] == "regression"

    def test_metric_drop_is_regression_and_gain_improves(self, tmp_path):
        a = make_run(tmp_path / "a", acc=0.80)
        worse = make_run(tmp_path / "w", acc=0.70)
        better = make_run(tmp_path / "g", acc=0.90)
        assert diff_runs(a, worse).exit_code == 2
        report = diff_runs(a, better)
        assert report.exit_code == 0
        verdicts = {l.dimension: l.verdict for l in report.lines}
        assert verdicts["final_metric{valid_acc}"] == "improved"

    def test_bytes_blowup_respects_threshold(self, tmp_path):
        a = make_run(tmp_path / "a", bytes_per_round=1000)
        b = make_run(tmp_path / "b", bytes_per_round=1050)
        c = make_run(tmp_path / "c", bytes_per_round=2000)
        assert diff_runs(a, b).exit_code == 0  # +5% < 10% tolerance
        assert diff_runs(a, c).exit_code == 2

    def test_receive_buffer_peak_is_a_lower_is_better_dimension(self, tmp_path):
        runs = {}
        for name, peak in (("a", 30_000_000), ("b", 31_000_000), ("c", 80_000_000)):
            runs[name] = make_run(tmp_path / name)
            stats = json.loads((runs[name] / "stats.json").read_text())
            stats["peak_receive_buffer_bytes"] = peak
            (runs[name] / "stats.json").write_text(json.dumps(stats))
        assert summarize_run(runs["a"])["dims"]["peak_receive_buffer"] == 30_000_000
        assert diff_runs(runs["a"], runs["b"]).exit_code == 0  # +3% < 10%
        report = diff_runs(runs["a"], runs["c"])
        assert {line.dimension for line in report.regressions} == {"peak_receive_buffer"}
        verdicts = {l.dimension: l.verdict for l in diff_runs(runs["c"], runs["a"]).lines}
        assert verdicts["peak_receive_buffer"] == "improved"

    def test_dimension_filter(self, tmp_path):
        a = make_run(tmp_path / "a")
        b = make_run(tmp_path / "b", step_p50=10.0, bytes_per_round=1000)
        report = diff_runs(a, b, dimensions=["round_bytes", "alerts"])
        assert report.exit_code == 0  # the step-time blowup is filtered out
        assert all(not l.dimension.startswith("step_time")
                   for l in report.lines)

    def test_missing_dimension_is_nonfatal(self, tmp_path):
        a = make_run(tmp_path / "a")
        b = tmp_path / "b"
        b.mkdir()
        (b / "stats.json").write_text(json.dumps({"rounds": []}))
        report = diff_runs(a, b)
        assert report.exit_code == 0
        assert all(line.verdict == "missing" for line in report.lines)

    def test_loss_metric_lower_is_better(self, tmp_path):
        a = make_run(tmp_path / "a")
        b = make_run(tmp_path / "b")
        for path, loss in ((a, 0.5), (b, 0.9)):
            stats = json.loads((path / "stats.json").read_text())
            for r in stats["rounds"]:
                r["global_metrics"] = {"valid_loss": loss}
            (path / "stats.json").write_text(json.dumps(stats))
        report = diff_runs(a, b, dimensions=["final_metric"])
        assert report.exit_code == 2

    def test_renderers_dont_crash(self, tmp_path):
        a = make_run(tmp_path / "a", critical=1)
        registry = RunRegistry(tmp_path)
        registry.register(a, name="a")
        assert "a" in render_list(registry)
        assert "alerts" in render_show(summarize_run(a))
        out = render_diff(diff_runs(a, a))
        assert "no regressions" in out


class TestCli:
    def test_runs_diff_exit_codes(self, tmp_path, capsys):
        a = make_run(tmp_path / "a")
        b = make_run(tmp_path / "b", critical=1)
        root = str(tmp_path)
        assert obs_main(["runs", "register", str(a), "--name", "base",
                         "--root", root]) == 0
        assert obs_main(["runs", "diff", "base", str(a), "--root", root]) == 0
        assert obs_main(["runs", "diff", "base", str(b), "--root", root]) == 2
        assert obs_main(["runs", "diff", "base", "ghost", "--root", root]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "error:" in out

    def test_runs_list_and_show(self, tmp_path, capsys):
        make_run(tmp_path / "a")
        assert obs_main(["runs", "list", "--root", str(tmp_path)]) == 0
        assert obs_main(["runs", "show", str(tmp_path / "a"),
                         "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "dimensions:" in out

    def test_diff_json_output(self, tmp_path, capsys):
        a = make_run(tmp_path / "a")
        assert obs_main(["runs", "diff", str(a), str(a), "--root",
                         str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] == 0
