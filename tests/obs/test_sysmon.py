"""SysMonitor tests: /proc sampling, gauge publishing and the forked-worker
path (child samples merged into the parent's metrics.json with process tags).
"""

import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "flare"))
from helpers import ToyLearner, toy_weights  # noqa: E402

from repro.flare import FLJob, SimulatorRunner  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.obs.sysmon import SysMonitor, read_proc_sample  # noqa: E402


def test_read_proc_sample_shape():
    sample = read_proc_sample()
    assert sample["rss_bytes"] > 0
    assert sample["cpu_seconds"] >= 0.0
    assert sample["open_fds"] > 0
    assert sample["shm_bytes"] >= 0
    assert len(sample["gc_collections"]) == 3


def test_read_proc_sample_never_raises_on_bad_glob():
    sample = read_proc_sample(shm_glob="/nonexistent/nowhere-*")
    assert sample["shm_bytes"] == 0


def test_sample_publishes_tagged_gauges():
    registry = MetricsRegistry()
    monitor = SysMonitor(registry=registry, interval=None, process="server")
    monitor.sample()
    gauges = {(g["name"], tuple(sorted(g["tags"].items()))): g["value"]
              for g in registry.to_dict()["gauges"]}
    tag = (("process", "server"),)
    assert gauges[("sys.rss_bytes", tag)] > 0
    assert gauges[("sys.open_fds", tag)] > 0
    assert gauges[("sys.peak_rss_bytes", tag)] >= gauges[("sys.rss_bytes", tag)]
    assert ("sys.gc_collections", (("gen", "0"),) + tag) in gauges


def test_peak_tracks_high_water():
    registry = MetricsRegistry()
    monitor = SysMonitor(registry=registry, interval=None)
    monitor.sample()
    first_peak = monitor.peak_rss_bytes
    assert first_peak > 0
    ballast = bytearray(32 << 20)  # +32 MiB
    monitor.sample()
    del ballast
    assert monitor.peak_rss_bytes >= first_peak


def test_start_stop_without_thread():
    monitor = SysMonitor(registry=MetricsRegistry(), interval=None)
    with monitor:
        pass
    assert monitor.samples_taken == 2  # one on start, one on stop


def test_background_thread_samples():
    monitor = SysMonitor(registry=MetricsRegistry(), interval=0.05)
    monitor.start()
    time.sleep(0.3)
    monitor.stop()
    assert monitor.samples_taken >= 3


def test_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        SysMonitor(interval=0)


def test_resolves_process_registry_lazily():
    from repro.obs import metrics as obs_metrics

    session_registry = MetricsRegistry()
    monitor = SysMonitor(interval=None, process="lazy")
    previous = obs_metrics.set_registry(session_registry)
    try:
        monitor.sample()
    finally:
        obs_metrics.set_registry(previous)
    names = {g["name"] for g in session_registry.to_dict()["gauges"]}
    assert "sys.rss_bytes" in names


# ---------------------------------------------------------------------------
# forked workers: child samples merge with process tags
# ---------------------------------------------------------------------------
def test_worker_sysmon_gauges_merge_with_process_tags(tmp_path):
    job = FLJob(name="sysmon-shm", initial_weights=toy_weights(0.0),
                learner_factory=ToyLearner, num_rounds=2)
    runner = SimulatorRunner(replace(job, transport="shm"), n_clients=2, seed=0,
                             run_dir=tmp_path, metrics_port=0)
    result = runner.run()

    import json
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    rss_processes = {g["tags"].get("process")
                     for g in metrics["gauges"] if g["name"] == "sys.rss_bytes"}
    # the server AND every forked client sampled itself; the merge keeps
    # them apart via the process tag
    assert rss_processes == {"server", "site-1", "site-2"}
    for site in ("site-1", "site-2"):
        values = [g["value"] for g in metrics["gauges"]
                  if g["name"] == "sys.rss_bytes"
                  and g["tags"].get("process") == site]
        assert values and values[0] > 0

    # the parent's peak lands on stats for the registry diff dimension
    assert result.stats.peak_rss_bytes > 0
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["peak_rss_bytes"] == result.stats.peak_rss_bytes


def test_sysmon_off_by_default(tmp_path):
    job = FLJob(name="sysmon-off", initial_weights=toy_weights(0.0),
                learner_factory=ToyLearner, num_rounds=1)
    runner = SimulatorRunner(job, n_clients=2, seed=0, run_dir=tmp_path,
                             telemetry=True)
    result = runner.run()
    import json
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert not any(g["name"].startswith("sys.") for g in metrics["gauges"])
    assert result.stats.peak_rss_bytes == 0
    assert runner.metrics_exporter is None
