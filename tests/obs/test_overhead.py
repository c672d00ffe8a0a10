"""Telemetry must be cheap: disabled is free-ish, enabled stays in budget.

The A/B runs interleaved with a deliberately loose bound so tier-1 stays
stable on noisy shared machines while still catching accidental O(n)
instrumentation (e.g. a span per element, an enabled-path allocation
storm).  Inside a whole federated job, the e2e benchmark's
``trace.overhead_ratio`` (traced / untraced ``job_s``) is gated at 1.05.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

from repro.autograd import functional as F
from repro.models import build_classifier
from repro.obs import TelemetrySession, metrics, span

BATCH, SEQ, VOCAB = 16, 24, 120


def _make_step():
    model = build_classifier("lstm-tiny", vocab_size=VOCAB, seed=0)
    rng = np.random.default_rng(0)
    ids = rng.integers(1, VOCAB, size=(BATCH, SEQ))
    labels = rng.integers(0, 2, size=BATCH)

    def step():
        model.zero_grad()
        with span("step"):
            loss = F.cross_entropy(model(ids), labels)
            loss.backward()
        metrics.histogram("train.step_seconds", objective="bench").observe(0.0)

    return step


def _step_seconds(step, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        step()
        times.append(time.perf_counter() - started)
    return times


def _interleaved_medians(step, make_session, blocks=5, repeats=3):
    """(median off-step, median on-step) over ``blocks`` alternating short
    off/on blocks, so background load that lands on one block moves one
    block's steps, not a whole side's median."""
    for _ in range(3):  # warmup (allocator, BLAS thread pools)
        step()
    off, on = [], []
    for _ in range(blocks):
        off += _step_seconds(step, repeats)
        with make_session():
            on += _step_seconds(step, repeats)
    off += _step_seconds(step, repeats)
    return median(off), median(on)


def test_enabled_overhead_is_bounded(tmp_path):
    off, on = _interleaved_medians(_make_step(), lambda: TelemetrySession(tmp_path))
    # 50% is far above the ~3% real overhead but still catches
    # pathological instrumentation.
    assert on <= max(off * 1.5, off + 0.01), (
        f"telemetry-on step {on * 1e3:.2f}ms vs off {off * 1e3:.2f}ms")


def test_disabled_instruments_record_nothing(tmp_path):
    step = _make_step()
    step()
    assert metrics.get_registry().to_dict()["histograms"] == []
    with TelemetrySession(tmp_path) as session:
        step()
    (hist,) = [h for h in session.registry.to_dict()["histograms"]
               if h["name"] == "train.step_seconds"]
    assert hist["count"] == 1


def test_health_armed_overhead_is_bounded(tmp_path):
    """Health monitoring hooks aggregation, not the step: steps between
    monitored rounds must cost the same (loose bound)."""
    off, on = _interleaved_medians(
        _make_step(), lambda: TelemetrySession(tmp_path, health=True))
    assert on <= max(off * 1.5, off + 0.01), (
        f"telemetry+health step {on * 1e3:.2f}ms vs off {off * 1e3:.2f}ms")


def test_health_round_cost_is_bounded_by_sample_size(tmp_path):
    """Per-round monitor cost must not scale with model size beyond the
    exact-norm pass: a 10x bigger model may cost more, but the sketching
    stays at the configured coordinate budget."""
    import numpy as np

    from repro.obs import HealthMonitor

    monitor = HealthMonitor(sample_size=1024)
    rng = np.random.default_rng(0)
    reference = {"w": rng.standard_normal(50_000).astype(np.float32)}
    update = {"w": reference["w"] + 0.01}
    monitor.begin_round(0, ["a", "b"], reference=reference)
    monitor.record_update("a", update)
    monitor.record_update("b", update)
    assert monitor._sketches["a"].size <= 1024
    monitor.end_round(new_global=update)
