"""The compressed round's server memory, in units of model bytes.

A ``delta+fp16+topk:0.1`` round holds three model-sized buffers on the
server: the global (also the downlink's delta base), the error-feedback
residual, and the float64 sums while a window is open.  These gates run the
real ``ScatterAndGather`` loop against a loopback server that answers each
task with a prepared top-k update, one reply at a time (as the socket hub
admits them), trace every allocation with ``tracemalloc``, and bound three
phases:

* ``Downlink.build`` of a steady delta wave: transient above its start;
* one top-k update from receipt through server filters and ``accept``
  (not the window's first, which allocates the sums);
* live state when the persistor runs, above the generated inputs.

The budgets do not depend on the number of sites: 8 and 64 give one bound.

The last gate runs a raw job on the real socket fabric instead, sites in
forked workers and tracemalloc in the server process: a round holds the
float64 sums plus the one frame the hub admits, at 4 sites as at 8.
"""

from __future__ import annotations

import tracemalloc
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from repro.flare import (
    DXO,
    CompressionConfig,
    DataKind,
    FLContext,
    FLJob,
    InTimeAccumulateWeightedAggregator,
    MetaKey,
    ReservedKey,
    ReturnCode,
    ScatterAndGather,
    SimulatorRunner,
)
from repro.flare.shareable import Shareable, from_dxo

from .helpers import ToyLearner

SPEC = "delta+fp16+topk:0.1"
ROUNDS = 4
BUILD_BUDGET = 2.0     # transient, x model bytes
ACCEPT_BUDGET = 0.3    # transient, x model bytes
PERSIST_BUDGET = 3.5   # live, x model bytes


def synthetic_state() -> dict[str, np.ndarray]:
    """Many mid-sized float32 matrices plus small and non-float tensors,
    shaped like a transformer state dict (no tensor above ~3% of it)."""
    rng = np.random.default_rng(0)
    state: dict[str, np.ndarray] = {}
    for layer in range(32):
        state[f"layer{layer}.weight"] = rng.standard_normal((64, 128), dtype=np.float32)
        state[f"layer{layer}.bias"] = rng.standard_normal(128, dtype=np.float32)
    state["mask"] = np.arange(64) % 3 == 0
    state["steps"] = np.arange(16, dtype=np.int64)
    return state


def site_updates(state: dict[str, np.ndarray], config: CompressionConfig,
                 count: int = 4) -> list[bytes]:
    """Encoded client replies: seeded top-k fp16 weight diffs through the
    client's uplink chain, made before tracing starts (the inputs)."""
    rng = np.random.default_rng(1)
    ctx = FLContext(identity="site")
    updates = []
    for _ in range(count):
        dxo = DXO(DataKind.WEIGHT_DIFF,
                  data={key: 1e-3 * rng.standard_normal(value.shape, dtype=np.float32)
                        if value.dtype.kind == "f" else np.zeros(value.shape, np.int8)
                        for key, value in state.items()},
                  meta={MetaKey.NUM_STEPS_CURRENT_ROUND: 1})
        for result_filter in config.client_result_filters()[1:]:  # after DeltaEncode
            dxo = result_filter.process(dxo, ctx)
        updates.append(dxo.to_bytes())
    return updates


class LoopbackServer:
    """Just enough ``FLServer`` for the controller: each task is answered
    on ``next_result`` with one of the prepared updates, so one reply is
    alive at a time, as on the socket hub."""

    def __init__(self, updates: list[bytes], probe: "Probe") -> None:
        self.fl_ctx = FLContext(identity="server")
        self.bus = SimpleNamespace(delivered_bytes=0, delivered_count=0,
                                   retry_count=0, duplicates_dropped=0,
                                   peak_receive_buffer_bytes=0)
        self.updates = updates
        self.probe = probe
        self.pending: deque = deque()

    def broadcast_task(self, task_name, task, targets, overrides=None):
        for site in targets:
            payload = (overrides or {}).get(site, task)
            self.pending.append((site, payload.get_header(ReservedKey.ROUND_NUMBER)))
        return []

    def next_result(self, timeout: float = 0.0):
        if not self.pending:
            return None
        site, round_number = self.pending.popleft()
        reply = Shareable(DXO=self.updates[len(self.pending) % len(self.updates)])
        reply.set_return_code(ReturnCode.OK)
        reply.set_header(ReservedKey.ROUND_NUMBER, round_number)
        self.probe.received()
        return site, reply

    def abort_tasks(self) -> None:
        self.pending.clear()


class Probe:
    """tracemalloc readings at the phase boundaries, in bytes."""

    def __init__(self) -> None:
        self.baseline = 0
        self.builds: list[int] = []
        self.accepts: list[int] = []
        self.persists: list[int] = []
        self._mark = 0

    def received(self) -> None:
        self._mark = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()

    def accepted(self) -> None:
        self.accepts.append(tracemalloc.get_traced_memory()[1] - self._mark)


class Persistor:
    def __init__(self, probe: Probe) -> None:
        self.probe = probe

    def save(self, weights, fl_ctx, metric=None) -> None:
        self.probe.persists.append(
            tracemalloc.get_traced_memory()[0] - self.probe.baseline)


def measure(n_sites: int) -> dict[str, float]:
    state = synthetic_state()
    model_bytes = sum(value.nbytes for value in state.values())
    config = CompressionConfig.from_spec(SPEC)
    probe = Probe()
    sites = [f"site-{index + 1}" for index in range(n_sites)]
    server = LoopbackServer(site_updates(state, config), probe)
    tracemalloc.start()
    try:
        probe.baseline = tracemalloc.get_traced_memory()[0]
        controller = ScatterAndGather(
            server, sites, state, InTimeAccumulateWeightedAggregator(),
            persistor=Persistor(probe), num_rounds=ROUNDS, compression=config)
        build, accept = controller.downlink.build, controller.aggregator.accept

        def timed_build(global_weights, targets, version, headers, fl_ctx):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = build(global_weights, targets, version, headers, fl_ctx)
            if result[2]:  # a delta wave
                probe.builds.append(tracemalloc.get_traced_memory()[1] - start)
            return result

        def timed_accept(dxo, contributor, fl_ctx):
            opening = not controller.aggregator.contributors
            folded = accept(dxo, contributor, fl_ctx)
            if not opening:
                probe.accepted()
            return folded

        controller.downlink.build = timed_build
        controller.aggregator.accept = timed_accept
        stats = controller.run()
    finally:
        tracemalloc.stop()
    assert stats.num_rounds == ROUNDS and not stats.failed_rounds
    assert len(probe.builds) == ROUNDS - 1 and len(probe.persists) == ROUNDS
    return {"build": max(probe.builds) / model_bytes,
            "accept": max(probe.accepts) / model_bytes,
            "persist": max(probe.persists) / model_bytes}


@pytest.fixture(scope="module", params=[8, 64], ids=lambda n: f"{n}-sites")
def figures(request) -> dict[str, float]:
    return measure(request.param)


def test_downlink_build_transient_is_bounded(figures):
    assert figures["build"] <= BUILD_BUDGET, figures


def test_topk_accept_transient_is_bounded(figures):
    assert figures["accept"] <= ACCEPT_BUDGET, figures


def test_live_state_at_persist_is_bounded(figures):
    assert figures["persist"] <= PERSIST_BUDGET, figures


def socket_round_peaks(n_sites: int, monkeypatch) -> tuple[int, list[int]]:
    """Model bytes, and each window's tracemalloc peak above its start in
    the server process of a raw socket job."""
    # 4 MiB in 16 tensors: the aggregator's float64 scratch (2 x the largest
    # tensor, allocated with each window's sums) stays inside the slack
    weights = {f"block{i}.weight": np.zeros(1 << 16, dtype=np.float32)
               for i in range(16)}
    peaks: list[int] = []
    run_window = ScatterAndGather._run_window

    def traced(self, window, fl_ctx, span):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_window(self, window, fl_ctx, span)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)

    monkeypatch.setattr(ScatterAndGather, "_run_window", traced)
    # a worker that hangs after its fork fails the round in 30 s, not the
    # default 600 s per round
    job = FLJob(name="socket-budget", initial_weights=weights,
                learner_factory=ToyLearner, num_rounds=ROUNDS, transport="socket",
                result_timeout=30)
    tracemalloc.start()
    try:
        stats = SimulatorRunner(job, n_clients=n_sites, seed=0, key_bits=128,
                                capture_log=False, max_parallel=n_sites).run().stats
    finally:
        tracemalloc.stop()
    assert stats.num_rounds == ROUNDS and not stats.failed_rounds
    return sum(value.nbytes for value in weights.values()), peaks


def test_socket_round_peak_is_the_sums_plus_one_frame(monkeypatch):
    """From the second window on (the first allocates what later ones
    reuse), a round's peak is the two float64 sums plus one received frame,
    whatever the site count; the hub's read-ahead would add a frame each."""
    figures = {}
    for n_sites in (4, 8):
        model_bytes, peaks = socket_round_peaks(n_sites, monkeypatch)
        figures[n_sites] = max(peaks[1:])
        assert figures[n_sites] <= 3 * model_bytes + (1 << 20), (n_sites, peaks)
    assert abs(figures[4] - figures[8]) <= 1 << 20, figures
