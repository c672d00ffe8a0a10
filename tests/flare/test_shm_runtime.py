"""End-to-end multi-process federation over the shared-memory transport.

Acceptance bar, same as the socket runtime: the *same job, same seed* must
produce bit-identical global checkpoints whether the clients are threads on
the in-memory bus, processes on TCP loopback, or processes on the
fork-inherited shm fabric.  Plus the shm-specific properties: tensor bodies
cross mmap'd segments as zero-copy 64-byte-aligned views, segments never
outlive their message, and worker processes re-apply the parent's runtime
(dtype / backend / BLAS threads) after the fork.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.autograd import get_backend, get_default_dtype
from repro.flare import (
    DXO,
    DataKind,
    DeltaDecode,
    Downlink,
    FLJob,
    FLServer,
    Learner,
    MetaKey,
    ProcessClientRunner,
    Provisioner,
    Shareable,
    ShmMessageBus,
    SimulatorRunner,
    TransportError,
    WorkerRuntime,
    default_project,
)
from repro.flare.codec import decode_tensors, encode_tensors
from repro.flare.runner import TELEMETRY_TOPIC
from repro.obs.session import WorkerTelemetry

from .helpers import ToyLearner, toy_weights


def toy_job(num_rounds: int = 2, min_clients: int = 4) -> FLJob:
    return FLJob(name="shm-e2e", initial_weights=toy_weights(0.0),
                 learner_factory=lambda name: ToyLearner(name, delta=1.0),
                 num_rounds=num_rounds, min_clients=min_clients,
                 result_timeout=60.0)


def run_sim(job: FLJob, transport: str, tmp_path, tag: str, n_clients=4,
            **kwargs):
    runner = SimulatorRunner(replace(job, transport=transport), n_clients=n_clients,
                             seed=7, run_dir=tmp_path / f"{tag}-{transport}", **kwargs)
    return runner.run()


class MixLearner(Learner):
    """An update that depends on the received weights, coordinate by
    coordinate — a client reconstructing a wrong model shows in the result."""

    def __init__(self, site_name: str) -> None:
        super().__init__(name="MixLearner")
        self.shift = 0.1 * int(site_name.rsplit("-", 1)[1])

    def train(self, dxo: DXO, fl_ctx) -> DXO:
        updated = {key: (0.7 * np.asarray(value) + self.shift
                         * np.linspace(-1, 1, np.asarray(value).size,
                                       dtype=np.float32).reshape(value.shape))
                   for key, value in dxo.data.items()}
        return DXO(DataKind.WEIGHTS, data=updated,
                   meta={MetaKey.NUM_STEPS_CURRENT_ROUND: 10})


class TestShmFabric:
    """Unit-level properties of the ShmMessageBus itself."""

    def _bus(self, **kwargs) -> ShmMessageBus:
        bus = ShmMessageBus(**kwargs)
        for name in ("server", "site-1"):
            bus.register_endpoint(name)
            bus.install_session_key(name, b"k" * 32)
        return bus

    def test_large_body_is_zero_copy_and_aligned(self):
        with self._bus() as bus:
            arrays = {"w": np.arange(256 * 256, dtype=np.float32).reshape(256, 256)}
            shareable = Shareable({"task": "train"})
            shareable["DXO"] = encode_tensors(arrays, {"data_kind": "WEIGHTS"})
            bus.send_shareable("site-1", "server", "result", shareable)
            _, _, received = bus.receive("server", timeout=5.0)
            body = received["DXO"]
            assert isinstance(body, memoryview)
            decoded, _ = decode_tensors(body)
            view = decoded["w"]
            assert not view.flags.owndata  # a view over the mapped segment
            assert view.ctypes.data % 64 == 0
            np.testing.assert_array_equal(view, arrays["w"])

    def test_small_body_rides_inline(self):
        with self._bus() as bus:
            before = int(bus.metrics.counter("transport.shm_segments").value)
            bus.send_shareable("server", "site-1", "ping", Shareable({"a": 1}))
            _, _, received = bus.receive("site-1", timeout=5.0)
            assert received["a"] == 1
            assert int(bus.metrics.counter("transport.shm_segments").value) == before

    def test_segments_are_unlinked_after_receive(self):
        with self._bus(inline_limit=0) as bus:
            shareable = Shareable({"t": "x"})
            shareable["DXO"] = os.urandom(1 << 16)
            bus.send_shareable("server", "site-1", "blob", shareable)
            assert len(os.listdir(bus.segment_dir)) == 1  # in flight
            bus.receive("site-1", timeout=5.0)
            assert os.listdir(bus.segment_dir) == []

    def test_close_removes_segment_dir(self):
        bus = self._bus()
        directory = bus.segment_dir
        assert os.path.isdir(directory)
        bus.close()
        assert not os.path.exists(directory)
        with pytest.raises(TransportError, match="closed"):
            bus.send_shareable("server", "site-1", "late", Shareable({}))

    def test_views_survive_after_bus_close(self):
        # decoded tensors must stay readable for as long as the caller
        # holds them: the mapping, not the bus, owns the pages
        bus = self._bus()
        arrays = {"w": np.full((128, 128), 3.0, dtype=np.float32)}
        shareable = Shareable({"t": "x"})
        shareable["DXO"] = encode_tensors(arrays)
        bus.send_shareable("server", "site-1", "blob", shareable)
        _, _, received = bus.receive("site-1", timeout=5.0)
        decoded, _ = decode_tensors(received["DXO"])
        bus.close()
        np.testing.assert_array_equal(decoded["w"], arrays["w"])


class TestShmEndToEnd:
    def test_toy_job_bit_identical_across_all_transports(self, tmp_path):
        job = toy_job()
        memory_result = run_sim(job, "memory", tmp_path, "toy")
        shm_result = run_sim(job, "shm", tmp_path, "toy")
        assert set(memory_result.final_weights) == set(shm_result.final_weights)
        for key in memory_result.final_weights:
            np.testing.assert_array_equal(memory_result.final_weights[key],
                                          shm_result.final_weights[key])
        assert memory_result.tokens == shm_result.tokens
        assert shm_result.stats.num_rounds == 2
        assert all(record.quorum_met for record in shm_result.stats.rounds)

    @pytest.mark.parametrize("compression", [None, "delta+fp16+topk:0.2"],
                             ids=["plain", "compressed"])
    def test_serial_async_chain_bit_identical_across_all_transports(
            self, tmp_path, monkeypatch, compression):
        """``buffer_size=1, concurrency=1`` is a serial chain — task one
        site, wait, commit — hence timing-independent on every fabric.  Two
        sites, so the same one is often tasked twice running and gets a
        delta."""
        rng = np.random.default_rng(5)
        job = FLJob(name="async-chain", learner_factory=MixLearner,
                    initial_weights={
                        "w": rng.normal(size=(20, 20)).astype(np.float32),
                        "b": rng.normal(size=8).astype(np.float32)},
                    num_rounds=8, mode="async", buffer_size=1, concurrency=1,
                    result_timeout=60.0)

        # memory fabric only: watch what the server ships per wave and what
        # each client's decoder ends up holding
        shipped: dict[int, dict] = {}
        decoders: list[DeltaDecode] = []
        build, init = Downlink.build, DeltaDecode.__init__

        def recording_build(self, global_weights, targets, version, *rest):
            out = build(self, global_weights, targets, version, *rest)
            shipped[version] = out[0]
            return out

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            decoders.append(self)

        with monkeypatch.context() as patch:
            patch.setattr(Downlink, "build", recording_build)
            patch.setattr(DeltaDecode, "__init__", recording_init)
            memory_result = run_sim(replace(job, compression=compression), "memory",
                                    tmp_path, "chain", n_clients=2)
        for transport in ("socket", "shm"):
            result = run_sim(replace(job, compression=compression), transport,
                             tmp_path, "chain", n_clients=2)
            for key, value in memory_result.final_weights.items():
                np.testing.assert_array_equal(value, result.final_weights[key])
            assert [(c.client, c.staleness) for r in result.stats.rounds
                    for c in r.client_records] == \
                [(c.client, c.staleness) for r in memory_result.stats.rounds
                 for c in r.client_records]

        if compression is not None:
            # the delta path was taken, and every client's cache is, bit for
            # bit, the server's canonical global of the version it holds
            assert "delta broadcast" in memory_result.log_text
            assert len(decoders) == 2
            held = [d.cached_version for d in decoders]
            assert any(version is not None for version in held)
            for decoder, version in zip(decoders, held):
                if version is not None:
                    assert set(decoder._cache) == set(shipped[version])
                    for key, value in decoder._cache.items():
                        np.testing.assert_array_equal(value, shipped[version][key])

    def test_telemetry_covers_worker_processes(self, tmp_path):
        result = run_sim(toy_job(), "shm", tmp_path, "telemetry",
                         telemetry=True)
        counters = json.loads(
            (result.run_dir / "metrics.json").read_text())["counters"]
        names = {entry["name"] for entry in counters}
        # parent-side segment accounting and child-side delivery totals both
        # landed in the one exported registry
        assert "transport.shm_segments" in names
        assert "transport.messages_delivered" in names

    def test_job_transport_field_drives_runner(self, tmp_path):
        job = toy_job()
        job.transport = "shm"
        result = SimulatorRunner(job, n_clients=4, seed=7,
                                 run_dir=tmp_path / "job-field").run()
        assert result.stats.num_rounds == 2


class TestRunnerOnShm:
    def _provision(self, n: int = 2):
        project = default_project(n_clients=n, name="t")
        kits = Provisioner(project, seed=0, key_bits=512).provision()
        hub = ShmMessageBus()
        server = FLServer(kits["server"], hub, seed=0)
        return kits, hub, server

    def test_client_processes_exit_cleanly(self):
        kits, hub, server = self._provision()
        runner = ProcessClientRunner(lambda name: ToyLearner(name), kits, server)
        names = ["site-1", "site-2"]
        tokens = runner.launch(names)
        assert set(tokens) == set(names)
        assert set(runner.alive()) == set(names)
        server.stop_clients(names)
        exit_codes = runner.join(timeout=20.0)
        assert exit_codes == {"site-1": 0, "site-2": 0}
        hub.close()

    def test_drain_telemetry_collects_every_worker(self):
        kits, hub, server = self._provision()
        runtime = WorkerRuntime.capture(2, telemetry=WorkerTelemetry())
        runner = ProcessClientRunner(lambda name: ToyLearner(name), kits,
                                     server, runtime=runtime)
        names = ["site-1", "site-2"]
        runner.launch(names)
        server.stop_clients(names)
        snapshots = runner.drain_telemetry(timeout=20.0)
        assert set(snapshots) == set(names)
        for name, snapshot in snapshots.items():
            assert snapshot["client"] == name
            assert snapshot["metrics"]["schema"] == "repro.obs.metrics/v1"
            assert snapshot["profile"]["schema"] == "repro.obs.profile/v1"
        runner.join(timeout=20.0)
        hub.close()

    def test_shm_requires_fork(self):
        kits, hub, server = self._provision()
        try:
            if "spawn" in __import__("multiprocessing").get_all_start_methods():
                with pytest.raises(ValueError, match="fork"):
                    ProcessClientRunner(lambda name: ToyLearner(name), kits,
                                        server, start_method="spawn")
        finally:
            hub.close()

    def test_child_side_registration_after_fork_fails_loudly(self):
        bus = ShmMessageBus()
        bus.register_endpoint("server")
        bus._owner_pid = os.getpid() + 1  # simulate "we are the child"
        with pytest.raises(TransportError, match="before the fork"):
            bus.register_endpoint("site-9")
        bus._owner_pid = os.getpid()
        bus.close()


class TestWorkerRuntime:
    def test_capture_snapshots_parent_state(self):
        runtime = WorkerRuntime.capture(4, telemetry=WorkerTelemetry())
        assert runtime.default_dtype == np.dtype(get_default_dtype()).name
        assert runtime.backend == get_backend()
        assert runtime.blas_threads >= 1
        assert runtime.telemetry

    def test_apply_restores_state(self):
        from repro.autograd import set_default_dtype

        runtime = WorkerRuntime(default_dtype="float64", backend="numpy",
                                blas_threads=1)
        previous = np.dtype(get_default_dtype()).name
        try:
            runtime.apply()
            assert np.dtype(get_default_dtype()).name == "float64"
            assert get_backend() == "numpy"
        finally:
            set_default_dtype(previous)
