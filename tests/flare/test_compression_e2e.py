"""End-to-end wire efficiency: compressed runs vs the uncompressed baseline.

The whole chain — downlink quantize/delta, client-side reconstruction,
uplink delta/quantize, server-side dequantize and streaming aggregation —
must produce the same federated trajectory as the plain path: bit-exact for
lossless configurations, within fp16 rounding otherwise.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.flare import (
    DXO,
    CompressionConfig,
    CoordinateMedianAggregator,
    DataKind,
    FLJob,
    InTimeAccumulateWeightedAggregator,
    MetaKey,
    SimulatorRunner,
)

from repro.flare.filters import topk_gaps

from .helpers import ToyLearner, toy_weights


def run_sim(tmp_path, sub: str, *, learner=ToyLearner, rounds: int = 4,
            n_clients: int = 3, compression=None, **kwargs):
    job = FLJob(name=f"e2e-{sub}", initial_weights=toy_weights(),
                learner_factory=lambda name: learner(name),
                num_rounds=rounds, compression=compression)
    return SimulatorRunner(job, n_clients=n_clients, seed=0,
                           run_dir=tmp_path / sub, capture_log=False,
                           **kwargs).run()


def max_abs_diff(a: dict, b: dict) -> float:
    assert set(a) == set(b)
    return max(float(np.max(np.abs(np.asarray(a[k], dtype=np.float64)
                                   - np.asarray(b[k], dtype=np.float64))))
               if np.asarray(a[k]).size else 0.0
               for k in a)


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------
def test_delta_only_run_is_bit_exact(tmp_path):
    plain = run_sim(tmp_path, "plain")
    delta = run_sim(tmp_path, "delta",
                    compression=CompressionConfig(float16=False))
    assert max_abs_diff(plain.final_weights, delta.final_weights) == 0.0
    for key in plain.final_weights:
        assert delta.final_weights[key].dtype == plain.final_weights[key].dtype


def test_fp16_run_stays_within_quantization_tolerance(tmp_path):
    plain = run_sim(tmp_path, "plain")
    quantized = run_sim(tmp_path, "fp16", compression="delta+fp16")
    # toy weights stay small integers, exactly representable in fp16; with
    # real models the bound is fp16 rounding per round (documented in
    # docs/WIRE_FORMAT.md)
    assert max_abs_diff(plain.final_weights, quantized.final_weights) < 1e-2
    assert not quantized.stats.dropped_clients
    assert quantized.stats.failed_rounds == 0


def test_topk_run_converges_with_bounded_distortion(tmp_path):
    plain = run_sim(tmp_path, "plain", rounds=3)
    sparse = run_sim(tmp_path, "topk", rounds=3,
                     compression=CompressionConfig(float16=False, top_k=0.5))
    # toy tensors are below TopKSparsify's min_size, so they stay dense and
    # the run is exact — the point is the whole chain stays consistent
    assert max_abs_diff(plain.final_weights, sparse.final_weights) == 0.0


# ---------------------------------------------------------------------------
# wire accounting
# ---------------------------------------------------------------------------
def test_run_stats_carry_wire_byte_totals(tmp_path):
    result = run_sim(tmp_path, "accounting", compression="delta+fp16")
    assert result.stats.wire_bytes_raw > 0
    assert result.stats.wire_bytes_encoded > 0
    assert all(record.bytes_on_wire > 0 for record in result.stats.rounds)
    payload = result.stats.to_dict()
    assert payload["wire_bytes_raw"] == result.stats.wire_bytes_raw
    assert payload["rounds"][0]["bytes_on_wire"] > 0


def test_compression_reduces_tensor_bytes_on_wire(tmp_path):
    """With a model large enough that manifests don't dominate, delta+fp16
    halves the tensor bytes exactly, and the blobs and envelopes to within
    their headers."""
    big = {"weight": np.zeros((128, 128), dtype=np.float32),
           "bias": np.zeros(128, dtype=np.float32)}

    def run(sub, compression=None):
        job = FLJob(name=f"bytes-{sub}", initial_weights=big,
                    learner_factory=lambda name: ToyLearner(name, delta=0.25),
                    num_rounds=3, compression=compression)
        return SimulatorRunner(job, n_clients=2, seed=0,
                               run_dir=tmp_path / sub, capture_log=False).run()

    plain = run("plain")
    packed = run("packed", compression="delta+fp16")
    assert 2 * packed.stats.wire_bytes_raw == plain.stats.wire_bytes_raw
    assert packed.stats.wire_bytes_encoded < 0.51 * plain.stats.wire_bytes_encoded
    assert packed.stats.bytes_delivered < 0.51 * plain.stats.bytes_delivered
    assert max_abs_diff(plain.final_weights, packed.final_weights) < 1e-2


# ---------------------------------------------------------------------------
# robustness of the versioned downlink
# ---------------------------------------------------------------------------
def test_failing_client_keeps_downlink_versions_in_sync(tmp_path):
    class FlakyLearner(ToyLearner):
        def __init__(self, site_name):
            super().__init__(site_name,
                             fail_on_round=1 if site_name == "site-1" else None)

    job = FLJob(name="e2e-flaky", initial_weights=toy_weights(),
                learner_factory=lambda name: FlakyLearner(name),
                num_rounds=4, min_clients=2)
    result = SimulatorRunner(replace(job, compression="delta+fp16"), n_clients=3, seed=0,
                             run_dir=tmp_path / "flaky", capture_log=False).run()
    # site-1 crashed in round 1 (after decoding the task), so it stays
    # synced and the run finishes with everyone contributing again
    assert result.stats.rounds[1].dropped_clients == ["site-1"]
    assert result.stats.rounds[2].dropped_clients == []
    assert result.stats.rounds[3].dropped_clients == []
    assert result.stats.failed_rounds == 0


def test_job_level_compression_spec_is_honoured(tmp_path):
    job = FLJob(name="e2e-jobspec", initial_weights=toy_weights(),
                learner_factory=lambda name: ToyLearner(name),
                num_rounds=2, compression="delta+fp16")
    assert isinstance(job.compression, CompressionConfig)
    runner = SimulatorRunner(job, n_clients=2, seed=0,
                             run_dir=tmp_path / "jobspec", capture_log=False)
    assert runner.compression is job.compression
    result = runner.run()
    assert result.stats.wire_bytes_raw > 0


def test_sequential_mode_supports_compression(tmp_path):
    plain = run_sim(tmp_path, "seq-plain", threads=False)
    packed = run_sim(tmp_path, "seq-packed", threads=False,
                     compression=CompressionConfig(float16=False))
    assert max_abs_diff(plain.final_weights, packed.final_weights) == 0.0


@pytest.mark.parametrize("config", [
    CompressionConfig(float16=False),
    CompressionConfig(float16=True),
    CompressionConfig(float16=False, top_k=0.2),
    CompressionConfig(float16=True, top_k=0.2),
], ids=["delta", "delta+fp16", "delta+topk", "delta+fp16+topk"])
def test_downlink_keeps_server_and_clients_bit_identical(config):
    """The sync invariant the whole delta protocol rests on: after every
    broadcast — full or (error-feedback truncated) delta — a synced client's
    reconstruction equals the server's canonical global model bit for bit."""
    from repro.flare import Downlink, FLContext
    from repro.flare.shareable import to_dxo

    rng = np.random.default_rng(3)
    global_weights = {"w": rng.normal(size=600).astype(np.float32),
                      "b": rng.normal(size=8).astype(np.float32)}
    sites = ["site-1", "site-2"]
    downlink = Downlink(config)
    ctx = FLContext(identity="server")
    client_filters = config.client_task_filters()

    def client_receive(shareable):
        dxo = to_dxo(shareable)
        for task_filter in client_filters:
            dxo = task_filter.process(dxo, ctx)
        return {k: np.array(v) for k, v in dxo.data.items()}

    for wave in range(6):
        global_weights, task, overrides = downlink.build(
            global_weights, sites, wave, {}, ctx)
        payload = (overrides or {}).get("site-1", task)
        client_model = client_receive(payload)
        assert set(client_model) == set(global_weights)
        for key in client_model:
            server_side = np.asarray(global_weights[key])
            assert client_model[key].dtype == server_side.dtype, key
            np.testing.assert_array_equal(client_model[key], server_side,
                                          err_msg=f"wave {wave} {key}")
        for site in sites:
            downlink.ack(site)
        # simulate aggregation moving the global model
        global_weights = {
            key: (np.asarray(value)
                  + rng.normal(0, 1e-2, size=np.asarray(value).shape)
                  ).astype(np.asarray(value).dtype)
            for key, value in global_weights.items()}
        if wave >= 1:
            assert overrides is not None and "site-1" in overrides


class MalformedTopKLearner(ToyLearner):
    """Ships a signed, well-encoded top-k pair whose last index is past the
    end of its tensor."""

    def train(self, dxo, fl_ctx):
        trained = super().train(dxo, fl_ctx)
        return DXO(DataKind.WEIGHT_DIFF, data={
            "layer.weight@topk_idx": topk_gaps(np.array([0, 1, 2, 4], dtype=np.uint32)),
            "layer.weight@topk_val": np.ones(4, dtype=np.float32),
            "layer.bias": np.ones(2, dtype=np.float32)},
            meta={**trained.meta, MetaKey.TOPK_SPEC: {
                "layer.weight": {"shape": [2, 2], "dtype": "<f4"}}})


@pytest.mark.parametrize("aggregator", [InTimeAccumulateWeightedAggregator,
                                        CoordinateMedianAggregator],
                         ids=["fold", "median"])
def test_malformed_topk_update_drops_its_site_not_the_run(tmp_path, aggregator):
    job = FLJob(name="e2e-malformed", initial_weights=toy_weights(),
                learner_factory=lambda name: (MalformedTopKLearner if name == "site-2"
                                              else ToyLearner)(name),
                aggregator_factory=aggregator, num_rounds=3, min_clients=2)
    result = SimulatorRunner(replace(job, compression="delta+fp16+topk"), n_clients=3,
                             seed=0, run_dir=tmp_path / "bad", capture_log=False).run()
    assert result.stats.num_rounds == 3 and result.stats.failed_rounds == 0
    assert all(record.dropped_clients == ["site-2"]
               for record in result.stats.rounds)
    # the two honest sites move every weight by exactly +1 per round
    for value in result.final_weights.values():
        np.testing.assert_array_equal(value, 3.0)


@pytest.mark.chaos
def test_compressed_run_survives_lossy_bus(tmp_path):
    from repro.flare import FaultPlan

    plan = FaultPlan(seed=5, drop_prob=0.05, corrupt_prob=0.02)
    job = FLJob(name="e2e-chaos", initial_weights=toy_weights(),
                learner_factory=lambda name: ToyLearner(name),
                num_rounds=5, min_clients=1, result_timeout=20.0,
                max_failed_rounds=5)
    result = SimulatorRunner(replace(job, compression="delta+fp16"), n_clients=3, seed=0,
                             run_dir=tmp_path / "chaos", capture_log=False,
                             fault_plan=plan).run()
    # dropped/corrupt messages may cost contributions but never the run:
    # stale sites fall back to full broadcasts via the version protocol
    assert result.stats.num_rounds == 5
    for value in result.final_weights.values():
        assert np.all(np.isfinite(np.asarray(value, dtype=np.float64)))
