"""The server's compressed path computed one tensor at a time, sparse where
it can be, against the whole-model public filter chains, bit for bit.

* ``Downlink`` builds a delta wave per tensor; the reference maps
  ``TopKSparsify`` → ``Float16Quantize`` → ``Float16Dequantize`` →
  ``TopKDensify`` over whole-model dicts.  Payload bytes, canonical global
  and error-feedback residual must be equal.
* ``InTimeAccumulateWeightedAggregator`` folds a top-k update at its kept
  indices; the reference folds its densified form.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flare import (
    DXO,
    CompressionConfig,
    DataKind,
    Downlink,
    Float16Dequantize,
    Float16Quantize,
    FLContext,
    InTimeAccumulateWeightedAggregator,
    MetaKey,
    TopKDensify,
    TopKSparsify,
)
from repro.flare.filters import diff_tensors, topk_gaps
from repro.flare.shareable import from_dxo

CTX = FLContext(identity="server")
CONFIGS = [CompressionConfig(delta=True, float16=fp16, top_k=top_k)
           for fp16 in (False, True) for top_k in (None, 0.1, 0.5)]
# steps of the global between waves: signed zeros, values that flush to
# fp16 zero (< 2**-25) or land on fp16 subnormals, and repeated magnitudes
# so top-k selection meets ties at its boundary
PALETTE = np.array([0.0, -0.0, 1e-9, -3e-8, 2e-7, -5e-6, 3e-5, 1e-3, -1e-3,
                    1e-3, 2.5e-2, -0.5, 4.0], dtype=np.float32)


def model(rng: np.random.Generator) -> dict[str, np.ndarray]:
    return {"big": rng.choice(PALETTE, size=(20, 30)),          # top-k'd
            "small": rng.choice(PALETTE, size=40),              # < min_size
            "wide": rng.choice(PALETTE, size=300).astype(np.float64),
            "mask": rng.random(12) < 0.5,
            "count": rng.integers(-3, 3, size=7)}


def step(weights, rng):
    moved = {}
    for key, value in weights.items():
        if value.dtype.kind == "b":
            moved[key] = value ^ (rng.random(value.shape) < 0.3)
        elif value.dtype.kind == "i":
            moved[key] = value + rng.integers(-1, 2, size=value.shape)
        else:
            moved[key] = (value + rng.choice(PALETTE, size=value.shape)).astype(value.dtype)
    return moved


class Reference:
    """The whole-model delta wave, written with the public filters."""

    def __init__(self, config: CompressionConfig) -> None:
        self.config = config
        self.last: dict | None = None
        self.residual: dict = {}

    def through_fp16(self, tensors):
        wire = Float16Quantize().process(DXO(DataKind.WEIGHT_DIFF, tensors), CTX)
        return Float16Dequantize().process(wire, CTX).data

    def wave(self, weights, version):
        config = self.config
        if config.float16:
            weights = self.through_fp16(weights)
        delta_bytes = None
        if self.last is not None:
            delta = {key: diff_tensors(weights[key], self.last[key]) for key in weights}
            for key, remainder in self.residual.items():
                if delta[key].dtype.kind == "f":
                    delta[key] = delta[key] + remainder
            payload = DXO(DataKind.WEIGHT_DIFF, delta,
                          meta={MetaKey.MODEL_VERSION: version,
                                MetaKey.BASE_VERSION: version - 1})
            if config.top_k:
                payload = TopKSparsify(ratio=config.top_k).process(payload, CTX)
            if config.float16:
                payload = Float16Quantize().process(payload, CTX)
            shipped = TopKDensify().process(
                Float16Dequantize().process(payload, CTX), CTX).data
            weights = {key: (self.last[key] + shipped[key]).astype(
                weights[key].dtype, copy=False) for key in weights}
            self.residual = {key: delta[key] - diff_tensors(weights[key], self.last[key])
                             for key in delta if delta[key].dtype.kind == "f"}
            delta_bytes = payload.to_bytes()
        full = DXO(DataKind.WEIGHTS, weights, meta={MetaKey.MODEL_VERSION: version})
        for task_filter in config.downlink_task_filters():
            full = task_filter.process(full, CTX)
        self.last = weights
        return weights, delta_bytes, full.to_bytes()


def assert_bitwise(actual: dict, expected: dict) -> None:
    assert list(actual) == list(expected)
    for key in expected:
        assert actual[key].dtype == expected[key].dtype, key
        assert actual[key].shape == expected[key].shape, key
        assert actual[key].tobytes() == expected[key].tobytes(), key


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CONFIGS), st.integers(0, 2 ** 32 - 1),
       st.integers(2, 5), st.booleans())
def test_per_tensor_downlink_matches_whole_model_chain(config, seed, waves, straggler):
    rng = np.random.default_rng(seed)
    sites = ["site-1", "site-2"]
    downlink, reference = Downlink(config), Reference(config)
    weights = model(rng)
    for version in range(waves):
        canonical, task, overrides = downlink.build(weights, sites, version, {}, CTX)
        expected, delta_bytes, full_bytes = reference.wave(weights, version)
        assert_bitwise(canonical, expected)
        assert_bitwise(downlink._residual, reference.residual)
        if version == 0:
            assert overrides is None and task["DXO"].to_bytes() == full_bytes
        else:
            assert overrides["site-1"]["DXO"].to_bytes() == delta_bytes
            # the full model is encoded only when a site needs it
            assert (task is None) == ("site-2" in overrides)
            if task is not None:
                assert task["DXO"].to_bytes() == full_bytes
        downlink.ack("site-1")
        if not straggler:
            downlink.ack("site-2")
        weights = step(canonical, rng)


FOLD_PALETTE = np.array([0.0, -0.0, 1.5, -2.25, 1e-30, np.inf, -np.inf, np.nan],
                        dtype=np.float32)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6),
       st.lists(st.sampled_from([0.25, 1.0, 3.0, 7.5]), min_size=1, max_size=6))
def test_sparse_fold_matches_dense_fold(seed, kept, weights):
    rng = np.random.default_rng(seed)
    sparse_agg = InTimeAccumulateWeightedAggregator(DataKind.WEIGHT_DIFF)
    dense_agg = InTimeAccumulateWeightedAggregator(DataKind.WEIGHT_DIFF)
    for index, weight in enumerate(weights):
        indices = np.sort(rng.choice(24, size=kept, replace=False)).astype(np.uint32)
        update = DXO(DataKind.WEIGHT_DIFF,
                     data={"w@topk_idx": topk_gaps(indices),
                           "w@topk_val": rng.choice(FOLD_PALETTE, size=kept),
                           "b": rng.choice(FOLD_PALETTE, size=3)},
                     meta={MetaKey.TOPK_SPEC: {"w": {"shape": [4, 6], "dtype": "<f4"}},
                           MetaKey.NUM_STEPS_CURRENT_ROUND: weight})
        dense = TopKDensify().process(update, CTX)
        with np.errstate(invalid="ignore"):  # inf - inf is part of the test
            assert sparse_agg.accept(update, f"site-{index}", CTX)
            assert dense_agg.accept(dense, f"site-{index}", CTX)
    assert_bitwise(sparse_agg._sums, dense_agg._sums)
    assert_bitwise(sparse_agg.aggregate(CTX).data, dense_agg.aggregate(CTX).data)
