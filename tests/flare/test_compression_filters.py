"""Wire-compression filters: round-trip fidelity through the real codec.

Every filter is exercised inside a FilterChain *and* through a full
encode→decode cycle (DXO → bytes → DXO), because that is how it runs in
production: the transforming side serializes, the restoring side gets
read-only views off the blob.  Lossless filters must restore dtype, shape,
data_kind and every value bit-exactly; fp16 and top-k are held to their
documented error bounds.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flare import (
    DXO,
    CompressionConfig,
    DataKind,
    DeltaDecode,
    DeltaEncode,
    Downlink,
    ExcludeVars,
    FilterChain,
    FLContext,
    Float16Dequantize,
    Float16Quantize,
    GaussianPrivacy,
    MetaKey,
    NormClipPrivacy,
    PercentilePrivacy,
    ReservedKey,
    TopKDensify,
    TopKSparsify,
)

from repro.flare.filters import topk_gaps

from .test_compressed_bit_identity import CONFIGS, model, step

RNG = np.random.default_rng(42)

PAYLOAD = {
    "dense.weight": RNG.normal(size=(32, 16)).astype(np.float32),
    "dense.bias": RNG.normal(size=16).astype(np.float64),
    "step": np.array(7, dtype=np.int64),            # 0-d
    "empty": np.zeros((0, 3), dtype=np.float32),    # empty
    "mask": RNG.integers(0, 2, size=8).astype(bool),
}


def wire_roundtrip(dxo: DXO) -> DXO:
    """Serialize with the default (raw) codec and decode, as the bus does."""
    return DXO.from_bytes(dxo.to_bytes())


def make_dxo(kind: str = DataKind.WEIGHTS) -> DXO:
    return DXO(data_kind=kind,
               data={k: v.copy() for k, v in PAYLOAD.items()},
               meta={"round": 1})


def assert_payload_structure(result: DXO, reference: dict) -> None:
    assert set(result.data) == set(reference)
    for key, original in reference.items():
        decoded = np.asarray(result.data[key])
        assert decoded.dtype == original.dtype, key
        assert decoded.shape == original.shape, key


def test_wire_codecs_preserve_key_order():
    """Consumers iterate state dicts in order (e.g. drawing per-tensor RNG
    streams), so the codec must reconstruct the insertion order — a codec
    that sorted keys would silently desync such consumers."""
    dxo = make_dxo()
    decoded = DXO.from_bytes(dxo.to_bytes())
    arrays = [k for k in dxo.data if isinstance(dxo.data[k], np.ndarray)]
    assert [k for k in decoded.data if k in arrays] == arrays


# ---------------------------------------------------------------------------
# lossless filters: exact round-trip through chain + codec
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("chain_filters", [
    [],
    [Float16Dequantize()],          # no-op without quantize metadata
    [TopKDensify()],                # no-op without top-k metadata
], ids=["empty-chain", "dequantize-noop", "densify-noop"])
def test_lossless_chains_are_bit_exact(chain_filters):
    ctx = FLContext(identity="test")
    result = wire_roundtrip(FilterChain(chain_filters).process(make_dxo(), ctx))
    assert result.data_kind == DataKind.WEIGHTS
    assert_payload_structure(result, PAYLOAD)
    for key, original in PAYLOAD.items():
        np.testing.assert_array_equal(np.asarray(result.data[key]), original)


def test_delta_encode_decode_is_bit_exact():
    ctx = FLContext(identity="site-1")
    base = {k: v.copy() for k, v in PAYLOAD.items()}
    ctx.set_prop(ReservedKey.GLOBAL_MODEL, base)

    trained = DXO(DataKind.WEIGHTS,
                  data={k: (np.logical_not(v) if v.dtype == bool else v + 1)
                        for k, v in PAYLOAD.items()},
                  meta={MetaKey.MODEL_VERSION: 5})
    diff = DeltaEncode().process(trained, ctx)
    assert diff.data_kind == DataKind.WEIGHT_DIFF
    decoded = wire_roundtrip(diff)
    assert set(decoded.data) == set(PAYLOAD)
    for key, original in PAYLOAD.items():
        entry = np.asarray(decoded.data[key])
        assert entry.shape == original.shape, key
        # bool has no subtraction: its diff crosses the wire as int8
        expected_dtype = np.int8 if original.dtype == bool else original.dtype
        assert entry.dtype == expected_dtype, key

    # server side: FedAvg over diffs then apply — here a single client, so
    # applying the diff to the base must reproduce the trained weights
    for key in PAYLOAD:
        restored = (base[key] + np.asarray(decoded.data[key])
                    ).astype(base[key].dtype)
        np.testing.assert_array_equal(restored, np.asarray(trained.data[key]))


def test_downlink_delta_decode_reconstructs_and_tracks_versions():
    ctx = FLContext(identity="site-1")
    decode = DeltaDecode()
    full = DXO(DataKind.WEIGHTS, data={"w": np.ones(4, dtype=np.float32)},
               meta={MetaKey.MODEL_VERSION: 0})
    out = decode.process(wire_roundtrip(full), ctx)
    assert decode.cached_version == 0
    np.testing.assert_array_equal(out.data["w"], np.ones(4, dtype=np.float32))

    delta = DXO(DataKind.WEIGHT_DIFF, data={"w": np.full(4, 0.5, np.float32)},
                meta={MetaKey.MODEL_VERSION: 1, MetaKey.BASE_VERSION: 0})
    out = decode.process(wire_roundtrip(delta), ctx)
    assert out.data_kind == DataKind.WEIGHTS
    assert decode.cached_version == 1
    np.testing.assert_array_equal(out.data["w"], np.full(4, 1.5, np.float32))
    assert MetaKey.BASE_VERSION not in out.meta

    stale = DXO(DataKind.WEIGHT_DIFF, data={"w": np.ones(4, np.float32)},
                meta={MetaKey.MODEL_VERSION: 9, MetaKey.BASE_VERSION: 7})
    with pytest.raises(ValueError, match="full broadcast"):
        decode.process(wire_roundtrip(stale), ctx)

    renamed = DXO(DataKind.WEIGHT_DIFF, data={"other": np.ones(4, np.float32)},
                  meta={MetaKey.MODEL_VERSION: 2, MetaKey.BASE_VERSION: 1})
    with pytest.raises(ValueError, match="different parameters"):
        decode.process(wire_roundtrip(renamed), ctx)


def test_a_rejected_delta_leaves_the_cache_whole():
    """Malformed deltas raise before any cache entry is replaced, so the
    next good delta still applies to the model the server holds."""
    ctx = FLContext(identity="site-1")
    decode = DeltaDecode()
    ones = {"a": np.ones(300, np.float32), "b": np.ones(4, np.float32)}
    decode.process(wire_roundtrip(DXO(DataKind.WEIGHTS, data=ones,
                                      meta={MetaKey.MODEL_VERSION: 0})), ctx)
    versions = {MetaKey.MODEL_VERSION: 1, MetaKey.BASE_VERSION: 0}
    reshaped = DXO(DataKind.WEIGHT_DIFF, meta=versions,
                   data={"a": np.ones(300, np.float32), "b": np.ones((2, 4), np.float32)})
    with pytest.raises(ValueError, match="shapes"):
        decode.process(wire_roundtrip(reshaped), ctx)
    broken_pair = DXO(DataKind.WEIGHT_DIFF,
                      meta={**versions, MetaKey.TOPK_SPEC: {
                          "b": {"shape": [4], "dtype": "<f4"}}},
                      data={"a": np.ones(300, np.float32),
                            "b@topk_idx": np.array([2, -1]),  # indices 2, 1
                            "b@topk_val": np.ones(2, np.float32)})
    with pytest.raises(ValueError, match="strictly increasing"):
        decode.process(wire_roundtrip(broken_pair), ctx)
    good = DXO(DataKind.WEIGHT_DIFF, meta=versions,
               data={"a": np.full(300, 0.5, np.float32), "b": np.full(4, 0.5, np.float32)})
    restored = decode.process(wire_roundtrip(good), ctx)
    assert decode.cached_version == 1
    for key in ones:
        np.testing.assert_array_equal(restored.data[key], 1.5)


def test_delta_encode_without_base_passes_through():
    ctx = FLContext(identity="site-1")
    dxo = make_dxo()
    out = DeltaEncode().process(dxo, ctx)
    assert out.data_kind == DataKind.WEIGHTS
    assert out is dxo


def decode_wave(downlink: Downlink, decode: FilterChain, weights, version: int,
                ctx: FLContext):
    """One downlink wave to ``site-1`` through the wire: ``(canonical
    global, received payload, the site's decoded task)``."""
    canonical, task, overrides = downlink.build(weights, ["site-1"], version, {},
                                                FLContext(identity="server"))
    payload = (overrides or {}).get("site-1", task)
    received = DXO.from_bytes(payload["DXO"].to_bytes())
    return canonical, received, decode.process(received, ctx)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CONFIGS), st.integers(0, 2 ** 32 - 1), st.integers(2, 4))
def test_site_filters_match_the_whole_model_chain(config, seed, waves):
    """The site's one-pass DeltaDecode / DeltaEncode against the
    whole-model stages chained: same bits, same key order, both ways."""
    rng = np.random.default_rng(seed)
    ctx = FLContext(identity="site-1")
    downlink = Downlink(config)
    decode = FilterChain(config.client_task_filters())
    encode = FilterChain(config.client_result_filters())
    weights, cache = model(rng), None
    for version in range(waves):
        canonical, received, task = decode_wave(downlink, decode, weights,
                                                version, ctx)
        dense = TopKDensify().process(Float16Dequantize().process(received, ctx), ctx)
        if cache is None:
            expected = dense.data
        else:
            expected = {key: (cache[key] + value).astype(cache[key].dtype, copy=False)
                        for key, value in dense.data.items()}
        cache = {key: np.array(value) for key, value in expected.items()}
        assert list(task.data) == list(expected)
        for key, value in task.data.items():
            assert value.dtype == expected[key].dtype, key
            assert value.tobytes() == expected[key].tobytes() == canonical[key].tobytes()
        assert task.get_meta_prop(MetaKey.MODEL_VERSION) == version

        ctx.set_prop(ReservedKey.GLOBAL_MODEL, task.data)
        trained = DXO(DataKind.WEIGHTS, data=step(task.data, rng), meta={"n": 3})
        chain = [DeltaEncode()]
        if config.top_k:
            chain.append(TopKSparsify(ratio=config.top_k))
        if config.float16:
            chain.append(Float16Quantize())
        assert encode.process(trained, ctx).to_bytes() == \
            FilterChain(chain).process(trained, ctx).to_bytes()
        downlink.ack("site-1")
        weights = step(canonical, rng)


@pytest.mark.parametrize("spec", ["delta", "delta+fp16", "delta+fp16+topk:0.1"])
def test_an_in_place_write_cannot_corrupt_the_delta_base(spec):
    """A learner that updates its task in place must not move the cache the
    next delta is added to: the task is read-only views of it."""
    config = CompressionConfig.from_spec(spec)
    ctx = FLContext(identity="site-1")
    downlink = Downlink(config)
    decode = FilterChain(config.client_task_filters())
    weights = {"w": np.linspace(-1.0, 1.0, 600, dtype=np.float32),
               "b": np.arange(5, dtype=np.float64)}
    for version in range(3):
        canonical, _, task = decode_wave(downlink, decode, weights, version, ctx)
        for key, value in task.data.items():
            assert value.tobytes() == canonical[key].tobytes(), (version, key)
            with contextlib.suppress(ValueError):
                value += 1.0  # training in place
        downlink.ack("site-1")
        weights = {key: value * 0.5 + 0.25 for key, value in canonical.items()}


# ---------------------------------------------------------------------------
# lossy filters: structure preserved, error bounded
# ---------------------------------------------------------------------------
def test_fp16_quantize_dequantize_preserves_structure_and_bounds_error():
    ctx = FLContext(identity="test")
    chain = FilterChain([Float16Quantize()])
    quantized = wire_roundtrip(chain.process(make_dxo(), ctx))
    # on the wire: floats travel as fp16, everything else untouched
    assert np.asarray(quantized.data["dense.weight"]).dtype == np.float16
    assert np.asarray(quantized.data["dense.bias"]).dtype == np.float16
    assert np.asarray(quantized.data["step"]).dtype == np.int64
    assert np.asarray(quantized.data["mask"]).dtype == bool

    restored = Float16Dequantize().process(quantized, ctx)
    assert restored.data_kind == DataKind.WEIGHTS
    assert_payload_structure(restored, PAYLOAD)
    assert MetaKey.FP16_DTYPES not in restored.meta
    for key in ("dense.weight", "dense.bias"):
        original = PAYLOAD[key].astype(np.float64)
        decoded = np.asarray(restored.data[key]).astype(np.float64)
        # fp16 relative rounding error is 2^-11 ≈ 4.9e-4
        np.testing.assert_allclose(decoded, original, rtol=1e-3, atol=1e-4)
    np.testing.assert_array_equal(restored.data["step"], PAYLOAD["step"])
    np.testing.assert_array_equal(restored.data["mask"], PAYLOAD["mask"])


def test_topk_sparsify_densify_keeps_largest_entries_exact():
    ctx = FLContext(identity="test")
    diff = DXO(DataKind.WEIGHT_DIFF,
               data={"w": RNG.normal(size=1024).astype(np.float32),
                     "tiny": np.full(4, 3.0, dtype=np.float32),
                     "step": np.array(7, dtype=np.int64)})
    sparse = wire_roundtrip(
        TopKSparsify(ratio=0.25, min_size=256).process(diff, ctx))
    assert "w@topk_idx" in sparse.data and "w@topk_val" in sparse.data
    assert "w" not in sparse.data
    np.testing.assert_array_equal(sparse.data["tiny"], diff.data["tiny"])

    dense = TopKDensify().process(sparse, ctx)
    assert dense.data_kind == DataKind.WEIGHT_DIFF
    assert set(dense.data) == {"w", "tiny", "step"}
    restored = np.asarray(dense.data["w"])
    assert restored.dtype == np.float32 and restored.shape == (1024,)
    original = diff.data["w"]
    kept = restored != 0
    assert kept.sum() >= 1024 // 4 - 1
    np.testing.assert_array_equal(restored[kept], original[kept])
    # dropped entries are exactly the smallest magnitudes
    assert np.max(np.abs(original[~kept])) <= np.min(np.abs(original[kept]))


def test_topk_never_touches_full_weights():
    ctx = FLContext(identity="test")
    dxo = make_dxo(DataKind.WEIGHTS)
    assert TopKSparsify(ratio=0.01).process(dxo, ctx) is dxo


def test_topk_densify_missing_pair_raises():
    ctx = FLContext(identity="test")
    broken = DXO(DataKind.WEIGHT_DIFF, data={"w@topk_idx": topk_gaps(np.arange(3))},
                 meta={MetaKey.TOPK_SPEC: {"w": {"shape": [10], "dtype": "<f4"}}})
    with pytest.raises(ValueError, match="missing"):
        TopKDensify().process(broken, ctx)


# ---------------------------------------------------------------------------
# privacy filters through the codec: structure survives serialization
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("privacy_filter", [
    ExcludeVars(["nope.*"]),
    GaussianPrivacy(sigma0=0.01, seed=3),
    PercentilePrivacy(percentile=5.0),
    NormClipPrivacy(max_norm=1e6),
], ids=["exclude", "gaussian", "percentile", "normclip"])
def test_privacy_filters_preserve_structure_through_codec(privacy_filter):
    ctx = FLContext(identity="test")
    chain = FilterChain([privacy_filter])
    result = wire_roundtrip(chain.process(make_dxo(), ctx))
    assert result.data_kind == DataKind.WEIGHTS
    assert_payload_structure(result, PAYLOAD)


def test_full_uplink_chain_composes():
    """delta → top-k → fp16 uplink vs fp16-dequant server side; the server
    keeps top-k sparse, so densify explicitly to inspect the update."""
    ctx = FLContext(identity="site-1")
    config = CompressionConfig(float16=True, top_k=0.5)
    base = {"w": np.zeros(512, dtype=np.float32)}
    ctx.set_prop(ReservedKey.GLOBAL_MODEL, base)
    trained = DXO(DataKind.WEIGHTS,
                  data={"w": RNG.normal(size=512).astype(np.float32)})

    uplink = FilterChain(config.client_result_filters()).process(trained, ctx)
    received = wire_roundtrip(uplink)
    server = FilterChain(config.server_result_filters()).process(
        received, FLContext(identity="server"))
    assert "w@topk_idx" in server.data and "w@topk_val" in server.data
    server = TopKDensify().process(server, FLContext(identity="server"))

    assert server.data_kind == DataKind.WEIGHT_DIFF
    restored = np.asarray(server.data["w"])
    assert restored.dtype == np.float32 and restored.shape == (512,)
    kept = restored != 0
    assert int(kept.sum()) == 256
    np.testing.assert_allclose(restored[kept], trained.data["w"][kept],
                               rtol=1e-3, atol=1e-4)


# ---------------------------------------------------------------------------
# CompressionConfig.from_spec
# ---------------------------------------------------------------------------
def test_from_spec_tokens():
    config = CompressionConfig.from_spec("delta+fp16+topk:0.05")
    assert config.float16 and config.top_k == 0.05

    config = CompressionConfig.from_spec("delta")
    assert not config.float16 and config.top_k is None
    assert CompressionConfig.from_spec("delta+topk").top_k == 0.1

    assert CompressionConfig.from_spec(None) is None
    passthrough = CompressionConfig(float16=True)
    assert CompressionConfig.from_spec(passthrough) is passthrough


# every compressed job is a delta job: a spec without ``delta`` is rejected,
# and so are ``deflate`` and ``no-downlink-delta``
@pytest.mark.parametrize("bad", ["", "lz4", "delta+bogus", "deflate",
                                 "delta+no-downlink-delta", "fp16", "topk:0.1"])
def test_from_spec_rejects_unknown_tokens(bad):
    with pytest.raises(ValueError):
        CompressionConfig.from_spec(bad)


def test_filter_chain_layout_matches_config():
    config = CompressionConfig(float16=True, top_k=0.1)
    # a site runs one filter each way, and it runs every stage
    [encode] = config.client_result_filters()
    assert type(encode) is DeltaEncode
    assert (encode.top_k, encode.float16) == (0.1, True)
    assert [type(f).__name__ for f in config.client_task_filters()] == ["DeltaDecode"]
    no_topk = CompressionConfig(float16=True)
    assert [type(f).__name__ for f in no_topk.client_task_filters()] == ["DeltaDecode"]
    assert (no_topk.client_result_filters()[0].top_k,
            no_topk.client_result_filters()[0].float16) == (None, True)
    # top-k updates reach the aggregator sparse: no densify on the server
    assert [type(f).__name__ for f in config.server_result_filters()] == \
        ["Float16Dequantize"]
    # fresh instances every call: DeltaDecode is per-client state
    assert config.client_task_filters()[0] is not config.client_task_filters()[0]


def test_adapt_aggregator_flips_expected_kind():
    class FakeAggregator:
        expected_data_kind = DataKind.WEIGHTS

    aggregator = FakeAggregator()
    CompressionConfig().adapt_aggregator(aggregator)
    assert aggregator.expected_data_kind == DataKind.WEIGHT_DIFF

    # only a WEIGHTS expectation is rewritten
    untouched = FakeAggregator()
    untouched.expected_data_kind = DataKind.METRICS
    CompressionConfig().adapt_aggregator(untouched)
    assert untouched.expected_data_kind == DataKind.METRICS
