"""Zero-copy tensor codec: round-trips, accounting, golden bytes and
corruption fuzzing.

RTC1 is the federation's one wire format.  It must (a) round-trip every
supported payload bit-exactly, (b) keep its bytes fixed across releases and
(c) answer corrupted or truncated bytes with a clear ``ValueError`` — never
a cryptic struct/json traceback.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.flare import DXO, DataKind, MetaKey, codec
from repro.flare.codec import (
    ALIGNMENT,
    MAGIC,
    decode_tensors,
    encode_tensors,
    reset_wire_metrics,
    wire_totals,
)
from repro.flare.filters import topk_gaps

SAMPLE = {
    "weight": np.arange(24, dtype=np.float32).reshape(2, 3, 4) / 7.0,
    "bias": np.array([-1.5, 0.0, 2.25], dtype=np.float64),
    "steps": np.array(123, dtype=np.int64),          # 0-d scalar
    "empty": np.zeros((0, 5), dtype=np.float32),     # empty tensor
    "mask": np.array([True, False, True]),
    "half": np.linspace(-2, 2, 17, dtype=np.float16),
}


@pytest.fixture(autouse=True)
def _fresh_wire_registry():
    old = reset_wire_metrics()
    yield
    codec.wire_metrics = old


# ---------------------------------------------------------------------------
# round-trips
# ---------------------------------------------------------------------------
def test_roundtrip_preserves_everything():
    blob = encode_tensors(SAMPLE, extra={"data_kind": "WEIGHTS", "round": 3})
    arrays, extra = decode_tensors(blob)
    assert list(arrays) == list(SAMPLE)
    for key, original in SAMPLE.items():
        decoded = arrays[key]
        assert decoded.dtype == original.dtype, key
        assert decoded.shape == original.shape, key
        np.testing.assert_array_equal(decoded, original)
    assert extra == {"data_kind": "WEIGHTS", "round": 3}


def test_decoded_arrays_are_zero_copy_readonly_views():
    blob = encode_tensors({"w": SAMPLE["weight"]})
    arrays, _ = decode_tensors(blob)
    view = arrays["w"]
    assert not view.flags.writeable
    assert view.base is not None  # a view over the blob, not an owned copy
    with pytest.raises((ValueError, RuntimeError)):
        view[0, 0, 0] = 1.0


def test_tensor_block_is_aligned():
    blob = encode_tensors(SAMPLE)
    (manifest_len,) = np.frombuffer(blob[4:8], dtype="<u4")
    head = 8 + int(manifest_len)
    block_start = head + (-head % ALIGNMENT)
    assert block_start % ALIGNMENT == 0
    assert blob[:4] == MAGIC


def test_big_endian_input_is_normalized():
    be = np.arange(6, dtype=">f8").reshape(2, 3)
    arrays, _ = decode_tensors(encode_tensors({"w": be}))
    assert arrays["w"].dtype == np.dtype("<f8")
    np.testing.assert_array_equal(arrays["w"], be.astype("<f8"))


def test_object_dtype_is_rejected():
    with pytest.raises(ValueError, match="unsupported tensor dtype"):
        encode_tensors({"bad": np.array([object()])})


def test_empty_mapping_roundtrips():
    arrays, extra = decode_tensors(encode_tensors({}, extra={"k": 1}))
    assert arrays == {}
    assert extra == {"k": 1}


# ---------------------------------------------------------------------------
# golden bytes: the wire format does not drift
# ---------------------------------------------------------------------------
GOLDEN_DXO = DXO(DataKind.WEIGHT_DIFF, data={
    "dense": np.arange(12, dtype=np.float32).reshape(3, 4) / 8.0,
    "half": np.linspace(-1.0, 1.0, 6).astype(np.float16),
    "sparse@topk_idx": topk_gaps(np.array([2, 5, 300], dtype=np.uint32)),
    "sparse@topk_val": np.array([0.5, -1.25, 3.0], dtype=np.float32),
    "steps": 7, "lr": 0.125, "site": "site-1"},
    meta={MetaKey.FP16_DTYPES: {"half": "<f4"},
          MetaKey.TOPK_SPEC: {"sparse": {"shape": [16, 32], "dtype": "<f4"}},
          MetaKey.MODEL_VERSION: 3})
GOLDEN_SHA256 = "727be51003c511b1c69f7a7ab443130faf77af1693218c75aa0d68b485d5939a"


def test_dxo_bytes_match_the_golden_digest():
    """A dense tensor, an fp16 tensor, a top-k gap/value pair and scalars
    encode to the same 908 bytes as every earlier release: a change here is
    a wire-format change, not a refactor."""
    blob = GOLDEN_DXO.to_bytes()
    assert len(blob) == 908
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256


# ---------------------------------------------------------------------------
# byte accounting
# ---------------------------------------------------------------------------
def test_wire_totals_track_raw_and_encoded_bytes():
    blob = encode_tensors(SAMPLE)
    decode_tensors(blob)
    totals = wire_totals()
    raw = sum(a.nbytes for a in SAMPLE.values())
    assert totals["transport.bytes_raw{codec=raw}"] == 2 * raw  # encode + decode
    assert totals["transport.bytes_encoded{codec=raw}"] == 2 * len(blob)


# ---------------------------------------------------------------------------
# corruption / truncation fuzzing (chaos tier)
# ---------------------------------------------------------------------------
@pytest.mark.chaos
def test_truncated_raw_blob_always_raises_value_error():
    blob = encode_tensors(SAMPLE)
    rng = np.random.default_rng(7)
    cuts = {0, 1, 4, 7, 8, len(blob) - 1}
    cuts.update(int(c) for c in rng.integers(0, len(blob), size=40))
    for cut in sorted(cuts):
        with pytest.raises(ValueError):
            decode_tensors(blob[:cut])


@pytest.mark.chaos
def test_bitflipped_raw_header_raises_value_error():
    blob = encode_tensors(SAMPLE)
    (manifest_len,) = np.frombuffer(blob[4:8], dtype="<u4")
    header_end = 8 + int(manifest_len)
    rng = np.random.default_rng(11)
    for _ in range(60):
        position = int(rng.integers(0, header_end))
        flipped = bytearray(blob)
        flipped[position] ^= 1 << int(rng.integers(0, 8))
        try:
            arrays, extra = decode_tensors(bytes(flipped))
        except ValueError:
            continue  # the expected, clearly-typed failure
        # A flip inside the JSON manifest may still parse (e.g. a digit in
        # "round" changed); whatever decodes must still be structurally sane.
        for array in arrays.values():
            assert array.nbytes >= 0


@pytest.mark.chaos
def test_manifest_lies_are_caught():
    import json
    import struct

    def rebuild(mutate):
        blob = encode_tensors(SAMPLE)
        (manifest_len,) = struct.unpack_from("<I", blob, 4)
        manifest = json.loads(blob[8:8 + manifest_len].decode())
        mutate(manifest)
        body = json.dumps(manifest).encode()
        head = MAGIC + struct.pack("<I", len(body)) + body
        pad = -len(head) % ALIGNMENT
        # keep the original tensor block
        old_head = 8 + manifest_len
        block = blob[old_head + (-old_head % ALIGNMENT):]
        return head + b"\x00" * pad + block

    def oversize(m):
        m["tensors"][0]["nbytes"] = 1 << 40
        m["tensors"][0]["shape"] = [1 << 38]

    def bad_dtype(m):
        m["tensors"][0]["dtype"] = "not-a-dtype"

    def shape_mismatch(m):
        m["tensors"][0]["shape"] = [99, 99]

    def negative_offset(m):
        m["tensors"][0]["offset"] = -8

    def drop_table(m):
        del m["tensors"]

    def names_a_transform(m):
        m["transform"] = "shuffle-deflate"

    for mutate in (oversize, bad_dtype, shape_mismatch, negative_offset, drop_table,
                   names_a_transform):
        with pytest.raises(ValueError, match="corrupted tensor blob"):
            decode_tensors(rebuild(mutate))
