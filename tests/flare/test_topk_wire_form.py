"""The top-k pair's wire form: the first kept index, then the gap to each
next one, at the narrowest unsigned width that holds the largest
(:func:`repro.flare.filters.topk_gaps`).  :func:`topk_tensors` rebuilds the
absolute indices and rejects a malformed pair before anything folds."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.flare import (
    DXO,
    DataKind,
    DeltaDecode,
    FLContext,
    InTimeAccumulateWeightedAggregator,
    MetaKey,
)
from repro.flare.filters import WireForm, topk_gaps, topk_tensors

from .helpers import bert_topk_delta

CTX = FLContext(identity="site-1")

# width -> (smallest largest gap that forces it, one past the largest drawn)
WIDTHS = {np.uint8: (0, 2 ** 8), np.uint16: (2 ** 8, 2 ** 16),
          np.uint32: (2 ** 16, 2 ** 16 + 10_000)}


@st.composite
def index_sets(draw):
    """``(width, size, at least two strictly increasing indices)`` whose
    largest gap (the first index counts as one) forces ``width``."""
    width = draw(st.sampled_from(list(WIDTHS)))
    low, high = WIDTHS[width]
    gaps = [draw(st.integers(0, high - 1))]
    gaps += draw(st.lists(st.integers(1, high - 1), max_size=6 if width == np.uint32 else 40))
    gaps.insert(draw(st.integers(1, len(gaps))), draw(st.integers(max(low, 1), high - 1)))
    indices = np.cumsum(gaps, dtype=np.int64)
    size = int(indices[-1]) + 1 + draw(st.integers(0, 300))
    return width, size, indices


def wire_pair(size: int, indices: np.ndarray) -> tuple[DXO, np.ndarray]:
    """A WEIGHT_DIFF whose top-k keeps exactly ``indices`` of ``w``, through
    the codec, and the absolute indices ``WireForm.add`` returned."""
    value = np.zeros(size, np.float32)
    value[indices] = 1.0 + np.arange(indices.size, dtype=np.float32)
    wire = WireForm(top_k=indices.size / size, float16=True, min_size=1)
    _, kept = wire.add("w", value)
    wire.add("b", np.arange(3, dtype=np.int32))  # not float: stays dense
    return DXO.from_bytes(wire.to_dxo(DataKind.WEIGHT_DIFF, {}).to_bytes()), kept


@settings(max_examples=60, deadline=None)
@given(index_sets())
@example((np.uint8, 259, np.array([3, 4, 258])))      # gaps 3, 1, 254
@example((np.uint16, 302, np.array([300, 301])))      # gaps 300, 1
@example((np.uint32, 70_001, np.array([0, 70_000])))  # gaps 0, 70,000
def test_any_increasing_index_set_round_trips(case):
    width, size, indices = case
    received, kept = wire_pair(size, indices)
    np.testing.assert_array_equal(kept, indices)
    gaps = received.data["w@topk_idx"]
    assert gaps.dtype == width
    np.testing.assert_array_equal(gaps, np.diff(indices, prepend=0))
    values, decoded, shape = topk_tensors(received)["w"]
    assert shape == (size,)
    np.testing.assert_array_equal(decoded, indices)
    np.testing.assert_array_equal(values, 1.0 + np.arange(indices.size))


def malform(gaps: np.ndarray, values: np.ndarray, kind: str, size: int):
    """``(gaps, values)`` broken in one way: each kind fails its own check."""
    signed = gaps.astype(np.int64)
    if kind == "range":    # the last index lands on ``size``
        signed[-1] += size - int(signed.sum())
    elif kind == "repeat":
        signed[-1] = 0
    elif kind == "order":  # only a signed gap can go backwards
        signed[-1] = -1
    elif kind == "negative":
        signed[0] = -1
    elif kind == "length":
        return gaps, values[:-1]
    elif kind == "dtype":
        return gaps.astype(np.float32), values
    return signed, values


MALFORMATIONS = {"range": "past the end", "repeat": "gap below 1",
                 "order": "gap below 1", "negative": "negative first index",
                 "length": "mismatched", "dtype": "mismatched"}


@settings(max_examples=40, deadline=None)
@given(index_sets(), st.sampled_from(sorted(MALFORMATIONS)))
def test_a_malformed_pair_is_rejected_before_anything_folds(case, kind):
    _, size, indices = case
    received, _ = wire_pair(size, indices)
    gaps, values = malform(received.data["w@topk_idx"], received.data["w@topk_val"],
                           kind, size)
    data = {"w@topk_idx": gaps, "w@topk_val": values, "b": received.data["b"]}
    bad = DXO(DataKind.WEIGHT_DIFF, data=data,
              meta={**received.meta, MetaKey.BASE_VERSION: 0, MetaKey.MODEL_VERSION: 1})
    with pytest.raises(ValueError, match=MALFORMATIONS[kind]):
        topk_tensors(bad)

    aggregator = InTimeAccumulateWeightedAggregator(DataKind.WEIGHT_DIFF)
    assert aggregator.accept(received, "site-1", CTX)
    sums = {key: value.tobytes() for key, value in aggregator._sums.items()}
    assert not aggregator.accept(bad, "site-2", CTX)
    assert {key: value.tobytes() for key, value in aggregator._sums.items()} == sums
    assert aggregator.contributors == ["site-1"]

    decode = DeltaDecode()
    model = {"w": np.full(size, 2.0, np.float32), "b": np.arange(3, dtype=np.int32)}
    decode.process(DXO(DataKind.WEIGHTS, data=model, meta={MetaKey.MODEL_VERSION: 0}), CTX)
    with pytest.raises(ValueError, match=MALFORMATIONS[kind]):
        decode.process(bad, CTX)
    assert decode.cached_version == 0
    for key, value in model.items():
        assert decode._cache[key].tobytes() == value.tobytes()


@pytest.mark.parametrize("dtype", [np.int64, np.uint32])
@pytest.mark.parametrize("indices", [[2, 1], [1, 1], [-1, 0]],
                         ids=["order", "repeat", "negative"])
def test_gaps_refuse_indices_that_do_not_increase(indices, dtype):
    """A cast would wrap, not fail: int64 ``[2, 1]`` would ship as uint8
    ``[2, 255]``, which decodes to the valid-looking ``[2, 257]``."""
    with pytest.raises(ValueError, match="strictly increasing"):
        topk_gaps(np.array(indices).astype(dtype))


def test_a_bert_topk_fp16_delta_is_under_a_tenth_of_its_float32_bytes():
    """The byte gate: 10% of the values at fp16 plus 1-byte gaps is ~0.084
    of the raw float32 delta; 4-byte indices made it ~0.158."""
    dxo, raw = bert_topk_delta()
    payload = len(dxo.to_bytes())
    assert payload <= 0.09 * raw, payload / raw
