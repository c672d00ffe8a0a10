"""DXO data-exchange object and its wire codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.flare import DXO, DataKind, MetaKey


def weights_dxo():
    return DXO(data_kind=DataKind.WEIGHTS,
               data={"layer.weight": np.arange(6, dtype=np.float32).reshape(2, 3),
                     "layer.bias": np.zeros(3)},
               meta={MetaKey.NUM_STEPS_CURRENT_ROUND: 40, "site": "site-1"})


class TestBasics:
    def test_meta_props(self):
        dxo = weights_dxo()
        assert dxo.get_meta_prop("site") == "site-1"
        assert dxo.get_meta_prop("missing", 7) == 7
        dxo.set_meta_prop("x", 1)
        assert dxo.meta["x"] == 1

    def test_data_must_be_mapping(self):
        with pytest.raises(TypeError):
            DXO(DataKind.WEIGHTS, data=[1, 2])

    def test_validate_ok(self):
        weights_dxo().validate()

    def test_validate_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            DXO("GIBBERISH", data={}).validate()

    def test_validate_rejects_non_array_weights(self):
        with pytest.raises(TypeError):
            DXO(DataKind.WEIGHTS, data={"w": 3.0}).validate()

    def test_metrics_allow_scalars(self):
        DXO(DataKind.METRICS, data={"acc": 0.9}).validate()


class TestWireCodec:
    def test_roundtrip_arrays_and_meta(self):
        dxo = weights_dxo()
        restored = DXO.from_bytes(dxo.to_bytes())
        assert restored.data_kind == DataKind.WEIGHTS
        assert restored.meta == dxo.meta
        np.testing.assert_array_equal(restored.data["layer.weight"],
                                      dxo.data["layer.weight"])

    def test_roundtrip_scalars(self):
        dxo = DXO(DataKind.METRICS, data={"acc": 0.91, "n": 12, "name": "x",
                                          "flag": True, "none": None})
        restored = DXO.from_bytes(dxo.to_bytes())
        assert restored.data == dxo.data

    def test_dtype_and_shape_preserved(self):
        dxo = DXO(DataKind.WEIGHTS, data={"w": np.ones((2, 3, 4), dtype=np.float32)})
        w = DXO.from_bytes(dxo.to_bytes()).data["w"]
        assert w.dtype == np.float32 and w.shape == (2, 3, 4)

    def test_numpy_scalars_coerced(self):
        dxo = DXO(DataKind.METRICS, data={"acc": np.float64(0.5), "n": np.int64(3)})
        restored = DXO.from_bytes(dxo.to_bytes())
        assert restored.data["acc"] == 0.5 and restored.data["n"] == 3

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            DXO.from_bytes(b"NOPE" + b"\x00" * 10)

    def test_unserializable_payload_rejected(self):
        with pytest.raises(TypeError):
            DXO(DataKind.COLLECTION, data={"f": object()}).to_bytes()

    @pytest.mark.parametrize("codec", ["raw", "raw+deflate", "npz"])
    def test_decodes_from_a_view(self, codec):
        """Socket and shm bodies arrive as memoryviews."""
        restored = DXO.from_bytes(memoryview(weights_dxo().to_bytes(codec)))
        np.testing.assert_array_equal(restored.data["layer.weight"],
                                      weights_dxo().data["layer.weight"])
        assert restored.meta == weights_dxo().meta

    @pytest.mark.parametrize("codec", ["raw", "raw+deflate", "npz"])
    def test_arrays_from_a_writable_buffer_are_read_only(self, codec):
        """One envelope can back several recipients' arrays (the memory bus
        shares the sender's buffer), so none may be written through."""
        restored = DXO.from_bytes(bytearray(weights_dxo().to_bytes(codec)))
        for key, value in restored.data.items():
            assert not value.flags.writeable, key

    def test_empty_data(self):
        restored = DXO.from_bytes(DXO(DataKind.METRICS, data={}).to_bytes())
        assert restored.data == {}

    @settings(max_examples=25, deadline=None)
    @given(hnp.arrays(dtype=np.float32,
                      shape=hnp.array_shapes(max_dims=3, max_side=6),
                      elements=st.floats(-1e5, 1e5, width=32)))
    def test_property_array_roundtrip(self, array):
        dxo = DXO(DataKind.WEIGHTS, data={"w": array})
        np.testing.assert_array_equal(DXO.from_bytes(dxo.to_bytes()).data["w"], array)
