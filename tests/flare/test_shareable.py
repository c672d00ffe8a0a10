"""Shareable envelope."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flare import (
    DXO,
    DataKind,
    ReservedKey,
    ReturnCode,
    Shareable,
    from_dxo,
    make_reply,
    to_dxo,
)


def test_headers():
    s = Shareable()
    s.set_header("k", 1)
    assert s.get_header("k") == 1
    assert s.get_header("missing", "d") == "d"


def test_default_return_code_ok():
    assert Shareable().return_code == ReturnCode.OK


def test_set_return_code():
    s = make_reply(ReturnCode.EXECUTION_EXCEPTION)
    assert s.return_code == ReturnCode.EXECUTION_EXCEPTION


def test_task_name_and_round():
    s = Shareable()
    s.set_header(ReservedKey.TASK_NAME, "train")
    s.set_header(ReservedKey.ROUND_NUMBER, 4)
    assert s.task_name == "train" and s.current_round == 4


def test_dxo_roundtrip_through_shareable():
    dxo = DXO(DataKind.WEIGHTS, data={"w": np.ones(3)}, meta={"site": "s1"})
    s = from_dxo(dxo)
    restored = to_dxo(s)
    np.testing.assert_array_equal(restored.data["w"], np.ones(3))
    assert restored.meta["site"] == "s1"


def test_local_shareable_decodes_like_the_wire_without_copying():
    weights = np.ones(3, dtype=np.float32)
    dxo = DXO(DataKind.WEIGHTS, data={"w": weights, "n": np.int64(3)},
              meta={"pair": (1, 2)})
    restored = to_dxo(from_dxo(dxo))
    assert np.shares_memory(restored.data["w"], weights)
    assert not restored.data["w"].flags.writeable
    assert type(restored.data["n"]) is int and restored.data["n"] == 3
    assert restored.meta == {"pair": [1, 2]}  # through JSON, as received
    restored.meta["extra"] = 1
    assert "extra" not in dxo.meta


def test_to_dxo_without_payload_raises():
    with pytest.raises(ValueError, match="DXO"):
        to_dxo(Shareable())


def test_shareable_is_dict():
    s = Shareable({"a": 1})
    assert dict(s) == {"a": 1}
