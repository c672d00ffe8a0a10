"""DXO — the Data Exchange Object.

NVFlare moves model weights and metrics between components inside DXOs: a
``data_kind`` tag, a dict payload, and free-form metadata.  This module also
provides the pickle-free wire codecs used by the transport layer, so
everything that crosses the simulated network is actually serialized and
deserialized.

Two codecs are supported and auto-detected by magic on decode:

``raw`` (default)
    The zero-copy binary tensor codec of :mod:`repro.flare.codec` — JSON
    manifest + aligned little-endian buffers.  Decoded arrays are read-only
    views over the blob, and :meth:`DXO.to_bytes_after` encodes straight
    into the transport's envelope.
``npz``
    The original JSON-header + ``np.savez`` block.  Kept as a correctness
    oracle (the raw codec must round-trip bit-identically against it) and
    for on-disk checkpoints; select it per-call (``to_bytes(codec="npz")``)
    or process-wide with :func:`set_wire_codec`.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Mapping

import numpy as np

from . import codec as _codec
from .constants import DataKind

__all__ = ["DXO", "MetaKey", "set_wire_codec", "get_wire_codec"]

_MAGIC = b"DXO1"

_WIRE_CODECS = ("raw", "raw+deflate", "npz")
_default_codec = "raw"


def set_wire_codec(name: str) -> str:
    """Set the process-wide default wire codec; returns the previous one."""
    global _default_codec
    if name not in _WIRE_CODECS:
        raise ValueError(f"unknown wire codec {name!r} (choose from {_WIRE_CODECS})")
    old = _default_codec
    _default_codec = name
    return old


def get_wire_codec() -> str:
    return _default_codec


class MetaKey:
    """Common DXO metadata keys."""

    NUM_STEPS_CURRENT_ROUND = "NUM_STEPS_CURRENT_ROUND"
    INITIAL_METRICS = "INITIAL_METRICS"
    VALIDATION_METRICS = "VALIDATION_METRICS"
    CLIENT_NAME = "CLIENT_NAME"
    CURRENT_ROUND = "CURRENT_ROUND"
    # Wire-compression bookkeeping (see repro.flare.filters)
    MODEL_VERSION = "compression.model_version"
    BASE_VERSION = "compression.base_version"
    FP16_DTYPES = "compression.fp16_dtypes"
    TOPK_SPEC = "compression.topk"


class DXO:
    """A typed payload: ``data_kind`` + dict of arrays/scalars + metadata."""

    def __init__(self, data_kind: str, data: Mapping[str, Any],
                 meta: Mapping[str, Any] | None = None) -> None:
        if not isinstance(data, Mapping):
            raise TypeError("DXO data must be a mapping")
        self.data_kind = data_kind
        self.data: dict[str, Any] = dict(data)
        self.meta: dict[str, Any] = dict(meta or {})

    # ------------------------------------------------------------------
    def get_meta_prop(self, key: str, default: Any = None) -> Any:
        return self.meta.get(key, default)

    def set_meta_prop(self, key: str, value: Any) -> None:
        self.meta[key] = value

    def validate(self) -> None:
        """Sanity-check payload against its declared kind."""
        known = {DataKind.WEIGHTS, DataKind.WEIGHT_DIFF, DataKind.METRICS, DataKind.COLLECTION}
        if self.data_kind not in known:
            raise ValueError(f"unknown data_kind {self.data_kind!r}")
        if self.data_kind in (DataKind.WEIGHTS, DataKind.WEIGHT_DIFF):
            for key, value in self.data.items():
                if not isinstance(value, np.ndarray):
                    raise TypeError(f"{self.data_kind} entry {key!r} is not an ndarray")

    # ------------------------------------------------------------------
    def _split_payload(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        arrays: dict[str, np.ndarray] = {}
        scalars: dict[str, Any] = {}
        for key, value in self.data.items():
            if isinstance(value, np.ndarray):
                arrays[key] = value
            elif isinstance(value, (int, float, str, bool, list, dict, type(None))):
                scalars[key] = value
            elif isinstance(value, (np.integer, np.floating)):
                scalars[key] = value.item()
            else:
                raise TypeError(f"cannot serialize data entry {key!r} of type {type(value)!r}")
        return arrays, scalars

    def _wire_extra(self, scalars: dict[str, Any]) -> dict[str, Any]:
        return {"data_kind": self.data_kind, "meta": self.meta, "scalars": scalars}

    def to_bytes(self, codec: str | None = None) -> bytes:
        """Serialize with the given codec (default: the process-wide one)."""
        codec = codec or _default_codec
        arrays, scalars = self._split_payload()
        if codec in ("raw", "raw+deflate"):
            return _codec.encode_tensors(arrays, self._wire_extra(scalars),
                                         deflate=(codec == "raw+deflate"))
        if codec != "npz":
            raise ValueError(f"unknown wire codec {codec!r} (choose from {_WIRE_CODECS})")
        # legacy layout: [magic][u32 json_len][json header][npz tensors]
        header = json.dumps({
            "data_kind": self.data_kind,
            "meta": self.meta,
            "scalars": scalars,
            # insertion order, not sorted: consumers iterate state dicts in
            # order, and both codecs must reconstruct the same ordering
            "array_keys": list(arrays),
        }).encode("utf-8")
        tensor_block = _codec.encode_tensors_npz(arrays) if arrays else b""
        return _MAGIC + struct.pack("<I", len(header)) + header + tensor_block

    def to_bytes_after(self, prefix: bytes,
                       codec: str | None = None) -> bytes | bytearray:
        """``prefix + self.to_bytes(codec)``, built for the transport.

        With the raw codec this is one allocation and each tensor is copied
        once, straight from its array into place; ``raw+deflate`` and
        ``npz`` learn their size only by encoding, so they join a finished
        blob (one extra pass).
        """
        if (codec or _default_codec) == "raw":
            arrays, scalars = self._split_payload()
            return _codec.encode_tensors_after(prefix, arrays,
                                               self._wire_extra(scalars))
        return b"".join((prefix, self.to_bytes(codec)))

    def read_only_view(self) -> "DXO":
        """The DXO a receiver decodes from :meth:`to_bytes`, without encoding.

        Scalars and meta go through JSON as on the wire; the arrays are
        read-only views of this DXO's own (normalised) arrays, so no tensor
        is copied and a later change to them shows through.
        """
        arrays, scalars = self._split_payload()
        extra = json.loads(json.dumps(self._wire_extra(scalars)))
        data: dict[str, Any] = dict(extra["scalars"])
        for key, value in arrays.items():
            view = _codec._normalize(value).view()
            view.flags.writeable = False
            data[key] = view
        return DXO(data_kind=self.data_kind, data=data, meta=extra["meta"])

    @classmethod
    def from_bytes(cls, blob) -> "DXO":
        """Decode either wire format; raises ``ValueError`` on corrupt blobs.

        ``blob`` is any bytes-like buffer (``bytes``, a ``memoryview`` of a
        socket receive buffer or an mmap).  The arrays are read-only with
        either codec.

        A blob off a faulty transport may be truncated or bit-flipped, so
        every length is validated before it is used for slicing: short or
        inconsistent blobs raise a clear :class:`ValueError` instead of a
        cryptic struct/json/zip traceback.
        """
        if len(blob) < 4:
            raise ValueError(f"not a DXO blob: {len(blob)} byte(s) is shorter "
                             "than the 4-byte magic")
        magic = bytes(blob[:4])
        if magic == _codec.MAGIC:
            arrays, extra = _codec.decode_tensors(blob)
            if "data_kind" not in extra:
                raise ValueError("corrupted DXO blob: tensor manifest carries "
                                 "no data_kind")
            data: dict[str, Any] = dict(extra.get("scalars", {}))
            data.update(arrays)
            return cls(data_kind=extra["data_kind"], data=data,
                       meta=extra.get("meta", {}))
        if magic != _MAGIC:
            raise ValueError(f"not a DXO blob (bad magic {magic!r})")
        if len(blob) < 8:
            raise ValueError(f"truncated DXO blob: {len(blob)} byte(s) is "
                             "shorter than the 8-byte header prefix")
        (header_len,) = struct.unpack("<I", blob[4:8])
        if 8 + header_len > len(blob):
            raise ValueError(f"truncated DXO blob: header length {header_len} "
                             f"overruns the {len(blob)}-byte blob")
        try:
            header = json.loads(bytes(blob[8:8 + header_len]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"corrupted DXO blob: header is not valid JSON "
                             f"({error})") from error
        if not isinstance(header, dict) or "data_kind" not in header:
            raise ValueError("corrupted DXO blob: header carries no data_kind")
        data = dict(header.get("scalars", {}))
        tensor_block = blob[8 + header_len:]
        array_keys = header.get("array_keys", [])
        if array_keys:
            arrays = _codec.decode_tensors_npz(tensor_block, keys=list(array_keys))
            for array in arrays.values():
                array.flags.writeable = False  # like the raw codec's views
            data.update(arrays)
        return cls(data_kind=header["data_kind"], data=data, meta=header.get("meta", {}))

    def __repr__(self) -> str:
        return f"DXO(kind={self.data_kind}, keys={sorted(self.data)[:4]}..., meta={sorted(self.meta)})"
