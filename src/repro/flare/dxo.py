"""DXO — the Data Exchange Object.

NVFlare moves model weights and metrics between components inside DXOs: a
``data_kind`` tag, a dict payload, and free-form metadata.  This module also
serializes them for the transport layer, pickle-free, so everything that
crosses the simulated network is actually serialized and deserialized.

The wire form is one RTC1 blob of :mod:`repro.flare.codec`: the arrays go
into its tensor block, and ``data_kind``, meta and scalars into its JSON
``extra``.  Decoded arrays are read-only views over the blob, and
:meth:`DXO.to_bytes_after` encodes straight into the transport's envelope.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

import numpy as np

from . import codec as _codec
from .constants import DataKind

__all__ = ["DXO", "MetaKey"]


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

    def to_bytes(self) -> bytes:
        """Serialize to one RTC1 blob."""
        arrays, scalars = self._split_payload()
        return _codec.encode_tensors(arrays, self._wire_extra(scalars))

    def to_bytes_after(self, prefix: bytes) -> bytearray:
        """``prefix + self.to_bytes()``, built for the transport: one
        allocation, and each tensor is copied once, straight from its array
        into place."""
        arrays, scalars = self._split_payload()
        return _codec.encode_tensors_after(prefix, arrays,
                                           self._wire_extra(scalars))

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
        """Decode an RTC1 blob; raises ``ValueError`` on corrupt blobs.

        ``blob`` is any bytes-like buffer (``bytes``, a ``memoryview`` of a
        socket receive buffer or an mmap); the arrays are read-only views
        over it.

        A blob off a faulty transport may be truncated or bit-flipped;
        :func:`~repro.flare.codec.decode_tensors` validates every length
        before it is used for slicing, so short or inconsistent blobs raise
        a clear :class:`ValueError` instead of a cryptic traceback.
        """
        arrays, extra = _codec.decode_tensors(blob)
        if "data_kind" not in extra:
            raise ValueError("corrupted DXO blob: tensor manifest carries "
                             "no data_kind")
        data: dict[str, Any] = dict(extra.get("scalars", {}))
        data.update(arrays)
        return cls(data_kind=extra["data_kind"], data=data,
                   meta=extra.get("meta", {}))

    def __repr__(self) -> str:
        return f"DXO(kind={self.data_kind}, keys={sorted(self.data)[:4]}..., meta={sorted(self.meta)})"
