"""Model checkpoint serialization.

State dicts (flat ``name -> ndarray`` mappings) are stored **on disk** as
``.npz`` archives — the zip container is a fine checkpoint format and stays
byte-compatible with every run directory written so far.  **In memory**
they become the federation's wire format, the zero-copy RTC1 tensor codec of
:mod:`repro.flare.codec` (JSON manifest + aligned raw little-endian
buffers).

Note on copies: ``np.load`` materializes a fresh array per member access
unless ``mmap_mode`` is requested (we never request it), so the historical
``.copy()`` on every parameter double-copied each tensor on every load; the
loads below return the materialized arrays directly.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path

import numpy as np

__all__ = ["save_state_dict", "load_state_dict", "state_dict_to_bytes", "state_dict_from_bytes"]


def save_state_dict(state: dict, path: str | Path) -> Path:
    """Write a state dict to ``path`` (``.npz`` appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **{key: np.asarray(value) for key, value in state.items()})
    return path


def load_state_dict(path: str | Path) -> "OrderedDict[str, np.ndarray]":
    """Read a state dict previously written by :func:`save_state_dict`."""
    with np.load(Path(path), allow_pickle=False) as archive:
        # in-memory (non-mmap) load: each access already yields a fresh
        # owned array, so no defensive copy is needed on top
        return OrderedDict((key, archive[key]) for key in archive.files)


def state_dict_to_bytes(state: dict) -> bytes:
    """Serialize a state dict to RTC1 wire bytes (no pickle)."""
    # imported lazily: repro.flare depends on this module for checkpoints,
    # so a module-level import back into repro.flare would be cyclic
    from ..flare.codec import encode_tensors

    return encode_tensors(state)


def state_dict_from_bytes(blob: bytes) -> "OrderedDict[str, np.ndarray]":
    """Inverse of :func:`state_dict_to_bytes`.

    The arrays are read-only zero-copy views over ``blob``; callers that
    mutate parameters in place (``Module.load_state_dict`` copies into its
    own buffers, so it is safe) need no copy, anyone else should copy
    explicitly.
    """
    from ..flare.codec import decode_tensors

    arrays, _extra = decode_tensors(blob)
    return arrays
