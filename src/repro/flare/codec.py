"""Zero-copy binary tensor codec — the federation's wire format.

The original wire path funnelled every tensor through ``np.savez``: a zip
container with per-member headers, CRC32 passes and several full copies of
each array (array → npy stream → zip member → final bytes).  This codec
replaces it with a flat layout that is written and read without intermediate
copies:

    [magic "RTC1"][u32 manifest_len][JSON manifest][pad][tensor block]

The manifest describes each tensor (name, little-endian dtype, shape, byte
offset, byte length) plus a free-form ``extra`` JSON document for whoever is
framing the blob (the DXO stores its ``data_kind``/``meta``/scalars there).
Tensor data starts at a 64-byte-aligned offset and every tensor is aligned
within the block, so decoding is ``np.frombuffer`` — a view into the blob,
no copy at all — and encoding is a single ``np.copyto`` per tensor into a
preallocated buffer (the one unavoidable copy onto the wire).  The transport
preallocates that buffer as the whole message envelope
(:func:`encode_tensors_after`), so nothing copies the blob afterwards.

Decoded arrays are **read-only views** over the received blob; callers that
need to mutate must copy (``decode_tensors(..., copy=True)`` does it for
them).  Every consumer in this repo — ``Module.load_state_dict`` writes into
its own parameters, aggregators accumulate into float64 sums, filters build
new arrays — is view-safe.

An optional lossless ``shuffle-deflate`` transform (per-tensor byte shuffle
followed by zlib over the whole block, the HDF5 trick) trades the zero-copy
property of the tensor block for smaller blobs; it is applied on top of the
same layout and recorded in the manifest, so decode is self-describing.

All decode failures raise :class:`ValueError` with a message naming what was
wrong (truncated blob, bad magic, manifest overrun, tensor out of bounds,
unsupported dtype) — corrupted bytes off a faulty transport must never
surface as cryptic ``struct``/``json``/``zlib`` tracebacks.

Byte accounting (``transport.bytes_raw`` vs ``transport.bytes_encoded``) and
encode/decode timings land in an always-on module registry mirrored into the
process-wide :mod:`repro.obs` registry, so a telemetry session sees them
without extra wiring.
"""

from __future__ import annotations

import io
import json
import math
import struct
import time
import zipfile
import zlib
from collections import OrderedDict
from typing import Any, Mapping

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.metrics import MetricsRegistry

__all__ = [
    "MAGIC", "ALIGNMENT", "encode_tensors", "encode_tensors_after",
    "decode_tensors",
    "encode_tensors_npz", "decode_tensors_npz",
    "wire_metrics", "wire_totals", "reset_wire_metrics",
]

MAGIC = b"RTC1"
ALIGNMENT = 64

# Always-on registry for wire accounting: RunStats and the wire benchmark
# need byte totals whether or not a telemetry session is active (the same
# pattern as MessageBus.metrics).  Totals are cumulative per process; callers
# wanting per-run numbers snapshot with :func:`wire_totals` before and after.
wire_metrics = MetricsRegistry()


def reset_wire_metrics() -> MetricsRegistry:
    """Swap in a fresh wire registry (tests/benchmarks); returns the old one."""
    global wire_metrics
    old = wire_metrics
    wire_metrics = MetricsRegistry()
    return old


def wire_totals() -> dict[str, float]:
    """Snapshot of the cumulative byte counters, keyed by counter name+codec."""
    totals: dict[str, float] = {}
    for entry in wire_metrics.to_dict().get("counters", []):
        tags = entry.get("tags", {})
        key = entry["name"] + (f"{{codec={tags['codec']}}}" if "codec" in tags else "")
        totals[key] = totals.get(key, 0.0) + entry["value"]
    return totals


def _account(direction: str, codec: str, raw: int, encoded: int, seconds: float) -> None:
    for registry in (wire_metrics, obs_metrics.get_registry()):
        registry.counter("transport.bytes_raw", codec=codec).inc(raw)
        registry.counter("transport.bytes_encoded", codec=codec).inc(encoded)
        registry.histogram(f"codec.{direction}_seconds", codec=codec).observe(seconds)
    tracer = obs_trace.get_tracer()
    if tracer is not None:
        # retro-record the already-timed region so the codec pass shows up
        # under whichever span (client_task, aggregate, ...) it ran inside
        tracer.record_complete(f"codec.{direction}", seconds, codec=codec,
                               raw_bytes=raw, encoded_bytes=encoded)


def _pad(offset: int, alignment: int = ALIGNMENT) -> int:
    return -offset % alignment


def _normalize(value: Any) -> np.ndarray:
    """Coerce to a little-endian (or endian-free) C-contiguous ndarray."""
    array = np.asarray(value)
    if array.dtype.hasobject or array.dtype.kind not in "biufc":
        raise ValueError(f"unsupported tensor dtype {array.dtype!r} "
                         "(only numeric/bool arrays cross the wire)")
    if array.dtype.byteorder == ">":
        array = array.astype(array.dtype.newbyteorder("<"))
    # only copy when needed: np.ascontiguousarray would also promote 0-d
    # arrays to 1-d, losing their shape on the wire
    if not array.flags["C_CONTIGUOUS"]:
        array = np.ascontiguousarray(array)
    return array


def _shuffle_bytes(array: np.ndarray) -> bytes:
    """Byte-transpose: group the k-th byte of every element together."""
    itemsize = array.dtype.itemsize
    flat = np.frombuffer(array.tobytes(), dtype=np.uint8)
    if itemsize <= 1 or flat.size == 0:
        return flat.tobytes()
    return flat.reshape(-1, itemsize).T.tobytes()


def _unshuffle_bytes(blob: bytes, itemsize: int) -> bytes:
    flat = np.frombuffer(blob, dtype=np.uint8)
    if itemsize <= 1 or flat.size == 0:
        return bytes(blob)
    return np.ascontiguousarray(flat.reshape(itemsize, -1).T).tobytes()


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------
class _RawPlan:
    """Layout of one raw (non-deflated) blob, computed before any copying,
    so the blob can be written into a buffer that also holds other bytes
    (:func:`encode_tensors_after`)."""

    __slots__ = ("normalized", "specs", "manifest_bytes", "block_start",
                 "total", "raw_payload")

    def __init__(self, arrays: Mapping[str, Any],
                 extra: Mapping[str, Any] | None) -> None:
        self.normalized: "OrderedDict[str, np.ndarray]" = OrderedDict(
            (str(key), _normalize(value)) for key, value in arrays.items())
        self.specs = []
        offset = 0
        for key, array in self.normalized.items():
            offset += _pad(offset)
            self.specs.append({
                "name": key,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": int(array.nbytes),
            })
            offset += array.nbytes
        raw_block_len = offset
        self.raw_payload = sum(spec["nbytes"] for spec in self.specs)
        manifest: dict[str, Any] = {
            "v": 1,
            "extra": dict(extra or {}),
            "tensors": self.specs,
            "raw_block_len": raw_block_len,
            "transform": None,
            "block_len": raw_block_len,
        }
        self.manifest_bytes = json.dumps(manifest).encode("utf-8")
        head_len = len(MAGIC) + 4 + len(self.manifest_bytes)
        self.block_start = head_len + _pad(head_len)
        self.total = self.block_start + raw_block_len

    def write(self, view: memoryview) -> None:
        """Write the full blob into ``view`` (``self.total`` bytes)."""
        view[:4] = MAGIC
        struct.pack_into("<I", view, 4, len(self.manifest_bytes))
        view[8:8 + len(self.manifest_bytes)] = self.manifest_bytes
        for spec, array in zip(self.specs, self.normalized.values()):
            if not array.nbytes:
                continue
            start = self.block_start + spec["offset"]
            destination = np.frombuffer(view[start:start + spec["nbytes"]],
                                        dtype=array.dtype).reshape(array.shape)
            np.copyto(destination, array)


def encode_tensors_after(prefix: bytes, arrays: Mapping[str, Any],
                         extra: Mapping[str, Any] | None = None) -> bytearray:
    """``prefix`` followed by the raw blob of :func:`encode_tensors`, in one
    new buffer.

    This is the send path: the transport passes its envelope header as
    ``prefix``, and each tensor is copied exactly once, from its array to
    its place in the envelope.  The blob's bytes equal
    ``encode_tensors(arrays, extra)``.
    """
    started = time.perf_counter()
    plan = _RawPlan(arrays, extra)
    buffer = bytearray(len(prefix) + plan.total)
    buffer[:len(prefix)] = prefix
    plan.write(memoryview(buffer)[len(prefix):])
    _account("encode", "raw", plan.raw_payload, plan.total,
             time.perf_counter() - started)
    return buffer


def encode_tensors(arrays: Mapping[str, Any], extra: Mapping[str, Any] | None = None,
                   deflate: bool = False) -> bytes:
    """Pack named arrays (plus a JSON ``extra`` document) into one blob.

    With ``deflate=False`` (default) the tensor block is raw aligned bytes.
    With ``deflate=True`` the block is byte-shuffled per tensor and zlib-
    compressed — smaller, but no longer zero-copy.
    """
    if not deflate:
        return bytes(encode_tensors_after(b"", arrays, extra))
    started = time.perf_counter()
    plan = _RawPlan(arrays, extra)
    chunks = []
    position = 0
    for spec, array in zip(plan.specs, plan.normalized.values()):
        chunks.append(b"\x00" * (spec["offset"] - position))
        chunks.append(_shuffle_bytes(array))
        position = spec["offset"] + spec["nbytes"]
    block = zlib.compress(b"".join(chunks), level=6)
    manifest = json.loads(plan.manifest_bytes)
    manifest["transform"] = "shuffle-deflate"
    manifest["block_len"] = len(block)
    manifest_bytes = json.dumps(manifest).encode("utf-8")
    head = MAGIC + struct.pack("<I", len(manifest_bytes)) + manifest_bytes
    blob = head + b"\x00" * _pad(len(head)) + block
    _account("encode", "raw+deflate", plan.raw_payload, len(blob),
             time.perf_counter() - started)
    return blob


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------
def _manifest_error(reason: str) -> ValueError:
    return ValueError(f"corrupted tensor blob: {reason}")


def decode_tensors(blob: bytes, copy: bool = False
                   ) -> tuple["OrderedDict[str, np.ndarray]", dict[str, Any]]:
    """Inverse of :func:`encode_tensors`; returns ``(arrays, extra)``.

    Without ``copy`` the arrays are read-only zero-copy views over ``blob``
    (deflated blobs are decompressed once and viewed) — read-only even when
    ``blob`` is writable, because one envelope may back the arrays of
    several recipients.  With ``copy=True`` each array is an owned,
    writable copy.
    """
    started = time.perf_counter()
    if len(blob) < 8:
        raise _manifest_error(f"only {len(blob)} byte(s), need at least 8 "
                              "for magic and manifest length")
    if bytes(blob[:4]) != MAGIC:
        raise _manifest_error(f"bad magic {bytes(blob[:4])!r}, expected {MAGIC!r}")
    (manifest_len,) = struct.unpack_from("<I", blob, 4)
    if 8 + manifest_len > len(blob):
        raise _manifest_error(f"manifest length {manifest_len} overruns "
                              f"{len(blob)}-byte blob")
    try:
        manifest = json.loads(bytes(blob[8:8 + manifest_len]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise _manifest_error(f"manifest is not valid JSON ({error})") from error
    if not isinstance(manifest, dict) or "tensors" not in manifest:
        raise _manifest_error("manifest is missing the tensor table")

    head_len = 8 + manifest_len
    block_start = head_len + _pad(head_len)
    block = memoryview(blob).toreadonly()[block_start:]
    transform = manifest.get("transform")
    declared_len = manifest.get("block_len", len(block))
    if declared_len > len(block):
        raise _manifest_error(f"tensor block truncated: manifest declares "
                              f"{declared_len} byte(s), blob carries {len(block)}")
    codec_name = "raw"
    if transform == "shuffle-deflate":
        codec_name = "raw+deflate"
        try:
            raw = zlib.decompress(bytes(block[:declared_len]))
        except zlib.error as error:
            raise _manifest_error(f"deflate block corrupt ({error})") from error
        if len(raw) != manifest.get("raw_block_len", len(raw)):
            raise _manifest_error("deflate block decompressed to the wrong size")
        block = memoryview(raw)
    elif transform is not None:
        raise _manifest_error(f"unknown block transform {transform!r}")

    arrays: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for spec in manifest["tensors"]:
        try:
            name, offset, nbytes = spec["name"], int(spec["offset"]), int(spec["nbytes"])
            dtype = np.dtype(spec["dtype"])
            shape = tuple(int(dim) for dim in spec["shape"])
        except (KeyError, TypeError, ValueError) as error:
            raise _manifest_error(f"malformed tensor entry ({error})") from error
        if dtype.hasobject:
            raise _manifest_error(f"tensor {name!r} declares an object dtype")
        count = math.prod(shape)
        expected = count * dtype.itemsize
        if expected != nbytes:
            raise _manifest_error(f"tensor {name!r}: shape {shape} x {dtype.str} "
                                  f"needs {expected} byte(s), manifest says {nbytes}")
        if offset < 0 or offset + nbytes > len(block):
            raise _manifest_error(f"tensor {name!r} at [{offset}, {offset + nbytes}) "
                                  f"overruns the {len(block)}-byte tensor block")
        if transform == "shuffle-deflate":
            raw_bytes = _unshuffle_bytes(bytes(block[offset:offset + nbytes]),
                                         dtype.itemsize)
            array = np.frombuffer(raw_bytes, dtype=dtype).reshape(shape)
        else:
            array = np.frombuffer(block, dtype=dtype, count=count,
                                  offset=offset).reshape(shape)
        arrays[name] = array.copy() if copy else array
    raw_total = sum(int(spec["nbytes"]) for spec in manifest["tensors"])
    _account("decode", codec_name, raw_total, len(blob), time.perf_counter() - started)
    return arrays, dict(manifest.get("extra", {}))


# ---------------------------------------------------------------------------
# npz legacy codec — kept as a correctness oracle and for on-disk checkpoints
# ---------------------------------------------------------------------------
def encode_tensors_npz(arrays: Mapping[str, Any]) -> bytes:
    """The pre-codec path: arrays → npz bytes (several copies, zip framing)."""
    started = time.perf_counter()
    buffer = io.BytesIO()
    normalized = {key: np.asarray(value) for key, value in arrays.items()}
    np.savez(buffer, **normalized)
    blob = buffer.getvalue()
    _account("encode", "npz", sum(a.nbytes for a in normalized.values()),
             len(blob), time.perf_counter() - started)
    return blob


def decode_tensors_npz(blob: bytes, keys: list[str] | None = None
                       ) -> "OrderedDict[str, np.ndarray]":
    """Decode an npz blob; raises :class:`ValueError` on corrupt input."""
    started = time.perf_counter()
    try:
        with np.load(io.BytesIO(bytes(blob)), allow_pickle=False) as archive:
            # NpzFile materializes a fresh array per access; no extra copy
            # is needed on top (the historical ``.copy()`` double-copied).
            arrays = OrderedDict((key, archive[key])
                                 for key in (keys if keys is not None
                                             else archive.files))
    except (zipfile.BadZipFile, zlib.error, struct.error, OSError, KeyError,
            IndexError, EOFError, ValueError) as error:
        raise ValueError(f"corrupted npz tensor block: {error}") from error
    _account("decode", "npz", sum(a.nbytes for a in arrays.values()),
             len(blob), time.perf_counter() - started)
    return arrays
