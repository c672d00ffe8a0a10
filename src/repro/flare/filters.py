"""Privacy and compression filters applied to DXOs in transit.

NVFlare lets jobs declare filter chains on task data and task results; the
standard privacy filters are reproduced here: variable exclusion, Gaussian
noise (differential-privacy style), percentile clipping (NVFlare's
``PercentilePrivacy``) and global-norm clipping.  Filters transform *weight
diffs or weights leaving a client*, which is where the privacy boundary sits.

Alongside them lives the wire-compression family (cf. "Empowering Federated
Learning for Massive Models with NVIDIA FLARE", arXiv:2402.07792): delta
encoding against the round's received global model, float16 quantization
with server-side dequantize-on-aggregate, and top-k sparsification of
weight diffs.  :class:`CompressionConfig` composes them into matching
client/server chains; ``FLJob(compression="delta+fp16")`` wires the whole
thing up.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass

import numpy as np

from .constants import DataKind, ReservedKey
from .dxo import DXO, MetaKey
from .events import FLComponent
from .fl_context import FLContext

__all__ = ["DXOFilter", "ExcludeVars", "GaussianPrivacy", "PercentilePrivacy",
           "NormClipPrivacy", "FilterChain",
           "DeltaEncode", "DeltaDecode", "Float16Quantize", "Float16Dequantize",
           "TopKSparsify", "TopKDensify", "CompressionConfig"]


class DXOFilter(FLComponent):
    """Transform a DXO; return the (possibly replaced) DXO."""

    def process(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        raise NotImplementedError


class FilterChain(DXOFilter):
    """Apply a sequence of filters in order."""

    def __init__(self, filters: list[DXOFilter], name: str | None = None) -> None:
        super().__init__(name=name)
        self.filters = list(filters)

    def process(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        for item in self.filters:
            dxo = item.process(dxo, fl_ctx)
        return dxo


class ExcludeVars(DXOFilter):
    """Drop parameters whose names match any of the glob patterns.

    Typical use: keep site-specific heads local (``"head.*"``).
    """

    def __init__(self, patterns: list[str], name: str | None = None) -> None:
        super().__init__(name=name)
        if not patterns:
            raise ValueError("ExcludeVars needs at least one pattern")
        self.patterns = list(patterns)

    def process(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        kept = {key: value for key, value in dxo.data.items()
                if not any(fnmatch.fnmatch(key, pattern) for pattern in self.patterns)}
        dropped = len(dxo.data) - len(kept)
        if dropped:
            self.log_info("excluded %d variable(s)", dropped)
        return DXO(data_kind=dxo.data_kind, data=kept, meta=dict(dxo.meta))


class GaussianPrivacy(DXOFilter):
    """Add zero-mean Gaussian noise scaled to each tensor's value range."""

    def __init__(self, sigma0: float = 0.1, seed: int = 0, name: str | None = None) -> None:
        super().__init__(name=name)
        if sigma0 < 0:
            raise ValueError("sigma0 must be non-negative")
        self.sigma0 = sigma0
        self._rng = np.random.default_rng(seed)

    def process(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        if self.sigma0 == 0 or dxo.data_kind not in (DataKind.WEIGHTS, DataKind.WEIGHT_DIFF):
            return dxo
        noisy: dict[str, np.ndarray] = {}
        for key, value in dxo.data.items():
            value = np.asarray(value)
            spread = float(np.max(np.abs(value))) if value.size else 0.0
            noise = self._rng.normal(0.0, self.sigma0 * max(spread, 1e-12), size=value.shape)
            noisy[key] = (value + noise).astype(value.dtype)
        return DXO(data_kind=dxo.data_kind, data=noisy, meta=dict(dxo.meta))


class PercentilePrivacy(DXOFilter):
    """Clamp each tensor to the [percentile, 100-percentile] magnitude band.

    The NVFlare ``PercentilePrivacy`` filter: outlying updates — the most
    identifying ones — are truncated.
    """

    def __init__(self, percentile: float = 10.0, name: str | None = None) -> None:
        super().__init__(name=name)
        if not 0.0 <= percentile < 50.0:
            raise ValueError("percentile must be in [0, 50)")
        self.percentile = percentile

    def process(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        if dxo.data_kind not in (DataKind.WEIGHTS, DataKind.WEIGHT_DIFF):
            return dxo
        clipped: dict[str, np.ndarray] = {}
        for key, value in dxo.data.items():
            value = np.asarray(value)
            if value.size < 2 or value.dtype.kind not in "iuf":
                clipped[key] = value
                continue
            low = np.percentile(value, self.percentile)
            high = np.percentile(value, 100.0 - self.percentile)
            clipped[key] = np.clip(value, low, high).astype(value.dtype)
        return DXO(data_kind=dxo.data_kind, data=clipped, meta=dict(dxo.meta))


class NormClipPrivacy(DXOFilter):
    """Scale the whole update so its global L2 norm is at most ``max_norm``."""

    def __init__(self, max_norm: float, name: str | None = None) -> None:
        super().__init__(name=name)
        if max_norm <= 0:
            raise ValueError("max_norm must be positive")
        self.max_norm = max_norm

    def process(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        if dxo.data_kind not in (DataKind.WEIGHTS, DataKind.WEIGHT_DIFF):
            return dxo
        total = 0.0
        for value in dxo.data.values():
            total += float(np.sum(np.asarray(value, dtype=np.float64) ** 2))
        norm = np.sqrt(total)
        if norm <= self.max_norm or norm == 0:
            return dxo
        scale = self.max_norm / norm
        scaled = {key: (np.asarray(value) * scale).astype(np.asarray(value).dtype)
                  for key, value in dxo.data.items()}
        return DXO(data_kind=dxo.data_kind, data=scaled, meta=dict(dxo.meta))


# ---------------------------------------------------------------------------
# wire-compression filters
# ---------------------------------------------------------------------------
TOPK_IDX = "@topk_idx"
TOPK_VAL = "@topk_val"
TOPK_MIN_SIZE = 256


# Per-tensor transforms: the filters below map them over a DXO, and
# :class:`~repro.flare.downlink.Downlink` / the aggregators call them one
# tensor at a time, so no model-sized intermediate is built.
def quantize_fp16(value: np.ndarray) -> tuple[np.ndarray, str | None]:
    """``(wire form, original dtype)``: float32/float64 go to float16 (dtype
    recorded), everything else passes through with ``None``."""
    if value.dtype in (np.float32, np.float64):
        return value.astype(np.float16), value.dtype.str
    return value, None


def dequantize_fp16(value, dtype: str) -> np.ndarray:
    """The exact upcast of a :func:`quantize_fp16` wire form."""
    return np.asarray(value).astype(np.dtype(dtype))


def topk_indices(flat: np.ndarray, ratio: float) -> np.ndarray:
    """Sorted indices of the ``max(1, round(size * ratio))`` largest
    magnitudes of the 1-D ``flat``."""
    k = max(1, int(round(flat.size * ratio)))
    indices = np.argpartition(np.abs(flat), flat.size - k)[flat.size - k:]
    return np.sort(indices).astype(np.uint32 if flat.size < 2 ** 32 else np.int64)


def topk_gaps(indices: np.ndarray) -> np.ndarray:
    """The wire form of strictly increasing flat ``indices``: the first
    index, then each difference to the one before, in the narrowest
    unsigned dtype that holds the largest of them.  Any other ``indices``
    raise :class:`ValueError`: a cast gap would wrap, not fail."""
    indices = np.asarray(indices)
    if indices.size and (indices[0] < 0 or not (indices[1:] > indices[:-1]).all()):
        raise ValueError("top-k indices must be non-negative and strictly increasing")
    gaps = np.diff(indices, prepend=np.zeros(1, indices.dtype))
    return gaps.astype(np.min_scalar_type(int(gaps.max(initial=0))), copy=False)


def densify(values: np.ndarray, indices: np.ndarray | None, shape) -> np.ndarray:
    """The dense tensor of a top-k pair: kept entries exact, the rest +0.0
    (a dense tensor, ``indices=None``, is returned as is)."""
    if indices is None:
        return values
    restored = np.zeros(int(np.prod(shape, dtype=np.int64)), dtype=values.dtype)
    restored[indices] = values
    return restored.reshape(shape)


def apply_delta(base: np.ndarray, values: np.ndarray, indices: np.ndarray | None,
                shape, dtype) -> np.ndarray:
    """``base`` plus one shipped delta tensor (a top-k pair when ``indices``
    is set), cast to ``dtype``.  Both ends of a delta downlink evaluate this
    one expression, so the server's canonical global and a site's
    reconstruction are bit-equal."""
    return (base + densify(values, indices, shape)).astype(dtype, copy=False)


class WireForm:
    """A compressed payload built one tensor at a time: the top-k stage,
    then the fp16 stage.  The whole-model filters, :class:`DeltaEncode` and
    :class:`~repro.flare.downlink.Downlink` all encode through it, so the
    wire format's rules exist once."""

    def __init__(self, top_k: float | None = None, float16: bool = False,
                 min_size: int = TOPK_MIN_SIZE) -> None:
        self.top_k = top_k
        self.float16 = float16
        self.min_size = min_size
        self.data: dict[str, np.ndarray] = {}
        self.spec: dict[str, dict] = {}
        self.dtypes: dict[str, str] = {}

    def add(self, key: str, value) -> tuple[str, np.ndarray | None]:
        """Encode one tensor.  With ``top_k``, a float tensor of at least
        ``min_size`` entries becomes its ``@topk_idx`` / ``@topk_val`` pair
        and a ``TOPK_SPEC`` entry (shape, dtype), its indices shipped as
        :func:`topk_gaps`; with ``float16``, the shipped values go through
        :func:`quantize_fp16` and a recorded dtype lands in
        ``FP16_DTYPES``.  Returns the values' wire key and the kept
        absolute flat indices (``None``: shipped dense)."""
        value = np.asarray(value)
        indices = None
        if self.top_k and value.dtype.kind == "f" and value.size >= self.min_size:
            flat = value.reshape(-1)
            indices = topk_indices(flat, self.top_k)
            self.data[key + TOPK_IDX] = topk_gaps(indices)
            self.spec[key] = {"shape": list(value.shape), "dtype": value.dtype.str}
            key, value = key + TOPK_VAL, flat[indices]
        if self.float16:
            value, dtype = quantize_fp16(value)
            if dtype is not None:
                self.dtypes[key] = dtype
        self.data[key] = value
        return key, indices

    def to_dxo(self, data_kind: str, meta: dict) -> DXO:
        """The payload, with ``meta``'s ``TOPK_SPEC`` and ``FP16_DTYPES``
        extended by this form's entries."""
        meta = dict(meta)
        for prop, entries in ((MetaKey.TOPK_SPEC, self.spec),
                              (MetaKey.FP16_DTYPES, self.dtypes)):
            if entries:
                meta[prop] = {**meta.get(prop, {}), **entries}
        return DXO(data_kind=data_kind, data=self.data, meta=meta)


def _read_only(value: np.ndarray) -> np.ndarray:
    view = value.view()
    view.flags.writeable = False
    return view


def topk_tensors(dxo: DXO) -> dict[str, tuple[np.ndarray, np.ndarray | None, tuple]]:
    """Each tensor of a (possibly top-k sparsified) DXO as ``(values,
    indices, shape)``: dense ones first (``indices=None``), then each top-k
    pair's values in its recorded dtype with its absolute flat indices,
    rebuilt from the :func:`topk_gaps` wire form.  A malformed pair raises
    :class:`ValueError`, the codec's contract for corrupt data.
    """
    spec = dxo.get_meta_prop(MetaKey.TOPK_SPEC) or {}
    tensors = {key: (np.asarray(value), None, np.shape(value))
               for key, value in dxo.data.items()
               if not key.endswith((TOPK_IDX, TOPK_VAL))}
    for key, entry in spec.items():
        values = np.asarray(dxo.data.get(key + TOPK_VAL, ()))
        size = int(np.prod(entry["shape"], dtype=np.int64))
        indices = _absolute_indices(key, np.asarray(dxo.data.get(key + TOPK_IDX, ())),
                                    values, size)
        tensors[key] = (values.astype(np.dtype(entry["dtype"]), copy=False),
                        indices, tuple(entry["shape"]))
    return tensors


def _absolute_indices(key: str, gaps: np.ndarray, values: np.ndarray,
                      size: int) -> np.ndarray:
    """The strictly increasing indices in ``[0, size)`` that ``gaps`` (a
    :func:`topk_gaps` wire form) encodes, or :class:`ValueError`."""
    if gaps.ndim != 1 or gaps.dtype.kind not in "iu" or values.shape != gaps.shape:
        raise ValueError(f"top-k pair for {key!r} is missing or mismatched")
    indices = np.cumsum(gaps, dtype=np.intp)
    if not gaps.size:
        return indices
    if gaps[0] < 0:
        raise ValueError(f"top-k pair for {key!r} has a negative first index")
    if gaps[1:].min(initial=1) < 1:
        raise ValueError(f"top-k pair for {key!r} is not strictly increasing: "
                         f"a gap below 1")
    # every entry below size: for any tensor size memory can hold, the
    # cumsum cannot have overflowed
    if gaps.max() >= size or indices[-1] >= size:
        raise ValueError(f"top-k pair for {key!r} runs past the end of its "
                         f"{size} entries")
    return indices


def dense_tensors(dxo: DXO) -> dict[str, np.ndarray]:
    """``dxo.data`` with every top-k pair restored to its dense tensor."""
    if not dxo.get_meta_prop(MetaKey.TOPK_SPEC):
        return dxo.data
    return {key: densify(*parts) for key, parts in topk_tensors(dxo).items()}


def diff_tensors(value, reference) -> np.ndarray:
    """``value - reference`` that also works for bool tensors (which have no
    subtraction): those diff as int8 in {-1, 0, 1} and the apply side casts
    the sum back to the base dtype."""
    value = np.asarray(value)
    reference = np.asarray(reference)
    if value.dtype.kind == "b":
        return value.astype(np.int8) - reference.astype(np.int8)
    return value - reference


class DeltaEncode(DXOFilter):
    """Turn a client's WEIGHTS result into a WEIGHT_DIFF against the round's
    received global model, and compress it for the uplink.

    The client stashes the (decompressed) task payload under
    ``ReservedKey.GLOBAL_MODEL`` in its FLContext before training and removes
    it once its result filters have run, so this filter reads it only from
    the client's result chain.  It subtracts it on the way out, so only the
    local update — small in magnitude, friendlier to quantization and
    sparsification — crosses the wire.  Keys absent from the base (e.g.
    dropped by :class:`ExcludeVars` upstream) are dropped with a warning,
    matching the learners' own ``send_diff`` behaviour.

    With ``top_k`` and/or ``float16`` set it also runs the uplink's later
    stages, one tensor at a time: each diff goes straight into a
    :class:`WireForm`, the encoder :class:`TopKSparsify` and
    :class:`Float16Quantize` loop over, so no whole-model diff is built
    beside the result.  The payload is the one the three filters chained
    would produce, key order included: each tensor in result order, a
    top-k'd one as its ``@topk_idx`` / ``@topk_val`` pair.  Results that
    are already diffs or metrics, and rounds with no recorded base, are not
    diffed; they get only the top-k and fp16 stages, as in that chain.
    """

    def __init__(self, top_k: float | None = None, float16: bool = False,
                 name: str | None = None) -> None:
        super().__init__(name=name)
        if top_k is not None and not 0.0 < top_k <= 1.0:
            raise ValueError("top_k must be in (0, 1]")
        self.top_k = top_k
        self.float16 = float16

    def _compress(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        if self.top_k:
            dxo = TopKSparsify(ratio=self.top_k).process(dxo, fl_ctx)
        if self.float16:
            dxo = Float16Quantize().process(dxo, fl_ctx)
        return dxo

    def process(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        if dxo.data_kind != DataKind.WEIGHTS:
            return self._compress(dxo, fl_ctx)
        base = fl_ctx.get_prop(ReservedKey.GLOBAL_MODEL)
        if not base:
            self.log_warning("no received global model recorded; sending full weights")
            return self._compress(dxo, fl_ctx)
        wire = WireForm(top_k=self.top_k, float16=self.float16)
        dropped = 0
        for key, value in dxo.data.items():
            value = np.asarray(value)
            reference = base.get(key)
            if reference is None or np.asarray(reference).shape != value.shape:
                dropped += 1
                continue
            wire.add(key, diff_tensors(value, reference))
        if dropped:
            self.log_warning("delta-encode dropped %d variable(s) with no matching base",
                             dropped)
        return wire.to_dxo(DataKind.WEIGHT_DIFF, dxo.meta)


class DeltaDecode(DXOFilter):
    """Client-side reconstruction of delta-broadcast global models.

    The controller broadcasts the full global model once, then versioned
    WEIGHT_DIFF payloads against the last model this client acknowledged
    (see :class:`~repro.flare.downlink.Downlink`).  One instance per
    client: it caches the reconstructed model between rounds.  A diff whose
    base version does not match the cache (e.g. a delayed, reordered task
    off a faulty bus), or that names other parameters or shapes than the
    cache, raises :class:`ValueError`, which the client surfaces as
    ``BAD_TASK_DATA`` — the controller then falls back to a full
    broadcast for this site.

    It is the whole downlink decode, run one tensor at a time: it reads
    ``MetaKey.FP16_DTYPES`` (:class:`Float16Dequantize`'s stage) and
    ``MetaKey.TOPK_SPEC`` (:class:`TopKDensify`'s) itself.  A versioned
    full model is dequantized straight into the cache.  A delta is added to
    the cache tensor by tensor (:func:`apply_delta`), each entry replaced
    as it is restored, so the cache is the only model-sized thing it holds.
    The task it returns is read-only views of the cache: a learner that
    writes into its input cannot corrupt the base of the next delta.  A
    reconstructed delta task lists the dense tensors first, then the top-k
    ones in ``TOPK_SPEC`` order (the order of :func:`topk_tensors`); a full
    model keeps its wire order.  Payloads without a version only pass
    through the two decompression stages.
    """

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name=name)
        self._cache: dict[str, np.ndarray] | None = None
        self._version: int | None = None

    @property
    def cached_version(self) -> int | None:
        return self._version

    def process(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        version = dxo.get_meta_prop(MetaKey.MODEL_VERSION)
        base_version = dxo.get_meta_prop(MetaKey.BASE_VERSION)
        full = dxo.data_kind == DataKind.WEIGHTS and version is not None
        if not full and (dxo.data_kind != DataKind.WEIGHT_DIFF or base_version is None):
            return TopKDensify().process(Float16Dequantize().process(dxo, fl_ctx), fl_ctx)
        if not full and (self._cache is None or self._version != int(base_version)):
            raise ValueError(
                f"delta task against model version {base_version} but this "
                f"client holds {self._version}; need a full broadcast")
        # validate everything before the first cache entry is replaced: a
        # rejected delta must leave the cache whole for the next one
        tensors = topk_tensors(dxo)
        if not full and (set(tensors) != set(self._cache) or any(
                tuple(shape) != self._cache[key].shape
                for key, (_, _, shape) in tensors.items())):
            raise ValueError("delta task names different parameters or shapes "
                             "than the cached global model")
        recorded = dxo.get_meta_prop(MetaKey.FP16_DTYPES) or {}
        if full:
            self._cache = {}
        for key, (values, indices, shape) in tensors.items():
            # topk_tensors already cast a pair's values to the spec dtype
            dtype = recorded.get(key) if indices is None else None
            if dtype is not None:
                values = dequantize_fp16(values, dtype)
            if not full:
                # cast back to the cached dtype: diffs may arrive wider
                # (float64 aggregates, int8 bool-diffs) and must not
                # promote the model
                cached = self._cache[key]
                self._cache[key] = apply_delta(cached, values, indices, shape,
                                               cached.dtype)
            elif indices is not None or dtype is not None:
                self._cache[key] = densify(values, indices, shape)
            else:
                # own the array: an undecoded tensor is a view into the blob
                self._cache[key] = np.array(values, copy=True)
        dropped = (MetaKey.FP16_DTYPES, MetaKey.TOPK_SPEC)
        if not full:
            dropped += (MetaKey.MODEL_VERSION, MetaKey.BASE_VERSION)
        meta = {key: value for key, value in dxo.meta.items() if key not in dropped}
        if version is not None:
            self._version = int(version)
        meta[MetaKey.MODEL_VERSION] = self._version
        return DXO(data_kind=DataKind.WEIGHTS, meta=meta,
                   data={key: _read_only(self._cache[key]) for key in tensors})


class Float16Quantize(DXOFilter):
    """Cast float32/float64 tensors to float16 for transport.

    Original dtypes are recorded in ``MetaKey.FP16_DTYPES`` so
    :class:`Float16Dequantize` restores them exactly on the other side
    (value error is bounded by fp16 rounding: ~1e-3 relative).
    """

    def process(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        if dxo.data_kind not in (DataKind.WEIGHTS, DataKind.WEIGHT_DIFF):
            return dxo
        wire = WireForm(float16=True)
        for key, value in dxo.data.items():
            wire.add(key, value)
        if not wire.dtypes:
            return dxo
        return wire.to_dxo(dxo.data_kind, dxo.meta)


class Float16Dequantize(DXOFilter):
    """Restore tensors quantized by :class:`Float16Quantize` to their
    original dtype (an exact upcast) before aggregation or training."""

    def process(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        recorded = dxo.get_meta_prop(MetaKey.FP16_DTYPES)
        if not recorded:
            return dxo
        restored: dict[str, np.ndarray] = {}
        for key, value in dxo.data.items():
            restored[key] = (dequantize_fp16(value, recorded[key])
                             if key in recorded else value)
        meta = {key: value for key, value in dxo.meta.items()
                if key != MetaKey.FP16_DTYPES}
        return DXO(data_kind=dxo.data_kind, data=restored, meta=meta)


class TopKSparsify(DXOFilter):
    """Keep only the ``ratio`` largest-magnitude entries of each weight diff.

    Each sparsified tensor is replaced by an index/value pair
    (``<key>@topk_idx`` / ``<key>@topk_val``); shape and dtype land in
    ``MetaKey.TOPK_SPEC`` so :class:`TopKDensify` can zero-fill the rest.
    Only WEIGHT_DIFF payloads are touched — truncating full weights would
    destroy the model — and tensors below ``min_size`` stay dense (the
    index overhead would outweigh the saving).
    """

    def __init__(self, ratio: float = 0.1, min_size: int = TOPK_MIN_SIZE,
                 name: str | None = None) -> None:
        super().__init__(name=name)
        if not 0.0 < ratio <= 1.0:
            raise ValueError("ratio must be in (0, 1]")
        if min_size < 1:
            raise ValueError("min_size must be positive")
        self.ratio = ratio
        self.min_size = min_size

    def process(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        if dxo.data_kind != DataKind.WEIGHT_DIFF:
            return dxo
        wire = WireForm(top_k=self.ratio, min_size=self.min_size)
        for key, value in dxo.data.items():
            wire.add(key, value)
        if not wire.spec:
            return dxo
        return wire.to_dxo(dxo.data_kind, dxo.meta)


class TopKDensify(DXOFilter):
    """Restore tensors sparsified by :class:`TopKSparsify` to dense arrays
    (kept entries exact, everything else zero); a malformed pair raises
    :class:`ValueError` (see :func:`topk_tensors`)."""

    def process(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        if not dxo.get_meta_prop(MetaKey.TOPK_SPEC):
            return dxo
        meta = {key: value for key, value in dxo.meta.items()
                if key != MetaKey.TOPK_SPEC}
        return DXO(data_kind=dxo.data_kind, data=dense_tensors(dxo), meta=meta)


@dataclass(frozen=True)
class CompressionConfig:
    """One knob for the whole wire-compression chain, always a delta chain.

    Updates ship as WEIGHT_DIFF: clients diff against the received global
    model, and the controller broadcasts versioned diffs of the global model
    to every site that acknowledged the previous one.  On top of that:

    ``float16``
        Quantize floating tensors to fp16 on the wire, both directions;
        the receiving side dequantizes before use.  The controller also
        rounds its canonical global model through fp16 so server and
        clients agree on the base bit-exactly.
    ``top_k``
        Optionally keep only this fraction of each weight diff (largest
        magnitudes), both directions; the server folds the kept entries
        sparse, with no dense copy of the update.

    A site runs one filter each way, tensor by tensor: :class:`DeltaDecode`
    (dequantize, densify and add each tensor to its cached model) and
    :class:`DeltaEncode` (diff, top-k, quantize), so a site holds only the
    delta cache and its learner's result at model size.  The whole-model
    filters serve the server side and tests.

    Build from a spec string: ``CompressionConfig.from_spec("delta+fp16")``,
    tokens ``delta`` (required), ``fp16``, ``topk`` / ``topk:0.05``.
    """

    float16: bool = True
    top_k: float | None = None

    @classmethod
    def from_spec(cls, spec: "str | CompressionConfig | None") -> "CompressionConfig | None":
        if spec is None or isinstance(spec, cls):
            return spec
        delta = float16 = False
        top_k: float | None = None
        for token in str(spec).lower().split("+"):
            token = token.strip()
            if token == "delta":
                delta = True
            elif token in ("fp16", "float16"):
                float16 = True
            elif token.startswith("topk"):
                _, _, ratio = token.partition(":")
                top_k = float(ratio) if ratio else 0.1
            elif token:
                raise ValueError(f"unknown compression token {token!r} in {spec!r}")
        if not delta:
            raise ValueError(f"compression spec {spec!r} has no 'delta': "
                             "every compressed job is a delta job")
        return cls(float16=float16, top_k=top_k)

    # ------------------------------------------------------------------
    # matching filter chains (fresh instances per call: DeltaDecode is
    # stateful and must not be shared between clients)
    # ------------------------------------------------------------------
    def client_task_filters(self) -> list[DXOFilter]:
        """Applied by a client to incoming task data (downlink decode): one
        :class:`DeltaDecode` that also runs the fp16 and top-k decode
        stages."""
        return [DeltaDecode()]

    def client_result_filters(self) -> list[DXOFilter]:
        """Applied by a client to outgoing results (uplink encode): one
        :class:`DeltaEncode` that also runs the top-k and fp16 stages."""
        return [DeltaEncode(top_k=self.top_k, float16=self.float16)]

    def server_result_filters(self) -> list[DXOFilter]:
        """Applied by the controller to each reply before aggregation.

        Top-k updates stay sparse: the aggregators read them through
        :func:`topk_tensors` (and densify only where they must)."""
        return [Float16Dequantize()] if self.float16 else []

    def downlink_task_filters(self) -> list[DXOFilter]:
        """Applied by the controller to broadcast payloads (downlink encode)."""
        return [Float16Quantize()] if self.float16 else []

    def adapt_aggregator(self, aggregator) -> None:
        """Point a WEIGHTS-expecting aggregator at WEIGHT_DIFF: delta
        encoding rewrites the uplink data kind."""
        if getattr(aggregator, "expected_data_kind", None) == DataKind.WEIGHTS:
            aggregator.expected_data_kind = DataKind.WEIGHT_DIFF
