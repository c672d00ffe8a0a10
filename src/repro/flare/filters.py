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
client/server chains; ``SimulatorRunner(compression="delta+fp16")`` wires
the whole thing up.
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


def densify(values: np.ndarray, indices: np.ndarray | None, shape) -> np.ndarray:
    """The dense tensor of a top-k pair: kept entries exact, the rest +0.0
    (a dense tensor, ``indices=None``, is returned as is)."""
    if indices is None:
        return values
    restored = np.zeros(int(np.prod(shape, dtype=np.int64)), dtype=values.dtype)
    restored[indices] = values
    return restored.reshape(shape)


def topk_tensors(dxo: DXO) -> dict[str, tuple[np.ndarray, np.ndarray | None, tuple]]:
    """Each tensor of a (possibly top-k sparsified) DXO as ``(values,
    indices, shape)``: dense ones first (``indices=None``), then each top-k
    pair's values in its recorded dtype with its flat indices, which must
    be strictly increasing.  A malformed pair raises :class:`ValueError`,
    the codec's contract for corrupt data.
    """
    spec = dxo.get_meta_prop(MetaKey.TOPK_SPEC) or {}
    tensors = {key: (np.asarray(value), None, np.shape(value))
               for key, value in dxo.data.items()
               if not key.endswith((TOPK_IDX, TOPK_VAL))}
    for key, entry in spec.items():
        indices = np.asarray(dxo.data.get(key + TOPK_IDX, ()))
        values = np.asarray(dxo.data.get(key + TOPK_VAL, ()))
        size = int(np.prod(entry["shape"], dtype=np.int64))
        if (indices.ndim != 1 or indices.dtype.kind not in "iu"
                or values.shape != indices.shape or indices.size and not (
                    0 <= indices[0] and indices[-1] < size
                    and (indices[1:] > indices[:-1]).all())):
            raise ValueError(f"top-k pair for {key!r} is missing, mismatched, or "
                             f"not strictly increasing within [0, {size})")
        tensors[key] = (values.astype(np.dtype(entry["dtype"]), copy=False),
                        indices, tuple(entry["shape"]))
    return tensors


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
    received global model.

    The client stashes the (decompressed) task payload under
    ``ReservedKey.GLOBAL_MODEL`` in its FLContext before training and removes
    it once its result filters have run, so this filter reads it only from
    the client's result chain.  It subtracts it on the way out, so only the
    local update — small in magnitude, friendlier to quantization and
    sparsification — crosses the wire.  Keys absent from the base (e.g. dropped by :class:`ExcludeVars`
    upstream) are dropped with a warning, matching the learners' own
    ``send_diff`` behaviour.  Results that are already diffs, metrics, or
    rounds with no recorded base pass through untouched.
    """

    def process(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        if dxo.data_kind != DataKind.WEIGHTS:
            return dxo
        base = fl_ctx.get_prop(ReservedKey.GLOBAL_MODEL)
        if not base:
            self.log_warning("no received global model recorded; sending full weights")
            return dxo
        diff: dict[str, np.ndarray] = {}
        dropped = 0
        for key, value in dxo.data.items():
            value = np.asarray(value)
            reference = base.get(key)
            if reference is None or np.asarray(reference).shape != value.shape:
                dropped += 1
                continue
            diff[key] = diff_tensors(value, reference)
        if dropped:
            self.log_warning("delta-encode dropped %d variable(s) with no matching base",
                             dropped)
        return DXO(data_kind=DataKind.WEIGHT_DIFF, data=diff, meta=dict(dxo.meta))


class DeltaDecode(DXOFilter):
    """Client-side reconstruction of delta-broadcast global models.

    The controller broadcasts the full global model once, then versioned
    WEIGHT_DIFF payloads against the last model this client acknowledged
    (see :class:`~repro.flare.downlink.Downlink`).  One instance per
    client: it caches the reconstructed model between rounds.  A diff whose
    base version does not match the cache (e.g. a delayed, reordered task
    off a faulty bus) raises :class:`ValueError`, which the client surfaces
    as ``BAD_TASK_DATA`` — the controller then falls back to a full
    broadcast for this site.
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
        if dxo.data_kind == DataKind.WEIGHTS:
            if version is not None:
                # own the arrays: decoded payloads are views into the blob
                self._cache = {key: np.array(value, copy=True)
                               for key, value in dxo.data.items()}
                self._version = int(version)
            return dxo
        base_version = dxo.get_meta_prop(MetaKey.BASE_VERSION)
        if dxo.data_kind != DataKind.WEIGHT_DIFF or base_version is None:
            return dxo
        if self._cache is None or self._version != int(base_version):
            raise ValueError(
                f"delta task against model version {base_version} but this "
                f"client holds {self._version}; need a full broadcast")
        if set(dxo.data) != set(self._cache):
            raise ValueError("delta task names different parameters than the "
                             "cached global model")
        # cast back to the cached dtype: diffs may arrive wider (float64
        # aggregates, int8 bool-diffs) and must not promote the model
        restored = {key: (self._cache[key] + np.asarray(value))
                    .astype(self._cache[key].dtype, copy=False)
                    for key, value in dxo.data.items()}
        self._cache = restored
        self._version = int(version) if version is not None else self._version
        meta = {key: value for key, value in dxo.meta.items()
                if key not in (MetaKey.MODEL_VERSION, MetaKey.BASE_VERSION)}
        meta[MetaKey.MODEL_VERSION] = self._version
        return DXO(data_kind=DataKind.WEIGHTS, data=restored, meta=meta)


class Float16Quantize(DXOFilter):
    """Cast float32/float64 tensors to float16 for transport.

    Original dtypes are recorded in ``MetaKey.FP16_DTYPES`` so
    :class:`Float16Dequantize` restores them exactly on the other side
    (value error is bounded by fp16 rounding: ~1e-3 relative).
    """

    def process(self, dxo: DXO, fl_ctx: FLContext) -> DXO:
        if dxo.data_kind not in (DataKind.WEIGHTS, DataKind.WEIGHT_DIFF):
            return dxo
        quantized: dict[str, np.ndarray] = {}
        original_dtypes: dict[str, str] = {}
        for key, value in dxo.data.items():
            quantized[key], dtype = quantize_fp16(np.asarray(value))
            if dtype is not None:
                original_dtypes[key] = dtype
        if not original_dtypes:
            return dxo
        meta = dict(dxo.meta)
        meta[MetaKey.FP16_DTYPES] = {**meta.get(MetaKey.FP16_DTYPES, {}),
                                     **original_dtypes}
        return DXO(data_kind=dxo.data_kind, data=quantized, meta=meta)


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
        sparse: dict[str, np.ndarray] = {}
        spec: dict[str, dict] = {}
        for key, value in dxo.data.items():
            value = np.asarray(value)
            if value.size < self.min_size or value.dtype.kind != "f":
                sparse[key] = value
                continue
            flat = value.reshape(-1)
            indices = topk_indices(flat, self.ratio)
            sparse[key + TOPK_IDX] = indices
            sparse[key + TOPK_VAL] = flat[indices]
            spec[key] = {"shape": list(value.shape), "dtype": value.dtype.str}
        if not spec:
            return dxo
        meta = dict(dxo.meta)
        meta[MetaKey.TOPK_SPEC] = {**meta.get(MetaKey.TOPK_SPEC, {}), **spec}
        return DXO(data_kind=dxo.data_kind, data=sparse, meta=meta)


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
    """One knob for the whole wire-compression chain.

    ``delta``
        Ship updates as WEIGHT_DIFF: clients diff against the received
        global model, and (unless ``downlink_delta`` is off) the controller
        broadcasts versioned diffs of the global model to every site that
        acknowledged the previous one.
    ``float16``
        Quantize floating tensors to fp16 on the wire, both directions;
        the receiving side dequantizes before use.  When combined with
        delta the controller also rounds its canonical global model
        through fp16 so server and clients agree on the base bit-exactly.
    ``top_k``
        Optionally keep only this fraction of each weight diff (largest
        magnitudes), both directions; the server folds the kept entries
        sparse, with no dense copy of the update.
    ``deflate``
        Add the codec's lossless shuffle+deflate transform on top.

    Build from a spec string: ``CompressionConfig.from_spec("delta+fp16")``,
    tokens ``delta``, ``fp16``, ``topk`` / ``topk:0.05``, ``deflate``,
    ``no-downlink-delta``.
    """

    delta: bool = True
    float16: bool = True
    top_k: float | None = None
    downlink_delta: bool = True
    deflate: bool = False

    @classmethod
    def from_spec(cls, spec: "str | CompressionConfig | None") -> "CompressionConfig | None":
        if spec is None or isinstance(spec, cls):
            return spec
        delta = float16 = False
        top_k: float | None = None
        downlink_delta, deflate = True, False
        for token in str(spec).lower().split("+"):
            token = token.strip()
            if token == "delta":
                delta = True
            elif token in ("fp16", "float16"):
                float16 = True
            elif token.startswith("topk"):
                _, _, ratio = token.partition(":")
                top_k = float(ratio) if ratio else 0.1
            elif token == "deflate":
                deflate = True
            elif token == "no-downlink-delta":
                downlink_delta = False
            elif token:
                raise ValueError(f"unknown compression token {token!r} in {spec!r}")
        if not (delta or float16 or top_k or deflate):
            raise ValueError(f"compression spec {spec!r} enables nothing")
        return cls(delta=delta, float16=float16, top_k=top_k,
                   downlink_delta=downlink_delta, deflate=deflate)

    @property
    def wire_codec(self) -> str:
        return "raw+deflate" if self.deflate else "raw"

    # ------------------------------------------------------------------
    # matching filter chains (fresh instances per call: DeltaDecode is
    # stateful and must not be shared between clients)
    # ------------------------------------------------------------------
    def client_task_filters(self) -> list[DXOFilter]:
        """Applied by a client to incoming task data (downlink decode)."""
        chain: list[DXOFilter] = []
        if self.float16:
            chain.append(Float16Dequantize())
        if self.delta and self.downlink_delta:
            if self.top_k:
                # the controller sparsifies downlink deltas with error
                # feedback; restore them to dense before reconstruction
                chain.append(TopKDensify())
            chain.append(DeltaDecode())
        return chain

    def client_result_filters(self) -> list[DXOFilter]:
        """Applied by a client to outgoing results (uplink encode)."""
        chain: list[DXOFilter] = []
        if self.delta:
            chain.append(DeltaEncode())
        if self.top_k:
            chain.append(TopKSparsify(ratio=self.top_k))
        if self.float16:
            chain.append(Float16Quantize())
        return chain

    def server_result_filters(self) -> list[DXOFilter]:
        """Applied by the controller to each reply before aggregation.

        Top-k updates stay sparse: the aggregators read them through
        :func:`topk_tensors` (and densify only where they must)."""
        return [Float16Dequantize()] if self.float16 else []

    def downlink_task_filters(self) -> list[DXOFilter]:
        """Applied by the controller to broadcast payloads (downlink encode)."""
        return [Float16Quantize()] if self.float16 else []

    def adapt_aggregator(self, aggregator) -> None:
        """Point a WEIGHTS-expecting aggregator at WEIGHT_DIFF when delta
        encoding rewrites the uplink data kind."""
        if self.delta and getattr(aggregator, "expected_data_kind", None) == DataKind.WEIGHTS:
            aggregator.expected_data_kind = DataKind.WEIGHT_DIFF
