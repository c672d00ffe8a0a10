"""Downlink: the task payload(s) of one dispatch wave.

Without compression, one full-model shareable for everyone.  With a
:class:`CompressionConfig` the canonical global model is (optionally)
rounded through fp16 — making it bit-identical on both ends of the wire —
and sites that acknowledged the previous wave receive a small versioned
WEIGHT_DIFF while stale or unknown sites get the full weights.  Versions
are the engine's dispatch-wave counter: the round number under a round
barrier, finer than commits under a buffered policy (waves that ship the
same global diff to just the error-feedback residual).
"""

from __future__ import annotations

import numpy as np

from ..obs import trace as obs_trace
from .constants import DataKind
from .dxo import DXO, MetaKey
from .events import FLComponent
from .filters import (
    CompressionConfig,
    Float16Dequantize,
    Float16Quantize,
    TopKDensify,
    TopKSparsify,
    diff_tensors,
)
from .fl_context import FLContext
from .shareable import Shareable, from_dxo
from .shareable_generator import FullModelShareableGenerator

__all__ = ["Downlink"]

Weights = dict[str, np.ndarray]


def _through_fp16(tensors: Weights) -> Weights:
    """Round floating tensors to the nearest fp16-representable value."""
    return {key: value.astype(np.float16).astype(value.dtype)
            if value.dtype in (np.float32, np.float64) else value
            for key, value in ((k, np.asarray(v)) for k, v in tensors.items())}


class Downlink(FLComponent):
    """Builds broadcast payloads and tracks which model each site holds."""

    def __init__(self, compression: CompressionConfig | None = None,
                 shareable_generator: FullModelShareableGenerator | None = None
                 ) -> None:
        super().__init__(name="Downlink")
        self.compression = compression
        self.shareable_generator = shareable_generator or FullModelShareableGenerator()
        self._delta = bool(compression is not None and compression.delta
                           and compression.downlink_delta)
        # The last wave's canonical global and version (the diff base), the
        # version last *sent* to each site and the one it *acknowledged*.
        self._last_broadcast: Weights | None = None
        self._version = -1
        self._sent: dict[str, int] = {}
        self._held: dict[str, int] = {}
        # Error feedback for sparsified deltas: the part of each wave's delta
        # that top-k truncation did not ship, carried into the next wave so
        # every coordinate is eventually delivered.
        self._residual: Weights = {}

    def ack(self, site: str) -> None:
        """``site`` decoded the last payload sent to it (it answered OK, or
        failed only after applying the task data)."""
        self._held[site] = self._sent[site]

    # ------------------------------------------------------------------
    def build(self, global_weights: Weights, targets: list[str], version: int,
              headers: dict, fl_ctx: FLContext
              ) -> tuple[Weights, Shareable, dict[str, Shareable] | None]:
        """One wave's payloads: ``(canonical global, task, overrides)``.

        ``task`` goes to every target not named in ``overrides``; both carry
        ``headers``.  The returned global is what the wire delivers (after
        fp16 rounding and delta truncation) and replaces the caller's copy.
        """
        self._sent.update(dict.fromkeys(targets, version))
        if self.compression is None:
            task = self.shareable_generator.learnable_to_shareable(
                global_weights, fl_ctx)
            task.update(headers)
            return global_weights, task, None

        if self.compression.float16:
            # Quantize the canonical global once per wave so the base the
            # clients diff against is exactly the model the server holds;
            # idempotent, so unchanged (under-quorum) models are stable.
            global_weights = _through_fp16(global_weights)

        synced: list[str] = []
        if (self._delta and self._last_broadcast is not None
                and set(self._last_broadcast) == set(global_weights)):
            synced = [site for site in targets
                      if self._held.get(site) == self._version]
        payloads: dict[str, DXO] = {}
        if synced:
            delta = {key: diff_tensors(global_weights[key],
                                       self._last_broadcast[key])
                     for key in global_weights}
            meta = {MetaKey.MODEL_VERSION: version,
                    MetaKey.BASE_VERSION: self._version}
            global_weights, payloads["delta"] = self._encode_delta(
                global_weights, delta, meta, fl_ctx)
        # built after any error-feedback truncation, so full-broadcast sites
        # receive exactly the model the delta sites reconstruct
        payloads["full"] = DXO(data_kind=DataKind.WEIGHTS, data=global_weights,
                               meta={MetaKey.MODEL_VERSION: version})

        encoded: dict[str, Shareable] = {}
        for kind, dxo in payloads.items():
            for task_filter in self.compression.downlink_task_filters():
                with obs_trace.span("filter", stage="downlink",
                                    filter=type(task_filter).__name__):
                    dxo = task_filter.process(dxo, fl_ctx)
            encoded[kind] = from_dxo(dxo)
            encoded[kind].update(headers)
        if synced:
            self.log_info(
                "wave %d: delta broadcast to %d/%d site(s), full model to the rest",
                version, len(synced), len(targets))

        if self._delta:
            # base for the next wave's diff: what this wave put on the wire
            # (dxo_to_learnable always builds fresh arrays, so references are
            # stable across the coming aggregation)
            self._last_broadcast = {key: np.asarray(value)
                                    for key, value in global_weights.items()}
        self._version = version
        overrides = dict.fromkeys(synced, encoded["delta"]) if synced else None
        return global_weights, encoded["full"], overrides

    def _encode_delta(self, target: Weights, delta: Weights, meta: dict,
                      fl_ctx: FLContext) -> tuple[Weights, DXO]:
        """Build the delta payload, keeping server and clients bit-identical.

        The payload — exactly as the clients will reconstruct it after
        dequantization/densification — also defines the canonical global
        model, rebuilt with the same ``base + shipped`` arithmetic the
        clients run, so every synced site and the server hold the same
        weights bit for bit.  (Even the lossless f32 path needs this:
        ``base + (g - base)`` can differ from ``g`` by an ulp.)  Whatever the
        truncation/rounding did not deliver is carried in ``_residual`` into
        the next wave's delta: no update is lost, only deferred.
        """
        for key, remainder in self._residual.items():
            if key in delta and delta[key].dtype.kind == "f":
                delta[key] = delta[key] + remainder
        if self.compression.top_k:
            dense = DXO(data_kind=DataKind.WEIGHT_DIFF, data=delta,
                        meta=dict(meta))
            payload = TopKSparsify(ratio=self.compression.top_k).process(
                dense, fl_ctx)
            if self.compression.float16:
                # round the shipped values through fp16 up front so the
                # canonical model matches what the wire actually delivers
                payload = Float16Quantize().process(payload, fl_ctx)
                shipped = TopKDensify().process(
                    Float16Dequantize().process(payload, fl_ctx), fl_ctx).data
            else:
                shipped = TopKDensify().process(payload, fl_ctx).data
        else:
            # dense delta: the difference of two fp16-representable models
            # need not be fp16-representable, so pre-round it and account
            # the rounding in the residual
            shipped = _through_fp16(delta) if self.compression.float16 else delta
            payload = DXO(data_kind=DataKind.WEIGHT_DIFF, data=shipped,
                          meta=dict(meta))
        # same expression DeltaDecode evaluates, so the result is bit-equal
        canonical = {
            key: (np.asarray(self._last_broadcast[key]) + np.asarray(shipped[key]))
            .astype(np.asarray(target[key]).dtype, copy=False)
            for key in target}
        self._residual = {
            key: delta[key] - diff_tensors(canonical[key],
                                           self._last_broadcast[key])
            for key in delta if delta[key].dtype.kind == "f"}
        return canonical, payload
