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
    WireForm,
    apply_delta,
    dequantize_fp16,
    diff_tensors,
    quantize_fp16,
)
from .fl_context import FLContext
from .shareable import Shareable, from_dxo
from .shareable_generator import FullModelShareableGenerator

__all__ = ["Downlink"]

Weights = dict[str, np.ndarray]


def _through_fp16(value) -> np.ndarray:
    """Round a floating tensor to the nearest fp16-representable value."""
    wire, dtype = quantize_fp16(np.asarray(value))
    return wire if dtype is None else dequantize_fp16(wire, dtype)


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
              ) -> tuple[Weights, Shareable | None, dict[str, Shareable] | None]:
        """One wave's payloads: ``(canonical global, task, overrides)``.

        ``task`` goes to every target not named in ``overrides`` (``None``
        when the delta reaches them all); both carry ``headers``.  The
        returned global is what the wire delivers (after fp16 rounding and
        delta truncation) and replaces the caller's copy.
        """
        self._sent.update(dict.fromkeys(targets, version))
        if self.compression is None:
            task = self.shareable_generator.learnable_to_shareable(
                global_weights, fl_ctx)
            task.update(headers)
            return global_weights, task, None

        synced: list[str] = []
        if (self._delta and self._last_broadcast is not None
                and set(self._last_broadcast) == set(global_weights)):
            synced = [site for site in targets
                      if self._held.get(site) == self._version]
        task = overrides = None
        if synced:
            with obs_trace.span("filter", stage="downlink", filter="delta"):
                global_weights, delta = self._encode_delta(global_weights, version)
            delta_task = from_dxo(delta)
            delta_task.update(headers)
            overrides = dict.fromkeys(synced, delta_task)
            self.log_info(
                "wave %d: delta broadcast to %d/%d site(s), full model to the rest",
                version, len(synced), len(targets))
        elif self.compression.float16:
            # Quantize the canonical global once per wave so the base the
            # clients diff against is exactly the model the server holds;
            # idempotent, so unchanged (under-quorum) models are stable.
            global_weights = {key: _through_fp16(value)
                              for key, value in global_weights.items()}
        if len(synced) < len(targets):
            # built after any error-feedback truncation, so full-broadcast
            # sites receive exactly the model the delta sites reconstruct
            full = DXO(data_kind=DataKind.WEIGHTS, data=global_weights,
                       meta={MetaKey.MODEL_VERSION: version})
            for task_filter in self.compression.downlink_task_filters():
                with obs_trace.span("filter", stage="downlink",
                                    filter=type(task_filter).__name__):
                    full = task_filter.process(full, fl_ctx)
            task = from_dxo(full)
            task.update(headers)
        if self._delta:
            # base for the next wave's diff: what this wave put on the wire
            # (dxo_to_learnable always builds fresh arrays, so references are
            # stable across the coming aggregation)
            self._last_broadcast = {key: np.asarray(value)
                                    for key, value in global_weights.items()}
        self._version = version
        return global_weights, task, overrides

    def _encode_delta(self, global_weights: Weights, version: int
                      ) -> tuple[Weights, DXO]:
        """Build the delta payload tensor by tensor, keeping server and
        clients bit-identical.

        Per tensor: fp16-round, diff against the base, add the residual,
        keep the top-k, quantize — through the :class:`WireForm` the site's
        filters encode with.  The payload as the clients reconstruct it
        defines the canonical global, rebuilt with :func:`apply_delta`, the
        arithmetic of DeltaDecode, so synced sites and server agree bit for
        bit (even lossless f32 needs this: ``base + (g - base)`` can differ
        from ``g`` by an ulp).  What truncation/rounding did not deliver
        becomes the tensor's residual, carried into the next wave.  Base and
        residual are replaced per tensor: the canonical global is the only
        model-sized thing built.
        """
        config = self.compression
        canonical: Weights = {}
        wire = WireForm(top_k=config.top_k, float16=config.float16)
        for key, value in global_weights.items():
            value = _through_fp16(value) if config.float16 else np.asarray(value)
            base = self._last_broadcast[key]
            delta = diff_tensors(value, base)
            floating = delta.dtype.kind == "f"
            if floating and key in self._residual:
                delta = delta + self._residual[key]
            wire_key, indices = wire.add(key, delta)
            shipped = wire.data[wire_key]
            if wire_key in wire.dtypes:
                # ship what the wire delivers, so the model matches it
                shipped = dequantize_fp16(shipped, wire.dtypes[wire_key])
            # the helper DeltaDecode restores with, so the result is bit-equal
            canonical[key] = apply_delta(base, shipped, indices, delta.shape,
                                         value.dtype)
            if floating:
                self._residual[key] = delta - diff_tensors(canonical[key], base)
            self._last_broadcast[key] = canonical[key]
        return canonical, wire.to_dxo(
            DataKind.WEIGHT_DIFF,
            {MetaKey.MODEL_VERSION: version, MetaKey.BASE_VERSION: self._version})
