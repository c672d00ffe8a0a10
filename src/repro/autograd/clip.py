"""Gradient clipping utilities (global-norm and per-value clipping)."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .module import Parameter

__all__ = ["clip_grad_norm", "clip_grad_value", "grad_global_norm"]


def grad_global_norm(params: Iterable[Parameter]) -> float:
    """Return the L2 norm of all gradients concatenated."""
    total = 0.0
    for param in params:
        if param.grad is not None:
            # squared straight into one float64 buffer: the same values as
            # squaring a float64 copy of the gradient, without the copy
            total += float(np.square(param.grad, dtype=np.float64).sum())
    return math.sqrt(total)


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm, matching the torch API.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    params = list(params)
    norm = grad_global_norm(params)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for param in params:
            if param.grad is not None:
                param.grad *= scale
    return norm


def clip_grad_value(params: Iterable[Parameter], clip_value: float) -> None:
    """Clamp each gradient element to ``[-clip_value, clip_value]`` in place."""
    if clip_value <= 0:
        raise ValueError("clip_value must be positive")
    for param in params:
        if param.grad is not None:
            np.clip(param.grad, -clip_value, clip_value, out=param.grad)
