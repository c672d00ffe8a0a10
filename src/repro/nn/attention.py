"""Multi-head scaled-dot-product self-attention (the BERT building block).

Following the X-Transformers library the paper built on, the per-head width
is independent of the model width: queries/keys/values project ``dim`` to
``num_heads * head_dim`` and the output projects back to ``dim``.  This is
what lets Table II's BERT use hidden dimension 128 with 6 heads (128 is not
divisible by 6).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Module, Tensor, functional as F
from .dropout import Dropout
from .linear import Linear
from .normalization import LayerNorm

__all__ = ["MultiHeadSelfAttention", "default_head_dim"]


def default_head_dim(dim: int, num_heads: int) -> int:
    """Per-head width used when none is given: ``ceil(dim / num_heads)``."""
    return max(1, -(-dim // num_heads))


class MultiHeadSelfAttention(Module):
    """Post-norm self-attention over a ``(batch, seq, dim)`` input.

    The module holds the projections and the probability dropout; the
    caller owns the layer norm of the residual add and passes it to
    :meth:`forward` (:class:`~repro.nn.TransformerEncoderLayer` does).

    Parameters
    ----------
    dim:
        Model width.
    num_heads:
        Number of attention heads (Table II: 6 for BERT, 2 for BERT-mini).
    head_dim:
        Width of each head; defaults to ``ceil(dim / num_heads)``.
    dropout:
        Dropout applied to the attention probabilities.
    """

    def __init__(self, dim: int, num_heads: int, head_dim: int | None = None,
                 dropout: float = 0.1, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if num_heads <= 0:
            raise ValueError("num_heads must be positive")
        rng = rng or np.random.default_rng()
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = head_dim if head_dim is not None else default_head_dim(dim, num_heads)
        inner = self.num_heads * self.head_dim
        self.query = Linear(dim, inner, rng=rng)
        self.key = Linear(dim, inner, rng=rng)
        self.value = Linear(dim, inner, rng=rng)
        self.out = Linear(inner, dim, rng=rng)
        self.attn_dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, attention_mask: np.ndarray | None = None,
                out_dropout: Dropout | None = None, *,
                post_norm: LayerNorm) -> Tensor:
        """Apply the post-norm attention sublayer ``LN(x + attn(x))``.

        Parameters
        ----------
        x:
            ``(batch, seq, dim)`` input.
        attention_mask:
            Optional boolean ``(batch, seq)`` array; True marks *valid* tokens.
            Padding positions are excluded from the softmax.
        out_dropout:
            Optional :class:`Dropout` applied to the block output — folded
            into the fused attention node instead of running as its own op.
        post_norm:
            The :class:`~repro.nn.LayerNorm` of the residual add, folded into
            the same node, so the whole encoder sublayer is one op.
        """
        batch, seq, _ = x.shape
        if attention_mask is not None:
            mask = np.asarray(attention_mask, dtype=bool)
            if mask.shape != (batch, seq):
                raise ValueError(f"attention_mask shape {mask.shape} != {(batch, seq)}")
            # broadcast over heads and query positions lazily: the fused
            # kernel consumes the (batch, 1, 1, seq) key-padding mask without
            # materializing it at full (batch, heads, seq, seq) score shape
            mask = mask[:, None, None, :]
        else:
            mask = None
        # the whole block -- Q/K/V projections, head split, masked softmax,
        # probability dropout, head merge, output projection, residual add
        # and layer norm -- is one fused graph node
        return F.attention_layer(
            x, self.query.weight, self.query.bias,
            self.key.weight, self.key.bias,
            self.value.weight, self.value.bias,
            self.out.weight, self.out.bias,
            self.num_heads, post_norm.weight, post_norm.bias,
            attention_mask=mask,
            dropout_p=self.attn_dropout.p,
            training=self.attn_dropout.training,
            rng=self.attn_dropout._rng,
            out_dropout_p=out_dropout.p if out_dropout is not None and out_dropout.training else 0.0,
            out_rng=out_dropout._rng if out_dropout is not None else None,
            eps=post_norm.eps)
