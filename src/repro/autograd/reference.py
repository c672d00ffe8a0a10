"""Unfused reference implementations of the fused ops in ``functional``.

These are the original first-generation compositions built from primitive
:class:`Tensor` ops (one graph node per ``exp``/``sum``/``mul``/...).  They
are kept as the correctness oracle for the fused kernels: every fused op in
:mod:`repro.autograd.functional` must produce the same outputs and the same
gradients as its composition here, and the test suite enforces that.

Each function mirrors the fused op's signature exactly, so a test can swap
one layer of the stack onto the reference implementations (e.g. via
monkeypatching ``repro.autograd.functional``) and re-run a fixed-seed
training run for bitwise-level comparison.

Do not use these in the training path — they are 2-10x slower; that gap is
tracked by ``benchmarks/test_fused_ops_microbench.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "gelu",
    "layer_norm",
    "add_layer_norm",
    "embed_layer_norm",
    "scaled_dot_product_attention",
    "multi_head_attention",
    "attention_layer",
    "ffn",
    "ffn_layer",
    "tanh_head",
    "lstm_step",
    "lstm_layer",
]

_GELU_COEFF = math.sqrt(2.0 / math.pi)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax composed from primitive ops."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax composed from primitive ops."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int | None = None,
                  reduction: str = "mean",
                  class_weights: np.ndarray | None = None) -> Tensor:
    """Cross-entropy as ``nll_loss(log_softmax(...))`` with a full graph."""
    from .functional import nll_loss

    if logits.ndim != 2:
        logits = logits.reshape(-1, logits.shape[-1])
    if isinstance(targets, Tensor):
        targets = targets.data
    return nll_loss(log_softmax(logits, axis=-1), targets, ignore_index=ignore_index,
                    reduction=reduction, class_weights=class_weights)


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray,
                                     reduction: str = "mean") -> Tensor:
    """Stable sigmoid cross-entropy: ``max(x,0) - x*t + log(1+exp(-|x|))``."""
    t = Tensor(np.asarray(targets, dtype=logits.dtype))
    relu_x = logits.relu()
    # |x| expressed as relu(x) + relu(-x) keeps the gradient path intact.
    abs_x = logits.relu() + (-logits).relu()
    softplus = (Tensor(np.ones_like(logits.data)) + (-abs_x).exp()).log()
    losses = relu_x - logits * t + softplus
    if reduction == "none":
        return losses
    if reduction == "sum":
        return losses.sum()
    return losses.mean()


def gelu(x: Tensor) -> Tensor:
    """GELU (tanh approximation) composed from primitive ops."""
    inner = (x + x * x * x * 0.044715) * _GELU_COEFF
    return x * (inner.tanh() + 1.0) * 0.5


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer norm differentiated through the mean/variance composition."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    normalised = centered * ((variance + eps) ** -0.5)
    return normalised * weight + bias


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor,
                                 attention_mask: np.ndarray | None = None,
                                 dropout_p: float = 0.0, training: bool = False,
                                 rng: np.random.Generator | None = None,
                                 mask_value: float = -1e9) -> Tensor:
    """Attention composed from matmul / masked_fill / softmax / dropout."""
    from .functional import dropout

    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = (q @ k.swapaxes(-1, -2)) * scale
    if attention_mask is not None:
        blocked = ~np.asarray(attention_mask, dtype=bool)
        scores = scores.masked_fill(np.broadcast_to(blocked, scores.shape), mask_value)
    probs = softmax(scores, axis=-1)
    if dropout_p > 0.0 and training:
        from .functional import _dropout_keep

        rng = rng or np.random.default_rng()
        # draw through the shared helper so a common generator produces the
        # identical mask the fused kernel would
        probs = probs * Tensor(_dropout_keep(rng, probs.shape, dropout_p,
                                             probs.dtype))
    return probs @ v


def multi_head_attention(x: Tensor, q_weight: Tensor, q_bias: Tensor,
                         k_weight: Tensor, k_bias: Tensor,
                         v_weight: Tensor, v_bias: Tensor,
                         out_weight: Tensor, out_bias: Tensor,
                         num_heads: int,
                         attention_mask: np.ndarray | None = None,
                         dropout_p: float = 0.0, training: bool = False,
                         rng: np.random.Generator | None = None,
                         mask_value: float = -1e9,
                         out_dropout_p: float = 0.0,
                         out_rng: np.random.Generator | None = None) -> Tensor:
    """The attention block as separate projections, reshapes and attention."""
    from .functional import _dropout_keep, linear

    batch, seq, _ = x.shape
    inner = q_weight.shape[0]
    head_dim = inner // num_heads

    def split_heads(projected: Tensor) -> Tensor:
        return projected.reshape(batch, seq, num_heads, head_dim).transpose(0, 2, 1, 3)

    q = split_heads(linear(x, q_weight, q_bias))
    k = split_heads(linear(x, k_weight, k_bias))
    v = split_heads(linear(x, v_weight, v_bias))
    context = scaled_dot_product_attention(
        q, k, v, attention_mask=attention_mask, dropout_p=dropout_p,
        training=training, rng=rng, mask_value=mask_value)
    merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, inner)
    out = linear(merged, out_weight, out_bias)
    if out_dropout_p > 0.0 and training:
        out_rng = out_rng or np.random.default_rng()
        out = out * Tensor(_dropout_keep(out_rng, out.shape, out_dropout_p,
                                         out.dtype))
    return out


def attention_layer(x: Tensor, q_weight: Tensor, q_bias: Tensor,
                    k_weight: Tensor, k_bias: Tensor,
                    v_weight: Tensor, v_bias: Tensor,
                    out_weight: Tensor, out_bias: Tensor,
                    num_heads: int, norm_weight: Tensor, norm_bias: Tensor,
                    attention_mask: np.ndarray | None = None,
                    dropout_p: float = 0.0, training: bool = False,
                    rng: np.random.Generator | None = None,
                    mask_value: float = -1e9,
                    out_dropout_p: float = 0.0,
                    out_rng: np.random.Generator | None = None,
                    eps: float = 1e-5) -> Tensor:
    """Post-norm attention sublayer ``LN(x + MHA(x))`` from unfused pieces."""
    sub = multi_head_attention(
        x, q_weight, q_bias, k_weight, k_bias, v_weight, v_bias,
        out_weight, out_bias, num_heads, attention_mask=attention_mask,
        dropout_p=dropout_p, training=training, rng=rng, mask_value=mask_value,
        out_dropout_p=out_dropout_p, out_rng=out_rng)
    return layer_norm(x + sub, norm_weight, norm_bias, eps=eps)


def ffn(x: Tensor, in_weight: Tensor, in_bias: Tensor,
        out_weight: Tensor, out_bias: Tensor,
        dropout_p: float = 0.0, training: bool = False,
        rng: np.random.Generator | None = None) -> Tensor:
    """Feed-forward block as two separate linears around an unfused GELU."""
    from .functional import _dropout_keep, linear

    out = linear(gelu(linear(x, in_weight, in_bias)), out_weight, out_bias)
    if dropout_p > 0.0 and training:
        rng = rng or np.random.default_rng()
        out = out * Tensor(_dropout_keep(rng, out.shape, dropout_p, out.dtype))
    return out


def ffn_layer(x: Tensor, in_weight: Tensor, in_bias: Tensor,
              out_weight: Tensor, out_bias: Tensor,
              norm_weight: Tensor, norm_bias: Tensor,
              dropout_p: float = 0.0, training: bool = False,
              rng: np.random.Generator | None = None,
              eps: float = 1e-5) -> Tensor:
    """Post-norm feed-forward sublayer ``LN(x + FFN(x))`` from unfused pieces."""
    sub = ffn(x, in_weight, in_bias, out_weight, out_bias,
              dropout_p=dropout_p, training=training, rng=rng)
    return layer_norm(x + sub, norm_weight, norm_bias, eps=eps)


def add_layer_norm(x: Tensor, sub: Tensor, weight: Tensor, bias: Tensor,
                   eps: float = 1e-5) -> Tensor:
    """Residual add + layer norm as separate primitive graph nodes."""
    return layer_norm(x + sub, weight, bias, eps=eps)


def embed_layer_norm(token_weight: Tensor, position_weight: Tensor,
                     ids: np.ndarray, ln_weight: Tensor, ln_bias: Tensor,
                     eps: float = 1e-5, dropout_p: float = 0.0,
                     training: bool = False,
                     rng: np.random.Generator | None = None) -> Tensor:
    """The embedding block as separate lookup / add / norm / dropout nodes."""
    from .functional import _dropout_keep, embedding

    idx = np.asarray(ids, dtype=np.int64)
    _, seq = idx.shape
    embedded = embedding(token_weight, idx) + position_weight[np.arange(seq)]
    out = layer_norm(embedded, ln_weight, ln_bias, eps=eps)
    if dropout_p > 0.0 and training:
        rng = rng or np.random.default_rng()
        out = out * Tensor(_dropout_keep(rng, out.shape, dropout_p, out.dtype))
    return out


def tanh_head(x: Tensor, dense_weight: Tensor, dense_bias: Tensor,
              out_weight: Tensor, out_bias: Tensor,
              dropout_p: float = 0.0, training: bool = False,
              rng: np.random.Generator | None = None) -> Tensor:
    """The classification head as separate linear / tanh / dropout nodes."""
    from .functional import _dropout_keep, linear

    hidden = linear(x, dense_weight, dense_bias).tanh()
    if dropout_p > 0.0 and training:
        rng = rng or np.random.default_rng()
        hidden = hidden * Tensor(_dropout_keep(rng, hidden.shape, dropout_p,
                                               hidden.dtype))
    return linear(hidden, out_weight, out_bias)


def lstm_step(gates_x: Tensor, h_prev: Tensor, c_prev: Tensor, weight_hh: Tensor,
              step_mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """One LSTM step composed from ~15 primitive graph nodes."""
    hd = h_prev.shape[-1]
    gates = gates_x + h_prev @ weight_hh.transpose()
    i = gates[:, 0 * hd:1 * hd].sigmoid()
    f = gates[:, 1 * hd:2 * hd].sigmoid()
    g = gates[:, 2 * hd:3 * hd].tanh()
    o = gates[:, 3 * hd:4 * hd].sigmoid()
    c = f * c_prev + i * g
    h = o * c.tanh()
    if step_mask is not None:
        keep = Tensor(np.asarray(step_mask, dtype=bool)
                      .astype(h.dtype).reshape(-1, 1))
        h = h * keep + h_prev * (1.0 - keep)
        c = c * keep + c_prev * (1.0 - keep)
    return h, c


def lstm_layer(x: Tensor, weight_ih: Tensor, weight_hh: Tensor, bias: Tensor,
               mask: np.ndarray | None = None, reverse: bool = False
               ) -> tuple[Tensor, Tensor, Tensor]:
    """A whole LSTM layer as a python time loop: one :func:`lstm_step`
    composition per timestep over ``__getitem__`` slices of the input
    projection, stacked back into ``(batch, seq, hidden)``."""
    from .functional import linear

    batch, seq, _ = x.shape
    proj = linear(x, weight_ih, bias)
    zeros = np.zeros((batch, weight_hh.shape[1]), dtype=weight_hh.dtype)
    h, c = Tensor(zeros), Tensor(zeros.copy())
    outputs: list[Tensor | None] = [None] * seq
    for t in (range(seq - 1, -1, -1) if reverse else range(seq)):
        h, c = lstm_step(proj[:, t], h, c, weight_hh,
                         step_mask=None if mask is None else np.asarray(mask)[:, t])
        outputs[t] = h
    return Tensor.stack(outputs, axis=1), h, c
