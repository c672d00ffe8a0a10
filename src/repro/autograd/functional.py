"""Functional neural-network operations built on :class:`repro.autograd.Tensor`.

These mirror the parts of ``torch.nn.functional`` used by the paper's models:
softmax / log-softmax, cross-entropy (with ``ignore_index`` for masked-language
-model training), layer norm, GELU, dropout, a fused scaled-dot-product
attention and a fused LSTM step.

Unlike the first-generation implementations (preserved in
:mod:`repro.autograd.reference` for testing), every op here is *fused*: the
forward pass runs in raw numpy and registers a single graph node with a
closed-form backward, instead of composing dozens of primitive ``Tensor`` ops
that each allocate a node, a closure and several temporaries.  On the paper's
workloads this removes the graph-bookkeeping overhead that dominated step
time.

The stash rule: a node's backward closure keeps only what backward reads
and cannot rebuild bit for bit from what it keeps.  Dropout masks are kept
as ``bool`` and applied as ``x * kept * dtype(1/(1-p))``
(:func:`_dropout_into`), which equals the float-mask product bit for bit;
attention rebuilds ``probs * keep`` from ``probs`` and the mask; GELU keeps
only the pre-activation and rebuilds its tanh term, ``x**2`` and its output
(``ArrayBackend.gelu_recompute``); the LSTM takes ``tanh(c)`` of the stored
cell states again in one pass, and its BPTT writes the gate derivatives into
the gate stash it consumes.  GEMM outputs are kept, never recomputed.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from . import backend as _backend
from .backend import _mean_cols, _red_vec, _red_vec_cache, _sum_cols  # noqa: F401
from .tensor import Tensor, get_default_dtype, is_grad_enabled, scatter_add_rows

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "nll_loss",
    "gelu",
    "relu",
    "tanh",
    "sigmoid",
    "dropout",
    "linear",
    "embedding",
    "one_hot",
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
_GELU_CUBIC = 0.044715
# Rows of (batch * steps, 4H) gates an LSTM backward pass works on at once.
_BPTT_BLOCK_ROWS = 256


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# The GEMV reduction helpers (_red_vec/_sum_cols/_mean_cols) live in
# ``backend.py`` and are re-imported above: the softmax kernels need them
# and the layer-norm bodies below still call them directly.


def _softmax_into(owned: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax computed fully in place on ``owned``.

    Only call this on a buffer the caller allocated itself (e.g. fresh GEMM
    output) — the input values are destroyed.  Dispatches through the
    active array backend (:mod:`repro.autograd.backend`).
    """
    return _backend._ACTIVE.softmax_into(owned, axis)


def _stable_softmax(data: np.ndarray, axis: int) -> np.ndarray:
    return _backend._ACTIVE.stable_softmax(data, axis)


def _dropout_mask(rng: np.random.Generator, shape, p: float, dtype) -> np.ndarray:
    """Inverted-dropout keep mask as ``bool`` (True = the element survives).

    Draws float32 when the activations are float32 (half the RNG cost of the
    default float64 stream).  The fused ops keep this mask (one byte per
    element) and scale with :func:`_dropout_into`.
    """
    draw_dtype = np.float32 if np.dtype(dtype) == np.float32 else np.float64
    return rng.random(shape, dtype=draw_dtype) >= p


def _dropout_keep(rng: np.random.Generator, shape, p: float, dtype) -> np.ndarray:
    """The float keep mask ``{0, 1/(1-p)}`` from the same draw as
    :func:`_dropout_mask` — the oracle :mod:`repro.autograd.reference`
    multiplies by, so a shared generator masks both implementations alike."""
    return np.multiply(_dropout_mask(rng, shape, p, dtype), 1.0 / (1.0 - p),
                       dtype=np.dtype(dtype))


def _train_mask(like: np.ndarray, p: float, training: bool,
                rng: np.random.Generator | None) -> np.ndarray | None:
    """The bool keep mask for dropout on ``like``, or None when it is off."""
    if not (p > 0.0 and training):
        return None
    return _dropout_mask(rng or np.random.default_rng(), like.shape, p, like.dtype)


def _dropout_into(x: np.ndarray, kept: np.ndarray | None, p: float,
                  out: np.ndarray | None = None) -> np.ndarray:
    """``x * _dropout_keep(...)`` bit for bit, from the bool mask.

    ``x * 1`` is ``x`` and ``x * 0`` then times a positive scale is the
    same signed zero (or NaN) as ``x * 0``, so two multiplies by
    ``kept`` and ``dtype(1/(1-p))`` equal one multiply by the float mask.
    Writes into ``out`` (which may be ``x``) or a fresh array; with no mask
    (dropout off) returns ``x`` itself.
    """
    if kept is None:
        return x
    out = np.multiply(x, kept, out=out)
    out *= out.dtype.type(1.0 / (1.0 - p))
    return out


def _mask_scores(scores: np.ndarray, attention_mask: np.ndarray | None,
                 mask_value: float) -> None:
    """Write ``mask_value`` into the blocked (False) positions of ``scores``
    in place; the mask broadcasts lazily, never at full score shape."""
    if attention_mask is not None:
        np.copyto(scores, mask_value, where=np.logical_not(attention_mask))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis`` (one fused graph node)."""
    x = _as_tensor(x)
    probs = _stable_softmax(x.data, axis)

    def backward(grad: np.ndarray) -> None:
        inner = (grad * probs).sum(axis=axis, keepdims=True)
        x._accumulate(probs * (grad - inner))

    return Tensor._make(probs, (x,), "softmax", backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis`` (one fused graph node)."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - logsumexp

    def backward(grad: np.ndarray) -> None:
        probs = np.exp(out)
        x._accumulate(grad - probs * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out, (x,), "log_softmax", backward)


def nll_loss(log_probs: Tensor, targets: np.ndarray, ignore_index: int | None = None,
             reduction: str = "mean", class_weights: np.ndarray | None = None) -> Tensor:
    """Negative log likelihood from log-probabilities.

    Parameters
    ----------
    log_probs:
        ``(N, C)`` tensor of log-probabilities.
    targets:
        ``(N,)`` integer class indices.
    ignore_index:
        Target value whose positions contribute zero loss (used for non-masked
        positions in MLM training).
    reduction:
        ``"mean"`` (weighted mean over non-ignored targets, torch semantics),
        ``"sum"`` or ``"none"``.
    class_weights:
        Optional per-class loss weights ``(C,)`` — the standard treatment for
        imbalanced clinical cohorts (e.g. the 21% ADR-positive rate).
    """
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    n = targets.shape[0]
    if log_probs.shape[0] != n:
        raise ValueError(f"log_probs batch {log_probs.shape[0]} != targets batch {n}")
    valid, safe_targets = _valid_targets(targets, ignore_index)
    picked = log_probs[(np.arange(n), safe_targets)]
    weight_values = _target_weights(valid, safe_targets, class_weights,
                                    log_probs.dtype, log_probs.shape[-1])
    weights = Tensor(weight_values)
    losses = -picked * weights
    if reduction == "none":
        return losses
    total = losses.sum()
    if reduction == "sum":
        return total
    if reduction == "mean":
        denominator = float(weight_values.sum())
        return total * (1.0 / max(denominator, 1e-12))
    raise ValueError(f"unknown reduction {reduction!r}")


def _valid_targets(targets: np.ndarray, ignore_index: int | None
                   ) -> tuple[np.ndarray, np.ndarray]:
    if ignore_index is not None:
        valid = targets != ignore_index
        safe_targets = np.where(valid, targets, 0)
    else:
        valid = np.ones(targets.shape[0], dtype=bool)
        safe_targets = targets
    return valid, safe_targets


def _target_weights(valid: np.ndarray, safe_targets: np.ndarray,
                    class_weights: np.ndarray | None, dtype, num_classes: int
                    ) -> np.ndarray:
    weight_values = valid.astype(dtype)
    if class_weights is not None:
        class_weights = np.asarray(class_weights, dtype=dtype)
        if class_weights.shape != (num_classes,):
            raise ValueError(
                f"class_weights shape {class_weights.shape} != ({num_classes},)")
        weight_values = weight_values * class_weights[safe_targets]
    return weight_values


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int | None = None,
                  reduction: str = "mean",
                  class_weights: np.ndarray | None = None) -> Tensor:
    """Softmax cross-entropy between logits and integer targets, fused.

    Goes straight from logits to the loss in one graph node — no materialized
    probability graph.  ``logits`` with more than 2 dimensions are flattened
    to ``(N, C)`` internally (the MLM ``(batch, seq, vocab)`` case) without
    creating reshape nodes.
    """
    logits = _as_tensor(logits)
    raw = logits.data
    if raw.ndim != 2:
        raw = raw.reshape(-1, raw.shape[-1])
    if isinstance(targets, Tensor):
        targets = targets.data
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    n, num_classes = raw.shape
    if targets.shape[0] != n:
        raise ValueError(f"logits batch {n} != targets batch {targets.shape[0]}")
    valid, safe_targets = _valid_targets(targets, ignore_index)
    weight_values = _target_weights(valid, safe_targets, class_weights,
                                    raw.dtype, num_classes)

    shifted = raw - raw.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(n)
    log_probs_at_target = shifted[rows, safe_targets] - logsumexp[:, 0]
    losses = -log_probs_at_target * weight_values

    if reduction == "none":
        out_data = losses
    elif reduction == "sum":
        out_data = np.asarray(losses.sum(), dtype=raw.dtype)
    elif reduction == "mean":
        denominator = max(float(weight_values.sum()), 1e-12)
        out_data = np.asarray(losses.sum() / denominator, dtype=raw.dtype)
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def backward(grad: np.ndarray) -> None:
        # d loss_i / d logit_ij = w_i * (p_ij - 1[j == t_i]), scaled per reduction
        if reduction == "none":
            coeff = weight_values * grad
        elif reduction == "sum":
            coeff = weight_values * float(grad)
        else:
            coeff = weight_values * (float(grad) / denominator)
        dlogits = np.exp(shifted - logsumexp)
        dlogits *= coeff[:, None]
        dlogits[rows, safe_targets] -= coeff
        logits._accumulate(dlogits.reshape(logits.data.shape))

    return Tensor._make(out_data, (logits,), "cross_entropy", backward)


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray,
                                     reduction: str = "mean") -> Tensor:
    """Stable sigmoid cross-entropy: ``max(x,0) - x*t + log(1+exp(-|x|))``."""
    logits = _as_tensor(logits)
    x = logits.data
    t = np.asarray(targets, dtype=x.dtype)
    losses = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    if reduction == "none":
        out_data = losses
    elif reduction == "sum":
        out_data = np.asarray(losses.sum(), dtype=x.dtype)
    elif reduction == "mean":
        out_data = np.asarray(losses.mean(), dtype=x.dtype)
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def backward(grad: np.ndarray) -> None:
        dx = 1.0 / (1.0 + np.exp(-x)) - t  # sigmoid(x) - t
        if reduction == "none":
            logits._accumulate(grad * dx)
        elif reduction == "sum":
            logits._accumulate(float(grad) * dx)
        else:
            logits._accumulate((float(grad) / losses.size) * dx)

    return Tensor._make(out_data, (logits,), "bce_logits", backward)


def _gelu_forward(data: np.ndarray) -> np.ndarray:
    """Tanh-approximation GELU output.

    The kernel body lives on the active array backend
    (:meth:`~repro.autograd.backend.ArrayBackend.gelu_forward`).  Callers
    keep only ``data``; backward rebuilds the tanh term, ``x**2`` and the
    output with :func:`_gelu_recompute`.
    """
    return _backend._ACTIVE.gelu_forward(data)


def _gelu_recompute(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(out, tanh_term, x_squared)``, the output exactly as
    :func:`_gelu_forward` produced it."""
    return _backend._ACTIVE.gelu_recompute(data)


def _gelu_backward(grad: np.ndarray, data: np.ndarray, t: np.ndarray,
                   owned_sq: np.ndarray) -> np.ndarray:
    """d GELU(x) / dx from the tanh and square terms, applied to ``grad``;
    ``owned_sq`` (from :func:`_gelu_recompute`) is overwritten."""
    return _backend._ACTIVE.gelu_backward(grad, data, t, owned_sq)


def gelu(x: Tensor) -> Tensor:
    """GELU activation (tanh approximation, as in the original BERT code)."""
    x = _as_tensor(x)
    data = x.data
    out = _gelu_forward(data)

    def backward(grad: np.ndarray) -> None:
        t, sq = _gelu_recompute(data)[1:]  # the output is freed at once
        x._accumulate(_gelu_backward(grad, data, t, sq))

    return Tensor._make(out, (x,), "gelu", backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis, fused forward/backward.

    ``weight`` and ``bias`` are ``(dim,)`` scale/shift parameters; gradients
    use the closed-form layer-norm backward instead of differentiating
    through the mean/variance composition.
    """
    x = _as_tensor(x)
    data = x.data
    dim = data.shape[-1]
    x2d = data.reshape(-1, dim)
    xhat = x2d - _mean_cols(x2d)
    var = _mean_cols(xhat * xhat)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out2d = xhat * weight.data
    out2d += bias.data
    out = out2d.reshape(data.shape)

    def backward(grad: np.ndarray) -> None:
        g2d = grad.reshape(-1, dim)
        dxhat = g2d * weight.data
        mean_dxhat = _mean_cols(dxhat)
        mean_dxhat_xhat = _mean_cols(dxhat * xhat)
        dxhat -= mean_dxhat
        dxhat -= xhat * mean_dxhat_xhat
        dxhat *= inv_std
        x._accumulate_owned(dxhat.reshape(data.shape))
        weight._accumulate(g2d * xhat)  # _accumulate sums down to (dim,)
        bias._accumulate(g2d)

    return Tensor._make(out, (x, weight, bias), "layer_norm", backward)


def add_layer_norm(x: Tensor, sub: Tensor, weight: Tensor, bias: Tensor,
                   eps: float = 1e-5) -> Tensor:
    """Fused residual-add + layer norm: ``layer_norm(x + sub)`` in one node.

    The transformer post-norm pattern — both residual branches receive the
    identical normalized gradient, so fusing the add costs nothing and saves
    a graph node plus a full-size temporary per call.
    """
    x = _as_tensor(x)
    sub = _as_tensor(sub)
    shape = x.data.shape
    dim = shape[-1]
    total = (x.data + sub.data).reshape(-1, dim)
    xhat = total
    xhat -= _mean_cols(total)  # fresh buffer; reuse for the centered values
    var = _mean_cols(xhat * xhat)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out2d = xhat * weight.data
    out2d += bias.data
    out = out2d.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        g2d = grad.reshape(-1, dim)
        dxhat = g2d * weight.data
        mean_dxhat = _mean_cols(dxhat)
        mean_dxhat_xhat = _mean_cols(dxhat * xhat)
        dxhat -= mean_dxhat
        dxhat -= xhat * mean_dxhat_xhat
        dxhat *= inv_std  # now the gradient of the pre-norm sum
        dsum = dxhat.reshape(shape)
        # plain accumulate (copies) for x first, then sub may adopt the buffer
        x._accumulate(dsum)
        sub._accumulate_owned(dsum)
        weight._accumulate(g2d * xhat)  # _accumulate sums down to (dim,)
        bias._accumulate(g2d)

    return Tensor._make(out, (x, sub, weight, bias), "add_layer_norm", backward)


def embed_layer_norm(token_weight: Tensor, position_weight: Tensor,
                     ids: np.ndarray, ln_weight: Tensor, ln_bias: Tensor,
                     eps: float = 1e-5, dropout_p: float = 0.0,
                     training: bool = False,
                     rng: np.random.Generator | None = None) -> Tensor:
    """Fused BERT embedding block: token lookup + position add + layer norm
    (+ optional embedding dropout) as one graph node.

    Parameters
    ----------
    token_weight:
        ``(vocab, dim)`` embedding table.
    position_weight:
        ``(max_len, dim)`` learned position table; rows ``0..seq-1`` are used.
    ids:
        ``(batch, seq)`` integer token ids.
    ln_weight, ln_bias:
        ``(dim,)`` layer-norm scale/shift.
    dropout_p / training / rng:
        Inverted dropout on the normalised embeddings.
    """
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"dropout_p must be in [0, 1), got {dropout_p}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 2:
        raise ValueError(f"ids must be (batch, seq), got shape {idx.shape}")
    batch, seq = idx.shape
    if idx.size and (idx.min() < 0 or idx.max() >= token_weight.shape[0]):
        raise IndexError(f"token id out of range [0, {token_weight.shape[0]})")
    if seq > position_weight.shape[0]:
        raise ValueError(
            f"sequence length {seq} exceeds max_len {position_weight.shape[0]}")

    dim = token_weight.shape[-1]
    total = (token_weight.data[idx] + position_weight.data[:seq]).reshape(-1, dim)
    xhat = total
    xhat -= _mean_cols(total)  # fresh lookup buffer; reuse for centered values
    var = _mean_cols(xhat * xhat)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out2d = xhat * ln_weight.data
    out2d += ln_bias.data
    kept = _train_mask(out2d, dropout_p, training, rng)
    _dropout_into(out2d, kept, dropout_p, out=out2d)
    out = out2d.reshape(batch, seq, dim)

    parents = (token_weight, position_weight, ln_weight, ln_bias)

    def backward(grad: np.ndarray) -> None:
        g = _dropout_into(grad.reshape(-1, dim), kept, dropout_p)
        ln_weight._accumulate(g * xhat)  # _accumulate sums down to (dim,)
        ln_bias._accumulate(g)
        dxhat = g * ln_weight.data
        mean_dxhat = _mean_cols(dxhat)
        mean_dxhat_xhat = _mean_cols(dxhat * xhat)
        dxhat -= mean_dxhat
        dxhat -= xhat * mean_dxhat_xhat
        dxhat *= inv_std  # now the gradient of the pre-norm embedding sum
        dxhat = dxhat.reshape(batch, seq, dim)
        if token_weight.requires_grad:
            dtable = np.zeros_like(token_weight.data)
            scatter_add_rows(dtable, idx, dxhat)
            token_weight._accumulate_owned(dtable)
        if position_weight.requires_grad:
            dpos = np.zeros_like(position_weight.data)
            dpos[:seq] = dxhat.sum(axis=0)
            position_weight._accumulate_owned(dpos)

    return Tensor._make(out, parents, "embed_layer_norm", backward)


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor,
                                 attention_mask: np.ndarray | None = None,
                                 dropout_p: float = 0.0, training: bool = False,
                                 rng: np.random.Generator | None = None,
                                 mask_value: float = -1e9) -> Tensor:
    """Fused attention: ``softmax(q @ k^T / sqrt(d) + mask) @ v`` in one node.

    Parameters
    ----------
    q, k, v:
        ``(..., seq_q, d)``, ``(..., seq_k, d)`` and ``(..., seq_k, dv)``
        tensors (leading dims typically ``(batch, heads)``).
    attention_mask:
        Optional boolean array broadcastable to the ``(..., seq_q, seq_k)``
        score shape; True marks *valid* positions.  The mask is broadcast
        lazily — a ``(batch, 1, 1, seq)`` key-padding mask is never
        materialized at full score shape.
    dropout_p / training / rng:
        Inverted dropout on the attention probabilities, active only when
        ``training`` is True.
    """
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"dropout_p must be in [0, 1), got {dropout_p}")
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = q.data @ np.swapaxes(k.data, -1, -2)
    scores *= scale
    _mask_scores(scores, attention_mask, mask_value)
    probs = _softmax_into(scores)  # scores buffer is owned by this node
    kept = _train_mask(probs, dropout_p, training, rng)
    out = _dropout_into(probs, kept, dropout_p) @ v.data

    def backward(grad: np.ndarray) -> None:
        dattn = grad @ np.swapaxes(v.data, -1, -2)
        attn = _dropout_into(probs, kept, dropout_p)  # rebuilt, not kept
        v._accumulate(np.swapaxes(attn, -1, -2) @ grad)
        dprobs = _dropout_into(dattn, kept, dropout_p, out=dattn)
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dscores *= scale  # masked positions have probs≈0, so their grad is 0
        q._accumulate(dscores @ k.data)
        k._accumulate(np.swapaxes(dscores, -1, -2) @ q.data)

    return Tensor._make(out, (q, k, v), "sdpa", backward)


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
    """One graph node for a whole multi-head self-attention block.

    Fuses the Q/K/V projections, head split, scaled-dot-product attention
    (mask, softmax, probability dropout), head merge and output projection.
    The unfused path builds ~15 graph nodes per block; on narrow models
    (BERT-mini's hidden width of 50) that bookkeeping dominates the GEMMs.

    Parameters
    ----------
    x:
        ``(batch, seq, dim)`` input.
    q_weight, k_weight, v_weight:
        ``(num_heads * head_dim, dim)`` projection weights (torch layout),
        with matching ``(num_heads * head_dim,)`` biases.
    out_weight, out_bias:
        ``(dim_out, num_heads * head_dim)`` output projection.
    attention_mask:
        Optional boolean array broadcastable to the
        ``(batch, heads, seq, seq)`` score shape; True marks valid positions.
    dropout_p / training / rng:
        Inverted dropout on the attention probabilities.
    out_dropout_p / out_rng:
        Optional inverted dropout on the block output (the dropout a
        transformer encoder layer applies before the residual add), folded
        into the same node.
    """
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"dropout_p must be in [0, 1), got {dropout_p}")
    if not 0.0 <= out_dropout_p < 1.0:
        raise ValueError(f"out_dropout_p must be in [0, 1), got {out_dropout_p}")
    x = _as_tensor(x)
    data = x.data
    batch, seq, dim = data.shape
    inner = q_weight.shape[0]
    if inner % num_heads:
        raise ValueError(f"projection width {inner} not divisible by {num_heads} heads")
    head_dim = inner // num_heads
    scale = 1.0 / math.sqrt(head_dim)
    x2d = data.reshape(batch * seq, dim)

    # one concatenated GEMM for all three projections instead of three
    wqkv = np.concatenate((q_weight.data, k_weight.data, v_weight.data), axis=0)
    bqkv = np.concatenate((q_bias.data, k_bias.data, v_bias.data))
    p2d = x2d @ wqkv.T
    p2d += bqkv
    # (batch*seq, 3*inner) -> (3, batch, heads, seq, head_dim) strided view;
    # each 2-d slice keeps a contiguous innermost axis, so the batched GEMMs
    # below run on BLAS lda-strided inputs without a pack copy
    qkv = p2d.reshape(batch, seq, 3, num_heads, head_dim).transpose(2, 0, 3, 1, 4)
    q, k, v = qkv[0], qkv[1], qkv[2]

    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= scale
    _mask_scores(scores, attention_mask, mask_value)
    probs = _softmax_into(scores)  # scores buffer is owned by this node
    kept = _train_mask(probs, dropout_p, training, rng)
    context = _dropout_into(probs, kept, dropout_p) @ v  # (batch, heads, seq, head_dim)
    ctx2d = np.ascontiguousarray(context.transpose(0, 2, 1, 3)).reshape(batch * seq, inner)
    out2d = ctx2d @ out_weight.data.T
    out2d += out_bias.data
    out_kept = _train_mask(out2d, out_dropout_p, training, out_rng)
    _dropout_into(out2d, out_kept, out_dropout_p, out=out2d)
    out = out2d.reshape(batch, seq, out_weight.shape[0])

    parents = (x, q_weight, q_bias, k_weight, k_bias, v_weight, v_bias,
               out_weight, out_bias)

    def backward(grad: np.ndarray) -> None:
        g2d = _dropout_into(grad.reshape(batch * seq, grad.shape[-1]),
                            out_kept, out_dropout_p)
        out_weight._accumulate_owned(g2d.T @ ctx2d)
        out_bias._accumulate_owned(g2d.sum(axis=0))
        dcontext = np.ascontiguousarray(
            (g2d @ out_weight.data)
            .reshape(batch, seq, num_heads, head_dim).transpose(0, 2, 1, 3))
        dattn = dcontext @ v.transpose(0, 1, 3, 2)
        # fresh GEMM output; becomes dprobs in place
        _dropout_into(dattn, kept, dropout_p, out=dattn)
        d2 = dattn.reshape(-1, seq)
        p2 = probs.reshape(-1, seq)
        d2 -= _sum_cols(d2 * p2)
        d2 *= p2
        dscores = dattn  # transformed in place through the softmax
        dscores *= scale  # masked positions have probs≈0, so their grad is 0

        dqkv = np.empty((3, batch, num_heads, seq, head_dim), dtype=p2d.dtype)
        np.matmul(dscores, k, out=dqkv[0])
        np.matmul(dscores.transpose(0, 1, 3, 2), q, out=dqkv[1])
        attn = _dropout_into(probs, kept, dropout_p)  # rebuilt, not kept
        np.matmul(attn.transpose(0, 1, 3, 2), dcontext, out=dqkv[2])
        # (3, batch, heads, seq, head_dim) -> (batch*seq, 3*inner), matching
        # the concatenated forward layout
        d2d = np.ascontiguousarray(
            dqkv.transpose(1, 3, 0, 2, 4)).reshape(batch * seq, 3 * inner)
        dwqkv = d2d.T @ x2d
        # disjoint slices of freshly-built buffers may all be adopted
        q_weight._accumulate_owned(dwqkv[:inner])
        k_weight._accumulate_owned(dwqkv[inner:2 * inner])
        v_weight._accumulate_owned(dwqkv[2 * inner:])
        dbqkv = d2d.sum(axis=0)
        q_bias._accumulate_owned(dbqkv[:inner])
        k_bias._accumulate_owned(dbqkv[inner:2 * inner])
        v_bias._accumulate_owned(dbqkv[2 * inner:])
        if x.requires_grad:
            x._accumulate_owned((d2d @ wqkv).reshape(batch, seq, dim))

    return Tensor._make(out, parents, "multi_head_attention", backward)


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
    """Whole post-norm attention sublayer as one node: ``LN(x + MHA(x))``.

    Same contract as :func:`multi_head_attention` plus the residual add and
    the post-layer-norm (``norm_weight``/``norm_bias``), so a transformer
    encoder layer's first half is a single graph node.
    """
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"dropout_p must be in [0, 1), got {dropout_p}")
    if not 0.0 <= out_dropout_p < 1.0:
        raise ValueError(f"out_dropout_p must be in [0, 1), got {out_dropout_p}")
    x = _as_tensor(x)
    data = x.data
    batch, seq, dim = data.shape
    inner = q_weight.shape[0]
    if inner % num_heads:
        raise ValueError(f"projection width {inner} not divisible by {num_heads} heads")
    head_dim = inner // num_heads
    scale = 1.0 / math.sqrt(head_dim)
    x2d = data.reshape(batch * seq, dim)

    wqkv = np.concatenate((q_weight.data, k_weight.data, v_weight.data), axis=0)
    bqkv = np.concatenate((q_bias.data, k_bias.data, v_bias.data))
    p2d = x2d @ wqkv.T
    p2d += bqkv
    qkv = p2d.reshape(batch, seq, 3, num_heads, head_dim).transpose(2, 0, 3, 1, 4)
    q, k, v = qkv[0], qkv[1], qkv[2]

    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= scale
    _mask_scores(scores, attention_mask, mask_value)
    probs = _softmax_into(scores)
    kept = _train_mask(probs, dropout_p, training, rng)
    context = _dropout_into(probs, kept, dropout_p) @ v
    ctx2d = np.ascontiguousarray(context.transpose(0, 2, 1, 3)).reshape(batch * seq, inner)
    sub2d = ctx2d @ out_weight.data.T
    sub2d += out_bias.data
    out_kept = _train_mask(sub2d, out_dropout_p, training, out_rng)
    _dropout_into(sub2d, out_kept, out_dropout_p, out=sub2d)

    # residual add + post-norm, in place on the fresh projection buffer
    xhat = sub2d
    xhat += x2d
    xhat -= _mean_cols(xhat)
    var = _mean_cols(xhat * xhat)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out2d = xhat * norm_weight.data
    out2d += norm_bias.data
    out = out2d.reshape(batch, seq, dim)

    parents = (x, q_weight, q_bias, k_weight, k_bias, v_weight, v_bias,
               out_weight, out_bias, norm_weight, norm_bias)

    def backward(grad: np.ndarray) -> None:
        g2d = grad.reshape(batch * seq, dim)
        norm_weight._accumulate(g2d * xhat)  # _accumulate sums down to (dim,)
        norm_bias._accumulate(g2d)
        dsum = g2d * norm_weight.data
        mean_dsum = _mean_cols(dsum)
        mean_dsum_xhat = _mean_cols(dsum * xhat)
        dsum -= mean_dsum
        dsum -= xhat * mean_dsum_xhat
        dsum *= inv_std  # gradient of x + attention(x), shape (batch*seq, dim)

        gs2d = _dropout_into(dsum, out_kept, out_dropout_p)
        out_weight._accumulate_owned(gs2d.T @ ctx2d)
        out_bias._accumulate_owned(gs2d.sum(axis=0))
        dcontext = np.ascontiguousarray(
            (gs2d @ out_weight.data)
            .reshape(batch, seq, num_heads, head_dim).transpose(0, 2, 1, 3))
        dattn = dcontext @ v.transpose(0, 1, 3, 2)
        # fresh GEMM output; becomes dprobs in place
        _dropout_into(dattn, kept, dropout_p, out=dattn)
        d2 = dattn.reshape(-1, seq)
        p2 = probs.reshape(-1, seq)
        d2 -= _sum_cols(d2 * p2)
        d2 *= p2
        dscores = dattn  # transformed in place through the softmax
        dscores *= scale

        dqkv = np.empty((3, batch, num_heads, seq, head_dim), dtype=p2d.dtype)
        np.matmul(dscores, k, out=dqkv[0])
        np.matmul(dscores.transpose(0, 1, 3, 2), q, out=dqkv[1])
        attn = _dropout_into(probs, kept, dropout_p)  # rebuilt, not kept
        np.matmul(attn.transpose(0, 1, 3, 2), dcontext, out=dqkv[2])
        d2d = np.ascontiguousarray(
            dqkv.transpose(1, 3, 0, 2, 4)).reshape(batch * seq, 3 * inner)
        dwqkv = d2d.T @ x2d
        q_weight._accumulate_owned(dwqkv[:inner])
        k_weight._accumulate_owned(dwqkv[inner:2 * inner])
        v_weight._accumulate_owned(dwqkv[2 * inner:])
        dbqkv = d2d.sum(axis=0)
        q_bias._accumulate_owned(dbqkv[:inner])
        k_bias._accumulate_owned(dbqkv[inner:2 * inner])
        v_bias._accumulate_owned(dbqkv[2 * inner:])
        if x.requires_grad:
            dx = d2d @ wqkv
            dx += dsum  # residual branch folds in without a second accumulate
            x._accumulate_owned(dx.reshape(batch, seq, dim))

    return Tensor._make(out, parents, "attention_layer", backward)


def ffn(x: Tensor, in_weight: Tensor, in_bias: Tensor,
        out_weight: Tensor, out_bias: Tensor,
        dropout_p: float = 0.0, training: bool = False,
        rng: np.random.Generator | None = None) -> Tensor:
    """Fused transformer feed-forward block: ``linear -> GELU -> linear``.

    One graph node instead of three; both projections run as 2-d GEMMs over
    flattened leading dims and the GELU uses the in-place helpers.  Optional
    inverted dropout on the block output (the dropout an encoder layer
    applies before the residual add) is folded into the same node.
    """
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"dropout_p must be in [0, 1), got {dropout_p}")
    x = _as_tensor(x)
    data = x.data
    lead_shape = data.shape[:-1]
    x2d = data.reshape(-1, data.shape[-1])
    hidden = x2d @ in_weight.data.T
    hidden += in_bias.data
    activated = _gelu_forward(hidden)
    out2d = activated @ out_weight.data.T
    out2d += out_bias.data
    out_kept = _train_mask(out2d, dropout_p, training, rng)
    _dropout_into(out2d, out_kept, dropout_p, out=out2d)
    out = out2d.reshape(lead_shape + (out_weight.shape[0],))

    parents = (x, in_weight, in_bias, out_weight, out_bias)

    def backward(grad: np.ndarray) -> None:
        g2d = _dropout_into(grad.reshape(-1, grad.shape[-1]), out_kept, dropout_p)
        activated, t, sq = _gelu_recompute(hidden)
        out_weight._accumulate_owned(g2d.T @ activated)
        del activated  # only the weight gradient reads the GELU output
        out_bias._accumulate_owned(g2d.sum(axis=0))
        dhidden = _gelu_backward(g2d @ out_weight.data, hidden, t, sq)
        in_weight._accumulate_owned(dhidden.T @ x2d)
        in_bias._accumulate_owned(dhidden.sum(axis=0))
        if x.requires_grad:
            x._accumulate_owned((dhidden @ in_weight.data).reshape(data.shape))

    return Tensor._make(out, parents, "ffn", backward)


def ffn_layer(x: Tensor, in_weight: Tensor, in_bias: Tensor,
              out_weight: Tensor, out_bias: Tensor,
              norm_weight: Tensor, norm_bias: Tensor,
              dropout_p: float = 0.0, training: bool = False,
              rng: np.random.Generator | None = None,
              eps: float = 1e-5) -> Tensor:
    """Whole post-norm feed-forward sublayer as one node: ``LN(x + FFN(x))``.

    Same contract as :func:`ffn` plus the residual add and the post-layer-norm,
    so a transformer encoder layer's second half is a single graph node.
    """
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"dropout_p must be in [0, 1), got {dropout_p}")
    x = _as_tensor(x)
    data = x.data
    dim = data.shape[-1]
    x2d = data.reshape(-1, dim)
    hidden = x2d @ in_weight.data.T
    hidden += in_bias.data
    activated = _gelu_forward(hidden)
    sub2d = activated @ out_weight.data.T
    sub2d += out_bias.data
    out_kept = _train_mask(sub2d, dropout_p, training, rng)
    _dropout_into(sub2d, out_kept, dropout_p, out=sub2d)

    # residual add + post-norm, in place on the fresh projection buffer
    xhat = sub2d
    xhat += x2d
    xhat -= _mean_cols(xhat)
    var = _mean_cols(xhat * xhat)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out2d = xhat * norm_weight.data
    out2d += norm_bias.data
    out = out2d.reshape(data.shape)

    parents = (x, in_weight, in_bias, out_weight, out_bias,
               norm_weight, norm_bias)

    def backward(grad: np.ndarray) -> None:
        g2d = grad.reshape(-1, dim)
        norm_weight._accumulate(g2d * xhat)  # _accumulate sums down to (dim,)
        norm_bias._accumulate(g2d)
        dsum = g2d * norm_weight.data
        mean_dsum = _mean_cols(dsum)
        mean_dsum_xhat = _mean_cols(dsum * xhat)
        dsum -= mean_dsum
        dsum -= xhat * mean_dsum_xhat
        dsum *= inv_std  # gradient of x + ffn(x), shape (batch*seq, dim)

        gs2d = _dropout_into(dsum, out_kept, dropout_p)
        activated, t, sq = _gelu_recompute(hidden)
        out_weight._accumulate_owned(gs2d.T @ activated)
        del activated  # only the weight gradient reads the GELU output
        out_bias._accumulate_owned(gs2d.sum(axis=0))
        dhidden = _gelu_backward(gs2d @ out_weight.data, hidden, t, sq)
        in_weight._accumulate_owned(dhidden.T @ x2d)
        in_bias._accumulate_owned(dhidden.sum(axis=0))
        if x.requires_grad:
            dx = dhidden @ in_weight.data
            dx += dsum  # residual branch folds in without a second accumulate
            x._accumulate_owned(dx.reshape(data.shape))

    return Tensor._make(out, parents, "ffn_layer", backward)


def tanh_head(x: Tensor, dense_weight: Tensor, dense_bias: Tensor,
              out_weight: Tensor, out_bias: Tensor,
              dropout_p: float = 0.0, training: bool = False,
              rng: np.random.Generator | None = None) -> Tensor:
    """Fused BERT-style classification head: ``linear -> tanh -> dropout ->
    linear`` as one graph node over a pooled ``(batch, dim)`` input."""
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"dropout_p must be in [0, 1), got {dropout_p}")
    x = _as_tensor(x)
    data = x.data
    lead_shape = data.shape[:-1]
    x2d = data.reshape(-1, data.shape[-1])
    hidden = x2d @ dense_weight.data.T
    hidden += dense_bias.data
    t = _backend._ACTIVE.tanh(hidden, out=hidden)
    kept = _train_mask(t, dropout_p, training, rng)
    out2d = _dropout_into(t, kept, dropout_p) @ out_weight.data.T
    out2d += out_bias.data
    out = out2d.reshape(lead_shape + (out_weight.shape[0],))

    parents = (x, dense_weight, dense_bias, out_weight, out_bias)

    def backward(grad: np.ndarray) -> None:
        g2d = grad.reshape(-1, grad.shape[-1])
        out_weight._accumulate_owned(g2d.T @ _dropout_into(t, kept, dropout_p))
        out_bias._accumulate_owned(g2d.sum(axis=0))
        da = g2d @ out_weight.data
        _dropout_into(da, kept, dropout_p, out=da)
        sech2 = t * t
        np.subtract(1.0, sech2, out=sech2)
        da *= sech2  # through the tanh
        dense_weight._accumulate_owned(da.T @ x2d)
        dense_bias._accumulate_owned(da.sum(axis=0))
        if x.requires_grad:
            x._accumulate_owned((da @ dense_weight.data).reshape(data.shape))

    return Tensor._make(out, parents, "tanh_head", backward)


def lstm_step(gates_x: Tensor, h_prev: Tensor, c_prev: Tensor, weight_hh: Tensor,
              step_mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """One fused LSTM step: all four gates, the cell update and the output
    nonlinearity in a single forward with closed-form backwards.

    Parameters
    ----------
    gates_x:
        ``(batch, 4*hidden)`` input projection ``x_t @ W_ih^T + b`` — hoisted
        out of the time loop by the caller (the cuDNN trick: one
        ``(batch*seq, 4H)`` matmul for the whole sequence).
    h_prev, c_prev:
        ``(batch, hidden)`` previous state.
    weight_hh:
        ``(4*hidden, hidden)`` recurrent weights, gate layout
        ``[input, forget, cell, output]``.
    step_mask:
        Optional boolean ``(batch,)``; rows where False carry the previous
        state through unchanged (padding steps).

    Returns the new ``(h, c)``.  The pair shares one forward computation;
    each output owns a backward closure for its own incoming gradient, so the
    op costs two graph nodes instead of the ~15 a primitive composition
    needs.
    """
    hd = h_prev.shape[-1]
    bk = _backend._ACTIVE
    gates = gates_x.data + h_prev.data @ weight_hh.data.T
    i = bk.sigmoid(gates[:, :hd])
    f = bk.sigmoid(gates[:, hd:2 * hd])
    g = bk.tanh(gates[:, 2 * hd:3 * hd])
    o = bk.sigmoid(gates[:, 3 * hd:])
    c_new = f * c_prev.data + i * g
    t = bk.tanh(c_new)
    h_new = o * t

    if step_mask is not None:
        m = np.asarray(step_mask, dtype=bool).reshape(-1, 1)
        h_data = np.where(m, h_new, h_prev.data)
        c_data = np.where(m, c_new, c_prev.data)
    else:
        m = None
        h_data, c_data = h_new, c_new

    parents = (gates_x, h_prev, c_prev, weight_hh)

    def push(dc: np.ndarray, do: np.ndarray | None,
             dh_pass: np.ndarray | None, dc_pass: np.ndarray | None) -> None:
        """Map an internal cell gradient ``dc`` (+ output-gate grad ``do``)
        onto the four parents, adding any masked passthrough terms."""
        dgates = np.empty_like(gates)
        dgates[:, :hd] = dc * g * i * (1.0 - i)
        dgates[:, hd:2 * hd] = dc * c_prev.data * f * (1.0 - f)
        dgates[:, 2 * hd:3 * hd] = dc * i * (1.0 - g * g)
        dgates[:, 3 * hd:] = 0.0 if do is None else do * o * (1.0 - o)
        gates_x._accumulate(dgates)
        weight_hh._accumulate(dgates.T @ h_prev.data)
        if h_prev.requires_grad:
            dh_prev = dgates @ weight_hh.data
            h_prev._accumulate(dh_prev if dh_pass is None else dh_prev + dh_pass)
        if c_prev.requires_grad:
            dc_prev = dc * f
            c_prev._accumulate(dc_prev if dc_pass is None else dc_prev + dc_pass)

    def backward_h(grad: np.ndarray) -> None:
        if m is not None:
            dh_pass = np.where(m, 0.0, grad)
            grad = np.where(m, grad, 0.0)
        else:
            dh_pass = None
        do = grad * t
        dc = grad * o * (1.0 - t * t)
        push(dc, do, dh_pass, None)

    def backward_c(grad: np.ndarray) -> None:
        if m is not None:
            dc_pass = np.where(m, 0.0, grad)
            grad = np.where(m, grad, 0.0)
        else:
            dc_pass = None
        push(grad, None, None, dc_pass)

    h_out = Tensor._make(h_data, parents, "lstm_step_h", backward_h)
    c_out = Tensor._make(c_data, parents, "lstm_step_c", backward_c)
    return h_out, c_out


def _lstm_gate_factors(gates: np.ndarray, tanh_c: np.ndarray, f_copy: np.ndarray,
                       c_prev: np.ndarray) -> None:
    """Overwrite activated LSTM gates ``(rows, 4, H)`` with each gate's
    derivative times its partner in the cell update, and ``tanh_c`` with
    ``o (1 - tanh^2 c)``, by the float ops of a separate derivative buffer.

    ``f_copy`` is a copy of the forget gate.  Each block of rows works on
    contiguous memory that stays in cache across the dozen passes: i, g and
    o are copied gate-major into a ``(3, block, H)`` slab, each factor is
    built there or in a block-sized scratch (f's straight from ``f_copy``),
    and is copied back once.  i and g (o and tanh c) read each other, so one
    product waits in the scratch.
    """
    n_max = min(len(f_copy), _BPTT_BLOCK_ROWS)
    slab = np.empty((3, n_max, gates.shape[2]), dtype=gates.dtype)
    partial = np.empty((n_max, f_copy.shape[1]), dtype=f_copy.dtype)
    for a in range(0, len(f_copy), _BPTT_BLOCK_ROWS):
        block = slice(a, a + _BPTT_BLOCK_ROWS)
        tc, fk = tanh_c[block], f_copy[block]
        n = len(fk)
        by_gate, here = gates[block].transpose(1, 0, 2), slab[:, :n]
        np.copyto(here[0], by_gate[0])
        np.copyto(here[1:], by_gate[2:])
        i, g, o = here
        part = partial[:n]
        np.subtract(1.0, i, out=part)
        part *= i
        part *= g                             # s(1-s) g for i
        np.copyto(by_gate[0], part)
        np.multiply(g, g, out=g)
        np.subtract(1.0, g, out=g)
        g *= i                                # (1 - g^2) i
        np.copyto(by_gate[2], g)
        np.subtract(1.0, o, out=part)
        part *= o
        part *= tc                            # s(1-s) tanh(c) for o
        np.copyto(by_gate[3], part)
        np.multiply(tc, tc, out=tc)
        np.subtract(1.0, tc, out=tc)
        tc *= o                               # o (1 - tanh^2 c)
        np.subtract(1.0, fk, out=part)
        part *= fk
        part *= c_prev[block]                 # s(1-s) c_prev for f
        np.copyto(by_gate[1], part)


def lstm_layer(x: Tensor, weight_ih: Tensor, weight_hh: Tensor, bias: Tensor,
               mask: np.ndarray | None = None, reverse: bool = False
               ) -> tuple[Tensor, Tensor, Tensor]:
    """One LSTM layer over a whole sequence as a single graph node (the
    cuDNN design): the time loop runs forward *and* backward inside the node.

    Parameters
    ----------
    x:
        ``(batch, seq, input_dim)`` layer input.
    weight_ih, weight_hh, bias:
        ``(4*hidden, input_dim)``, ``(4*hidden, hidden)`` and ``(4*hidden,)``
        with gate layout ``[input, forget, cell, output]``.
    mask:
        Optional boolean ``(batch, seq)``; False (padding) steps carry the
        previous state through unchanged.  Leading and trailing steps that
        are padding for the whole batch cost nothing but that copy.
    reverse:
        Walk ``t`` downwards (the right-to-left half of a bidirectional
        stack); outputs stay aligned with the input positions.

    Returns ``(out, h_last, c_last)``: the ``(batch, seq, hidden)`` output
    sequence and the state after the last step walked, all from a zero
    initial state.  ``h_last`` is a slice of ``out``; ``c_last`` is a sibling
    node that costs a second BPTT only when something consumes it.

    Forward: one time-major ``(seq*batch, 4H)`` input-projection GEMM, then a
    loop that adds the recurrent projection and activates the gates in place.
    Under grad the activated gates and every ``h``/``c`` stay stashed
    (time-major, one buffer each); under ``no_grad`` only the output
    sequence outlives the call.  Backward: ``tanh(c)`` and the
    gate-derivative factors are formed in bulk and overwrite the stashed
    ``gates`` in place (one ``(seq, batch, hidden)`` copy of the forget gate
    survives for the loop), the loop carries ``dh``/``dc`` as plain arrays
    with one ``dgates @ W_hh`` GEMM per step, the real tokens are compacted
    to the front of the same buffer, and the three parameter gradients and
    ``dx`` are one GEMM each over them.  The out-node and ``c_last`` share
    the stash: while the other one can still run, backward works on a copy.
    """
    x = _as_tensor(x)
    batch, seq, in_dim = x.shape
    hd = weight_hh.shape[1]
    bk = _backend._ACTIVE
    dtype = weight_hh.data.dtype
    parents = (x, weight_ih, weight_hh, bias)
    stash = is_grad_enabled() and any(p.requires_grad for p in parents)

    # ``ragged`` marks the steps where some row is padding.  Steps outside
    # [lo, hi) are padding for every row: the state is copied across them and
    # no buffer below is read or written there.
    lo, hi, ragged = 0, seq, np.zeros(seq, dtype=bool)
    if mask is not None:
        real = np.asarray(mask, dtype=bool).T[:, :, None]  # (seq, batch, 1)
        pad = ~real
        ragged = pad.any(axis=(1, 2))
        occupied = np.flatnonzero(real.any(axis=(1, 2)))
        lo, hi = (occupied[0], occupied[-1] + 1) if occupied.size else (0, 0)
    window = slice(lo, hi)
    rows = slice(lo * batch, hi * batch)

    # Time-major so each step's rows are contiguous; a no-op when ``x`` is
    # the output of the layer below.
    x2d = np.ascontiguousarray(x.data.transpose(1, 0, 2)).reshape(seq * batch, in_dim)
    gates2d = np.empty((seq * batch, 4 * hd), dtype=np.result_type(x2d, dtype))
    np.matmul(x2d[rows], weight_ih.data.T, out=gates2d[rows])
    gates2d[rows] += bias.data
    gates = gates2d.reshape(seq, batch, 4, hd)

    # State rows are indexed by time: step ``t`` reads row ``t + 1 - new``
    # and writes row ``t + new``, so ``out`` is a plain slice of ``h_all``.
    # Without a stash ``c`` ping-pongs between two rows.
    new = 0 if reverse else 1
    first = seq if reverse else 0
    c_rows = seq + 1 if stash else 2
    h_all = np.empty((seq + 1, batch, hd), dtype=dtype)
    c_all = np.empty((c_rows, batch, hd), dtype=dtype)
    tanh_c = np.empty((batch, hd), dtype=dtype)
    h_all[first] = 0.0
    c_all[first % c_rows] = 0.0
    w_hh_t = np.ascontiguousarray(weight_hh.data.T)  # ~1.5x the strided GEMM
    recurrent = np.empty((batch, 4, hd), dtype=gates.dtype)
    recurrent2d = recurrent.reshape(batch, 4 * hd)
    g_act = np.empty((batch, hd), dtype=gates.dtype)
    scratch = np.empty((batch, hd), dtype=dtype)
    order = range(seq - 1, -1, -1) if reverse else range(seq)
    for t in order:
        h_prev, h_new = h_all[t + 1 - new], h_all[t + new]
        c_prev, c_new = c_all[(t + 1 - new) % c_rows], c_all[(t + new) % c_rows]
        if not lo <= t < hi:
            h_new[...] = h_prev
            c_new[...] = c_prev
            continue
        gate = gates[t]
        np.matmul(h_prev, w_hh_t, out=recurrent2d)
        gate += recurrent
        # Gate math on the whole contiguous step block, never on strided
        # (batch, 4, H) gate views: tanh(g) waits in ``g_act`` while one
        # in-place sigmoid covers all four slots, then g is put back.
        bk.tanh(gate[:, 2], out=g_act)
        bk.sigmoid(gate, out=gate)
        gate[:, 2] = g_act
        np.multiply(gate[:, 1], c_prev, out=c_new)
        np.multiply(gate[:, 0], g_act, out=scratch)
        c_new += scratch
        bk.tanh(c_new, out=tanh_c)
        np.multiply(gate[:, 3], tanh_c, out=h_new)
        if ragged[t]:
            np.copyto(h_new, h_prev, where=pad[t])
            np.copyto(c_new, c_prev, where=pad[t])

    def bptt(dout: np.ndarray | None, dc_last: np.ndarray | None,
             sibling: weakref.ref) -> None:
        # BPTT overwrites the activated gates with their derivatives.  The
        # out-node and ``c_last`` share the stash, so while the other one can
        # still run this pass works on a copy of it.
        other = sibling()
        live = gates[window]
        if other is not None and other._backward is not None:
            live = live.copy()
        prev = slice(lo + 1 - new, hi + 1 - new)
        # Everything that is not the recurrence, in bulk; the loop scales
        # each step's rows by dc / dh in place and reads a copy of f.
        # tanh(c) over the window in one pass instead of a per-step stash.
        # A padding row's stored c is the carried-over state, not the c the
        # forward took tanh of, so its value differs there; the loop below
        # never reads a padding row's dh_to_dc or keeps its gate rows.
        n_rows = (hi - lo) * batch
        f_kept = live[:, :, 1].copy()
        dh_to_dc = bk.tanh(c_all[lo + new:hi + new])
        _lstm_gate_factors(live.reshape(n_rows, 4, hd), dh_to_dc.reshape(n_rows, hd),
                           f_kept.reshape(n_rows, hd), c_all[prev].reshape(n_rows, hd))

        dout_t = None if dout is None else dout.transpose(1, 0, 2)
        dh = np.zeros((batch, hd), dtype=live.dtype)
        dh_prev = np.empty_like(dh)
        # Each step's gate rows are scaled by (dc, dc, dc, dh) in one
        # contiguous multiply, not per strided gate view.
        scale = np.empty((batch, 4, hd), dtype=live.dtype)
        dc = np.zeros_like(dh) if dc_last is None else dc_last.astype(dh.dtype)
        w_hh = weight_hh.data
        for t in reversed(order):
            if dout_t is not None:
                dh += dout_t[t]
            if not lo <= t < hi:
                continue
            # Padding rows pass dh / dc through; what the step leaves in
            # their gate rows is dropped after the loop.
            rows_in = real[t] if ragged[t] else True
            np.multiply(dh, dh_to_dc[t - lo], out=scratch)
            np.add(dc, scratch, out=dc, where=rows_in)
            step = live[t - lo]
            np.copyto(scale[:, :3], dc[:, None, :])
            np.copyto(scale[:, 3], dh)
            step *= scale
            np.matmul(step.reshape(batch, 4 * hd), w_hh, out=dh_prev)
            np.multiply(dc, f_kept[t - lo], out=dc, where=rows_in)
            if ragged[t]:
                np.copyto(dh_prev, dh, where=pad[t])
            dh, dh_prev = dh_prev, dh
        del dh_to_dc, f_kept

        # One GEMM per gradient, over every real (step, row) pair at once.
        # The real rows move up inside the stash in ascending blocks: row j
        # comes from row tokens[j] >= j, so a block never reads a row that an
        # earlier block wrote.
        dgates2d = live.reshape(n_rows, 4 * hd)
        tokens = slice(None)
        if ragged.any():
            tokens = np.flatnonzero(real[window])
            moved = tokens != np.arange(tokens.size)
            for a in range(moved.argmax() if moved.any() else tokens.size,
                           tokens.size, _BPTT_BLOCK_ROWS):
                src = tokens[a:a + _BPTT_BLOCK_ROWS]
                dgates2d[a:a + src.size] = dgates2d[src]
            dgates2d = dgates2d[:tokens.size]
        weight_hh._accumulate_owned(dgates2d.T @ h_all[prev].reshape(-1, hd)[tokens])
        weight_ih._accumulate_owned(dgates2d.T @ x2d[rows][tokens])
        bias._accumulate_owned(dgates2d.sum(axis=0))
        if x.requires_grad:
            dx = np.zeros((seq * batch, in_dim), dtype=live.dtype)
            dx[rows][tokens] = dgates2d @ weight_ih.data
            x._accumulate_owned(dx.reshape(seq, batch, in_dim).transpose(1, 0, 2))

    out_rows = h_all[:seq] if reverse else h_all[1:]
    out = Tensor._make(out_rows.transpose(1, 0, 2), parents, "lstm_layer",
                       lambda grad: bptt(grad, None, c_ref))
    c_last = Tensor._make(c_all[(seq - first) % c_rows].copy(), parents,
                          "lstm_layer_c", lambda grad: bptt(None, grad, out_ref))
    out_ref, c_ref = weakref.ref(out), weakref.ref(c_last)
    return out, out[:, 0 if reverse else -1], c_last


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit (method alias)."""
    return x.relu()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent (method alias)."""
    return x.tanh()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid (method alias)."""
    return x.sigmoid()


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero elements with probability ``p`` during training."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    x = _as_tensor(x)
    kept = _dropout_mask(rng or np.random.default_rng(), x.shape, p, x.dtype)

    # The output keeps the input's layout: a time-major LSTM output stays
    # time-major, so the next layer's time-major input is a view of it.
    def backward(grad: np.ndarray) -> None:
        x._accumulate_owned(_dropout_into(grad, kept, p, out=np.empty_like(grad)))

    return Tensor._make(_dropout_into(x.data, kept, p, out=np.empty_like(x.data)),
                        (x,), "dropout", backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight.T + bias`` with torch-style ``(out, in)`` weight layout.

    Fused: any leading batch dims are flattened so both the forward and the
    weight-gradient run as single 2-d GEMMs (numpy's batched 3-d matmul
    loops per sample), and the bias add/reduction happens inside the node.
    """
    x = _as_tensor(x)
    data = x.data
    lead_shape = data.shape[:-1]
    x2d = data.reshape(-1, data.shape[-1])
    out2d = x2d @ weight.data.T
    if bias is not None:
        out2d += bias.data
    out = out2d.reshape(lead_shape + (weight.shape[0],))
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        g2d = grad.reshape(-1, grad.shape[-1])
        x._accumulate_owned((g2d @ weight.data).reshape(data.shape))
        weight._accumulate_owned(g2d.T @ x2d)
        if bias is not None:
            bias._accumulate_owned(g2d.sum(axis=0))

    return Tensor._make(out, parents, "linear", backward)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Look up rows of ``weight`` (vocab, dim) by integer ``indices``."""
    idx = np.asarray(indices, dtype=np.int64)
    return weight[idx]


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a float one-hot encoding (plain numpy; no gradient)."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    out = np.zeros((idx.shape[0], num_classes), dtype=get_default_dtype())
    out[np.arange(idx.shape[0]), idx] = 1.0
    return out
