"""Contiguous-slab gate math and flat row scatters, bit for bit against
in-process stand-ins of the strided-view and row-wise code they replace.

``lstm_layer`` runs its per-gate elementwise work on whole step blocks or
gate-major slabs instead of ``(rows, 4, H)`` gate views, and the embedding
backwards scatter rows through flat scalar indices instead of numpy's
row-wise ``add.at``.  Each change keeps every float op and its order, so the
stand-ins below (the previous code) must give the same bits.
"""

from __future__ import annotations

import importlib
import math
import weakref

import numpy as np
import pytest

from repro.autograd import Tensor, backend as backend_module, functional as F
from repro.autograd.backend import available_backends, use_backend
from repro.autograd.clip import grad_global_norm
from repro.autograd.functional import _BPTT_BLOCK_ROWS
from repro.autograd.tensor import is_grad_enabled, scatter_add_rows

# the package's ``tensor`` is the factory function, not this module
tensor_module = importlib.import_module("repro.autograd.tensor")


def _bits(array: np.ndarray) -> np.ndarray:
    array = np.ascontiguousarray(array)
    return array.view(np.uint32 if array.dtype == np.float32 else np.uint64)


def _strided_gate_factors(gates, tanh_c, f_copy, c_prev):
    """The gate-factor pass on ``(rows, 4, H)`` gate views."""
    partial = np.empty((min(len(f_copy), _BPTT_BLOCK_ROWS), f_copy.shape[1]),
                       dtype=f_copy.dtype)
    for a in range(0, len(f_copy), _BPTT_BLOCK_ROWS):
        block = slice(a, a + _BPTT_BLOCK_ROWS)
        i, f, g, o = (gates[block, k] for k in range(4))
        tc, fk = tanh_c[block], f_copy[block]
        part = partial[:len(fk)]
        np.subtract(1.0, i, out=part)
        part *= i
        part *= g
        np.multiply(g, g, out=g)
        np.subtract(1.0, g, out=g)
        g *= i
        i[...] = part
        np.subtract(1.0, o, out=part)
        part *= o
        part *= tc
        np.multiply(tc, tc, out=tc)
        np.subtract(1.0, tc, out=tc)
        tc *= o
        o[...] = part
        np.subtract(1.0, fk, out=f)
        f *= fk
        f *= c_prev[block]


def _strided_lstm_layer(x, weight_ih, weight_hh, bias, mask=None, reverse=False):
    """``F.lstm_layer`` as it was before the slabs: gates activated and
    scaled through ``(batch, 4, H)`` gate views."""
    batch, seq, in_dim = x.shape
    hd = weight_hh.shape[1]
    bk = backend_module._ACTIVE
    dtype = weight_hh.data.dtype
    parents = (x, weight_ih, weight_hh, bias)
    stash = is_grad_enabled() and any(p.requires_grad for p in parents)
    lo, hi, ragged = 0, seq, np.zeros(seq, dtype=bool)
    if mask is not None:
        real = np.asarray(mask, dtype=bool).T[:, :, None]
        pad = ~real
        ragged = pad.any(axis=(1, 2))
        occupied = np.flatnonzero(real.any(axis=(1, 2)))
        lo, hi = (occupied[0], occupied[-1] + 1) if occupied.size else (0, 0)
    window, rows = slice(lo, hi), slice(lo * batch, hi * batch)
    x2d = np.ascontiguousarray(x.data.transpose(1, 0, 2)).reshape(seq * batch, in_dim)
    gates2d = np.empty((seq * batch, 4 * hd), dtype=np.result_type(x2d, dtype))
    np.matmul(x2d[rows], weight_ih.data.T, out=gates2d[rows])
    gates2d[rows] += bias.data
    gates = gates2d.reshape(seq, batch, 4, hd)
    new, first = (0, seq) if reverse else (1, 0)
    c_rows = seq + 1 if stash else 2
    h_all = np.empty((seq + 1, batch, hd), dtype=dtype)
    c_all = np.empty((c_rows, batch, hd), dtype=dtype)
    tanh_c = np.empty((batch, hd), dtype=dtype)
    h_all[first] = 0.0
    c_all[first % c_rows] = 0.0
    w_hh_t = np.ascontiguousarray(weight_hh.data.T)
    recurrent = np.empty((batch, 4, hd), dtype=gates.dtype)
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
        np.matmul(h_prev, w_hh_t, out=recurrent.reshape(batch, 4 * hd))
        gate += recurrent
        gate[:, :2] = bk.sigmoid(gate[:, :2])
        bk.tanh(gate[:, 2], out=gate[:, 2])
        gate[:, 3] = bk.sigmoid(gate[:, 3])
        np.multiply(gate[:, 1], c_prev, out=c_new)
        np.multiply(gate[:, 0], gate[:, 2], out=scratch)
        c_new += scratch
        bk.tanh(c_new, out=tanh_c)
        np.multiply(gate[:, 3], tanh_c, out=h_new)
        if ragged[t]:
            np.copyto(h_new, h_prev, where=pad[t])
            np.copyto(c_new, c_prev, where=pad[t])

    def bptt(dout, dc_last, sibling):
        other = sibling()
        live = gates[window]
        if other is not None and other._backward is not None:
            live = live.copy()
        prev = slice(lo + 1 - new, hi + 1 - new)
        n_rows = (hi - lo) * batch
        f_kept = live[:, :, 1].copy()
        dh_to_dc = bk.tanh(c_all[lo + new:hi + new])
        _strided_gate_factors(live.reshape(n_rows, 4, hd), dh_to_dc.reshape(n_rows, hd),
                              f_kept.reshape(n_rows, hd), c_all[prev].reshape(n_rows, hd))
        dout_t = None if dout is None else dout.transpose(1, 0, 2)
        dh = np.zeros((batch, hd), dtype=live.dtype)
        dh_prev = np.empty_like(dh)
        dc = np.zeros_like(dh) if dc_last is None else dc_last.astype(dh.dtype)
        for t in reversed(order):
            if dout_t is not None:
                dh += dout_t[t]
            if not lo <= t < hi:
                continue
            rows_in = real[t] if ragged[t] else True
            np.multiply(dh, dh_to_dc[t - lo], out=scratch)
            np.add(dc, scratch, out=dc, where=rows_in)
            step = live[t - lo]
            step[:, :3] *= dc[:, None, :]
            step[:, 3] *= dh
            np.matmul(step.reshape(batch, 4 * hd), weight_hh.data, out=dh_prev)
            np.multiply(dc, f_kept[t - lo], out=dc, where=rows_in)
            if ragged[t]:
                np.copyto(dh_prev, dh, where=pad[t])
            dh, dh_prev = dh_prev, dh
        dgates2d = live.reshape(n_rows, 4 * hd)
        tokens = slice(None)
        if ragged.any():
            tokens = np.flatnonzero(real[window])
            dgates2d = dgates2d[tokens]
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


def _lstm_run(layer, arrays, mask, reverse, upstream, with_c):
    """Forward values and parameter gradients of one layer; ``with_c`` also
    backpropagates through ``c_last``, so the first BPTT pass runs while its
    sibling can still run (the copy path)."""
    params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out, h_last, c_last = layer(*params, mask=mask, reverse=reverse)
    values = [out.data.copy(), h_last.data.copy(), c_last.data.copy()]
    loss = (out * Tensor(upstream)).sum()
    if with_c:
        loss = loss + (c_last * c_last).sum()
    del out, h_last, c_last
    loss.backward()
    return values + [p.grad for p in params]


def _lstm_case(dtype, mask_kind):
    rng = np.random.default_rng(23)
    # 11 x 30 = 330 window rows: one full 256-row block and a ragged tail
    batch, seq, in_dim, hd = 11, 30, 6, 8
    mask = None
    if mask_kind == "ragged":
        lengths = rng.integers(seq // 3, seq - 1, size=batch)
        mask = np.arange(seq)[None, :] < lengths[:, None]
        mask = np.roll(mask, 1, axis=1)  # step 0 and the last step pad every row
        assert not mask[:, 0].any() and not mask[:, -1].any()
    arrays = [rng.normal(size=shape).astype(dtype) for shape in
              ((batch, seq, in_dim), (4 * hd, in_dim), (4 * hd, hd), (4 * hd,))]
    upstream = rng.normal(size=(batch, seq, hd)).astype(dtype)
    return arrays, mask, upstream


@pytest.mark.parametrize("name", available_backends())
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("mask_kind", ["none", "ragged"])
@pytest.mark.parametrize("with_c", [False, True])
def test_lstm_layer_equals_strided_views_bit_for_bit(name, dtype, reverse, mask_kind,
                                                     with_c):
    arrays, mask, upstream = _lstm_case(dtype, mask_kind)
    assert arrays[0].shape[0] * (arrays[0].shape[1] - 2) > _BPTT_BLOCK_ROWS
    with use_backend(name):
        slabs = _lstm_run(F.lstm_layer, arrays, mask, reverse, upstream, with_c)
        views = _lstm_run(_strided_lstm_layer, arrays, mask, reverse, upstream, with_c)
    for a, b in zip(slabs, views):
        assert a.dtype == dtype
        np.testing.assert_array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("name", available_backends())
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_into_its_input_equals_fresh_buffer(name, dtype):
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 6.0, size=(9, 4, 13)).astype(dtype)
    x.reshape(-1)[:4] = [0.0, -0.0, 80.0, -80.0]
    with use_backend(name) as backend, np.errstate(over="ignore"):
        fresh = backend.sigmoid(x[:, 1:3])  # a strided view, as before
        block = x.copy()
        assert backend.sigmoid(block, out=block) is block
        np.testing.assert_array_equal(_bits(block[:, 1:3]), _bits(fresh))
        if name != "fastmath":
            np.testing.assert_array_equal(_bits(fresh), _bits(1.0 / (1.0 + np.exp(-x[:, 1:3]))))


def _add_at(table, index, rows):
    np.add.at(table, index, rows)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("index_shape", [(700,), (7, 90), (3, 5, 40)])
@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_scatter_add_rows_equals_add_at(dtype, index_shape, layout):
    """Repeated (and negative) indices accumulate in the same order across
    chunk boundaries, whatever the grad's layout."""
    rng = np.random.default_rng(31)
    vocab, width = 9, 5
    index = rng.integers(-vocab, vocab, size=index_shape)
    rows = rng.normal(0.0, 10.0 ** rng.integers(-3, 4, size=index_shape + (1,)),
                      size=index_shape + (width,)).astype(dtype)
    if layout == "strided":
        rows = np.moveaxis(np.ascontiguousarray(np.moveaxis(rows, -1, 0)), 0, -1)
        assert not rows.flags.c_contiguous
    flat, reference = np.zeros((vocab, width), dtype), np.zeros((vocab, width), dtype)
    scatter_add_rows(flat, index, rows)
    np.add.at(reference, index, rows)
    np.testing.assert_array_equal(_bits(flat), _bits(reference))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embedding_backwards_equal_add_at(dtype):
    """``Tensor.__getitem__`` and ``embed_layer_norm`` against the row-wise
    ``np.add.at`` they used before."""
    rng = np.random.default_rng(37)
    vocab, dim, batch, seq = 11, 6, 9, 40
    ids = rng.integers(0, vocab, size=(batch, seq))
    arrays = [rng.normal(size=shape).astype(dtype) for shape in
              ((vocab, dim), (seq, dim), (dim,), (dim,))]
    upstream = rng.normal(size=(batch, seq, dim)).astype(dtype)

    def grads():
        table = Tensor(arrays[0].copy(), requires_grad=True)
        (table[ids] * Tensor(upstream)).sum().backward()
        params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        (F.embed_layer_norm(params[0], params[1], ids, params[2], params[3])
         * Tensor(upstream)).sum().backward()
        return table.grad, params[0].grad

    flat = grads()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensor_module, "scatter_add_rows", _add_at)
        patch.setattr(F, "scatter_add_rows", _add_at)
        row_wise = grads()
    for a, b in zip(flat, row_wise):
        assert a.dtype == dtype
        np.testing.assert_array_equal(_bits(a), _bits(b))


def test_grad_global_norm_equals_squared_float64_copy():
    rng = np.random.default_rng(41)
    params = [Tensor(np.zeros(shape, np.float32), requires_grad=True)
              for shape in ((33, 17), (5,), (4, 3, 2))]
    for param in params:
        param.grad = rng.normal(0.0, 1e3, size=param.shape).astype(np.float32)
    params[1].grad = params[1].grad[::-1]  # non-contiguous
    total = sum(float(np.sum(p.grad.astype(np.float64) ** 2)) for p in params)
    assert grad_global_norm(params) == math.sqrt(total)
