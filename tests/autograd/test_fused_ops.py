"""Fused kernels vs the unfused reference compositions.

Every fused op in :mod:`repro.autograd.functional` is checked three ways:

1. **Numerical gradient check** against central finite differences
   (:func:`repro.autograd.check_gradients`).
2. **Parity with the reference composition** in
   :mod:`repro.autograd.reference`: identical outputs *and* identical
   gradients for every input, in float64, including masked/padded and
   dropout paths (the dropout masks are reproduced by sharing a seeded
   generator through the common ``_dropout_keep`` helper).
3. **End-to-end**: a fixed-seed training run with the fused stack matches
   one with the whole functional layer swapped onto the reference
   implementations, loss-for-loss.

The whole module is parametrized over every registered array backend
(``available_backends()``), so each fused op is validated against the same
unfused reference under ``numpy``, ``blas`` and ``fastmath`` dispatch.  The
parity tolerance widens to whatever the active backend declares in
``describe()`` — 0.0 (bit-identical) for numpy/blas, 1e-6 for fastmath's
tanh-based sigmoid.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import (
    SGD,
    Tensor,
    available_backends,
    check_gradients,
    functional as F,
    get_default_dtype,
    no_grad,
    reference as R,
    set_default_dtype,
    use_backend,
)
from repro.autograd.backend import active_backend

ATOL = 1e-10


@pytest.fixture(params=available_backends(), autouse=True)
def backend(request):
    """Run every test in this module under each registered backend."""
    with use_backend(request.param):
        yield request.param


@pytest.fixture()
def rng():
    return np.random.default_rng(11)


def t(rng, *shape, scale=0.7):
    return Tensor(rng.normal(0.0, scale, shape), requires_grad=True)


def clones(params):
    return [Tensor(p.data.copy(), requires_grad=True) for p in params]


def assert_parity(rng, fused_out, ref_out, fused_params, ref_params, atol=None):
    """Same forward values and, after a shared upstream grad, same gradients.

    The tolerance floor is whatever the active backend declares: numpy and
    blas promise bit-identical kernels (so the tight default holds), while
    fastmath is bounded at 1e-6.
    """
    if atol is None:
        atol = ATOL
    atol = max(atol, float(active_backend().describe().get("tolerance", 0.0)))
    np.testing.assert_allclose(fused_out.data, ref_out.data, atol=atol)
    upstream = rng.normal(size=fused_out.shape)
    fused_out.backward(upstream.copy())
    ref_out.backward(upstream.copy())
    for i, (p, q) in enumerate(zip(fused_params, ref_params)):
        assert q.grad is not None, f"reference param {i} got no gradient"
        np.testing.assert_allclose(p.grad, q.grad, atol=atol,
                                   err_msg=f"grad mismatch on param {i}")


class TestSoftmaxFamily:
    def test_softmax_matches_reference(self, rng):
        x = t(rng, 5, 9)
        xr = clones([x])[0]
        assert_parity(rng, F.softmax(x), R.softmax(xr), [x], [xr])

    def test_log_softmax_matches_reference(self, rng):
        x = t(rng, 4, 6)
        xr = clones([x])[0]
        assert_parity(rng, F.log_softmax(x), R.log_softmax(xr), [x], [xr])

    def test_softmax_gradcheck(self, rng):
        x = t(rng, 3, 5)
        w = Tensor(rng.normal(size=(3, 5)))
        check_gradients(lambda: (F.softmax(x) * w).sum(), [x])

    def test_log_softmax_gradcheck(self, rng):
        x = t(rng, 3, 5)
        w = Tensor(rng.normal(size=(3, 5)))
        check_gradients(lambda: (F.log_softmax(x) * w).sum(), [x])


class TestLossParity:
    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    @pytest.mark.parametrize("use_ignore", [False, True])
    @pytest.mark.parametrize("use_weights", [False, True])
    def test_cross_entropy(self, rng, reduction, use_ignore, use_weights):
        logits = t(rng, 8, 5)
        lr = clones([logits])[0]
        targets = rng.integers(0, 5, size=8)
        if use_ignore:
            targets[[1, 4]] = -100
        weights = np.abs(rng.normal(1.0, 0.3, 5)) if use_weights else None
        fused = F.cross_entropy(logits, targets, ignore_index=-100 if use_ignore else None,
                                reduction=reduction, class_weights=weights)
        ref = R.cross_entropy(lr, targets, ignore_index=-100 if use_ignore else None,
                              reduction=reduction, class_weights=weights)
        assert_parity(rng, fused, ref, [logits], [lr])

    def test_cross_entropy_3d_gradcheck(self, rng):
        logits = t(rng, 2, 3, 4)
        targets = rng.integers(0, 4, size=(2, 3)).reshape(-1)
        check_gradients(lambda: F.cross_entropy(logits, targets), [logits])

    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    def test_bce_with_logits(self, rng, reduction):
        logits = t(rng, 7)
        lr = clones([logits])[0]
        targets = rng.integers(0, 2, size=7).astype(float)
        assert_parity(rng, F.binary_cross_entropy_with_logits(logits, targets, reduction=reduction),
                      R.binary_cross_entropy_with_logits(lr, targets, reduction=reduction),
                      [logits], [lr], atol=1e-9)

    def test_bce_gradcheck(self, rng):
        logits = t(rng, 6)
        targets = rng.integers(0, 2, size=6).astype(float)
        check_gradients(lambda: F.binary_cross_entropy_with_logits(logits, targets), [logits])


class TestGelu:
    def test_matches_reference(self, rng):
        x = t(rng, 4, 7, scale=2.0)
        xr = clones([x])[0]
        assert_parity(rng, F.gelu(x), R.gelu(xr), [x], [xr])

    def test_gradcheck(self, rng):
        x = t(rng, 3, 4)
        check_gradients(lambda: F.gelu(x).sum(), [x])


class TestNormFamily:
    def test_layer_norm_matches_reference(self, rng):
        params = [t(rng, 3, 5, 8), t(rng, 8, scale=0.2), t(rng, 8, scale=0.2)]
        refs = clones(params)
        assert_parity(rng, F.layer_norm(*params), R.layer_norm(*refs), params, refs)

    def test_layer_norm_gradcheck(self, rng):
        x, w, b = t(rng, 4, 6), t(rng, 6), t(rng, 6)
        check_gradients(lambda: F.layer_norm(x, w, b).sum(), [x, w, b])

    def test_add_layer_norm_matches_reference(self, rng):
        params = [t(rng, 2, 5, 8), t(rng, 2, 5, 8), t(rng, 8), t(rng, 8)]
        refs = clones(params)
        assert_parity(rng, F.add_layer_norm(*params), R.add_layer_norm(*refs), params, refs)

    def test_add_layer_norm_gradcheck(self, rng):
        x, s, w, b = t(rng, 3, 6), t(rng, 3, 6), t(rng, 6), t(rng, 6)
        check_gradients(lambda: F.add_layer_norm(x, s, w, b).sum(), [x, s, w, b])


class TestEmbedLayerNorm:
    def _params(self, rng):
        return [t(rng, 20, 8), t(rng, 10, 8), t(rng, 8), t(rng, 8)]

    @pytest.mark.parametrize("dropout_p", [0.0, 0.35])
    def test_matches_reference(self, rng, dropout_p):
        params = self._params(rng)
        refs = clones(params)
        ids = rng.integers(0, 20, size=(3, 6))
        fused = F.embed_layer_norm(params[0], params[1], ids, params[2], params[3],
                                   dropout_p=dropout_p, training=True,
                                   rng=np.random.default_rng(9))
        ref = R.embed_layer_norm(refs[0], refs[1], ids, refs[2], refs[3],
                                 dropout_p=dropout_p, training=True,
                                 rng=np.random.default_rng(9))
        assert_parity(rng, fused, ref, params, refs)

    def test_gradcheck(self, rng):
        tok, pos, w, b = self._params(rng)
        ids = rng.integers(0, 20, size=(2, 5))
        check_gradients(lambda: F.embed_layer_norm(tok, pos, ids, w, b).sum(),
                        [tok, pos, w, b])

    def test_rejects_bad_inputs(self, rng):
        tok, pos, w, b = self._params(rng)
        with pytest.raises(IndexError):
            F.embed_layer_norm(tok, pos, np.array([[99]]), w, b)
        with pytest.raises(ValueError):
            F.embed_layer_norm(tok, pos, np.zeros((1, 11), dtype=int), w, b)
        with pytest.raises(ValueError):
            F.embed_layer_norm(tok, pos, np.zeros((1, 2), dtype=int), w, b, dropout_p=1.0)


class TestTanhHead:
    @pytest.mark.parametrize("dropout_p", [0.0, 0.25])
    def test_matches_reference(self, rng, dropout_p):
        params = [t(rng, 6, 8), t(rng, 8, 8), t(rng, 8), t(rng, 3, 8), t(rng, 3)]
        refs = clones(params)
        fused = F.tanh_head(*params, dropout_p=dropout_p, training=True,
                            rng=np.random.default_rng(4))
        ref = R.tanh_head(*refs, dropout_p=dropout_p, training=True,
                          rng=np.random.default_rng(4))
        assert_parity(rng, fused, ref, params, refs)

    def test_gradcheck(self, rng):
        params = [t(rng, 4, 6), t(rng, 6, 6), t(rng, 6), t(rng, 2, 6), t(rng, 2)]
        check_gradients(lambda: F.tanh_head(*params).sum(), params)


def _padding_mask(rng, batch, seq):
    mask = rng.random((batch, seq)) > 0.3
    mask[:, 0] = True  # every sequence keeps at least one valid position
    return mask


class TestScaledDotProductAttention:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.3])
    def test_matches_reference(self, rng, masked, dropout_p):
        params = [t(rng, 2, 3, 5, 4), t(rng, 2, 3, 5, 4), t(rng, 2, 3, 5, 4)]
        refs = clones(params)
        mask = _padding_mask(rng, 2, 5)[:, None, None, :] if masked else None
        fused = F.scaled_dot_product_attention(
            *params, attention_mask=mask, dropout_p=dropout_p, training=True,
            rng=np.random.default_rng(2))
        ref = R.scaled_dot_product_attention(
            *refs, attention_mask=mask, dropout_p=dropout_p, training=True,
            rng=np.random.default_rng(2))
        assert_parity(rng, fused, ref, params, refs)

    def test_masked_gradcheck(self, rng):
        q, k, v = t(rng, 1, 2, 4, 3), t(rng, 1, 2, 4, 3), t(rng, 1, 2, 4, 3)
        mask = _padding_mask(rng, 1, 4)[:, None, None, :]
        check_gradients(
            lambda: F.scaled_dot_product_attention(q, k, v, attention_mask=mask).sum(),
            [q, k, v])


class TestAttentionBlocks:
    def _params(self, rng, dim=8, inner=6):
        return [t(rng, 2, 5, dim),                      # x
                t(rng, inner, dim), t(rng, inner),      # q
                t(rng, inner, dim), t(rng, inner),      # k
                t(rng, inner, dim), t(rng, inner),      # v
                t(rng, dim, inner), t(rng, dim)]        # out

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.3])
    def test_multi_head_attention_matches_reference(self, rng, masked, dropout_p):
        params = self._params(rng)
        refs = clones(params)
        mask = _padding_mask(rng, 2, 5)[:, None, None, :] if masked else None
        fused = F.multi_head_attention(
            *params, 2, attention_mask=mask, dropout_p=dropout_p, training=True,
            rng=np.random.default_rng(3), out_dropout_p=dropout_p,
            out_rng=np.random.default_rng(8))
        ref = R.multi_head_attention(
            *refs, 2, attention_mask=mask, dropout_p=dropout_p, training=True,
            rng=np.random.default_rng(3), out_dropout_p=dropout_p,
            out_rng=np.random.default_rng(8))
        assert_parity(rng, fused, ref, params, refs)

    def test_multi_head_attention_gradcheck(self, rng):
        params = self._params(rng, dim=6, inner=4)
        check_gradients(lambda: F.multi_head_attention(*params, 2).sum(), params)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.3])
    def test_attention_layer_matches_reference(self, rng, masked, dropout_p):
        params = self._params(rng, dim=8, inner=8) + [t(rng, 8), t(rng, 8)]
        refs = clones(params)
        mask = _padding_mask(rng, 2, 5)[:, None, None, :] if masked else None
        fused = F.attention_layer(
            *params[:9], 2, params[9], params[10], attention_mask=mask,
            dropout_p=dropout_p, training=True, rng=np.random.default_rng(3),
            out_dropout_p=dropout_p, out_rng=np.random.default_rng(8))
        ref = R.attention_layer(
            *refs[:9], 2, refs[9], refs[10], attention_mask=mask,
            dropout_p=dropout_p, training=True, rng=np.random.default_rng(3),
            out_dropout_p=dropout_p, out_rng=np.random.default_rng(8))
        assert_parity(rng, fused, ref, params, refs)

    def test_attention_layer_gradcheck(self, rng):
        params = self._params(rng, dim=6, inner=6) + [t(rng, 6), t(rng, 6)]
        check_gradients(
            lambda: F.attention_layer(*params[:9], 2, params[9], params[10]).sum(),
            params)


class TestFeedForwardBlocks:
    def _params(self, rng):
        return [t(rng, 2, 4, 6), t(rng, 10, 6), t(rng, 10), t(rng, 6, 10), t(rng, 6)]

    @pytest.mark.parametrize("dropout_p", [0.0, 0.25])
    def test_ffn_matches_reference(self, rng, dropout_p):
        params = self._params(rng)
        refs = clones(params)
        fused = F.ffn(*params, dropout_p=dropout_p, training=True,
                      rng=np.random.default_rng(6))
        ref = R.ffn(*refs, dropout_p=dropout_p, training=True,
                    rng=np.random.default_rng(6))
        assert_parity(rng, fused, ref, params, refs)

    def test_ffn_gradcheck(self, rng):
        params = self._params(rng)
        check_gradients(lambda: F.ffn(*params).sum(), params)

    @pytest.mark.parametrize("dropout_p", [0.0, 0.25])
    def test_ffn_layer_matches_reference(self, rng, dropout_p):
        params = self._params(rng) + [t(rng, 6), t(rng, 6)]
        refs = clones(params)
        fused = F.ffn_layer(*params, dropout_p=dropout_p, training=True,
                            rng=np.random.default_rng(6))
        ref = R.ffn_layer(*refs, dropout_p=dropout_p, training=True,
                          rng=np.random.default_rng(6))
        assert_parity(rng, fused, ref, params, refs)

    def test_ffn_layer_gradcheck(self, rng):
        params = self._params(rng) + [t(rng, 6), t(rng, 6)]
        check_gradients(lambda: F.ffn_layer(*params).sum(), params)


class TestLstmStep:
    @pytest.mark.parametrize("masked", [False, True])
    def test_matches_reference(self, rng, masked):
        hd = 5
        params = [t(rng, 3, 4 * hd), t(rng, 3, hd), t(rng, 3, hd), t(rng, 4 * hd, hd)]
        refs = clones(params)
        mask = np.array([True, False, True]) if masked else None
        hf, cf = F.lstm_step(*params, step_mask=mask)
        hr, cr = R.lstm_step(*refs, step_mask=mask)
        np.testing.assert_allclose(cf.data, cr.data, atol=ATOL)
        out_f = (hf * hf + cf).sum()
        out_r = (hr * hr + cr).sum()
        assert_parity(rng, out_f, out_r, params, refs)

    def test_gradcheck(self, rng):
        hd = 4
        params = [t(rng, 2, 4 * hd), t(rng, 2, hd), t(rng, 2, hd), t(rng, 4 * hd, hd)]

        def loss():
            h, c = F.lstm_step(*params)
            return (h * h + c).sum()

        check_gradients(loss, params)


def _lstm_masks(batch, seq):
    """Named padding patterns for a ``(batch, seq)`` LSTM input."""
    rng = np.random.default_rng(5)
    right = np.arange(seq)[None, :] < rng.integers(1, max(seq - 1, 2), batch)[:, None]
    empty_row = rng.random((batch, seq)) > 0.4
    empty_row[0] = False  # an all-padding sequence never leaves the zero state
    return {"none": None,
            "right": right,                       # trailing steps padded for every row
            "left": right[:, ::-1].copy(),
            "scattered": rng.random((batch, seq)) > 0.4,
            "empty_row": empty_row,
            "all_padding": np.zeros((batch, seq), dtype=bool)}


class TestLstmLayer:
    """The whole-sequence kernel against a time loop of ``R.lstm_step``."""

    @staticmethod
    def _params(rng, batch=3, seq=6, in_dim=4, hd=5):
        return [t(rng, batch, seq, in_dim), t(rng, 4 * hd, in_dim),
                t(rng, 4 * hd, hd), t(rng, 4 * hd)]

    @staticmethod
    def _joined(out, h_last, c_last):
        """Output sequence and both final states as one tensor, so a single
        upstream gradient reaches all three."""
        return Tensor.concatenate(
            [out, Tensor.stack([h_last, c_last * c_last], axis=1)], axis=1)

    def _assert_parity(self, rng, params, mask, reverse):
        refs = clones(params)
        fused = F.lstm_layer(*params, mask=mask, reverse=reverse)
        ref = R.lstm_layer(*refs, mask=mask, reverse=reverse)
        assert_parity(rng, self._joined(*fused), self._joined(*ref), params, refs)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("mask_kind", ["none", "right", "left", "scattered",
                                           "empty_row", "all_padding"])
    def test_matches_reference(self, rng, mask_kind, reverse):
        self._assert_parity(rng, self._params(rng), _lstm_masks(3, 6)[mask_kind],
                            reverse)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_single_step_sequence(self, rng, reverse):
        self._assert_parity(rng, self._params(rng, seq=1),
                            np.array([[True], [False], [True]]), reverse)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mask=hnp.arrays(np.bool_, st.tuples(st.integers(1, 4), st.integers(1, 7))),
           reverse=st.booleans())
    def test_random_masks(self, mask, reverse):
        rng = np.random.default_rng(17)
        batch, seq = mask.shape
        self._assert_parity(rng, self._params(rng, batch=batch, seq=seq), mask, reverse)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("mask_kind", ["none", "scattered"])
    def test_gradcheck(self, rng, mask_kind, reverse):
        params = self._params(rng, batch=2, seq=4, in_dim=3, hd=3)
        mask = _lstm_masks(2, 4)[mask_kind]

        def loss():
            joined = self._joined(*F.lstm_layer(*params, mask=mask, reverse=reverse))
            return (joined * joined).sum()

        assert loss().dtype == np.float64
        check_gradients(loss, params, atol=1e-7, rtol=1e-5)

    def test_state_buffers_follow_weight_dtype(self, rng):
        params = [Tensor(p.data.astype(np.float32), requires_grad=True)
                  for p in self._params(rng)]
        out, h_last, c_last = F.lstm_layer(*params)
        assert out.dtype == h_last.dtype == c_last.dtype == np.float32
        out.sum().backward()
        assert all(p.grad.dtype == np.float32 for p in params)

    def test_final_states_cost_no_second_bptt_unless_consumed(self, rng):
        from repro.obs.profiler import OpProfiler

        params = self._params(rng)
        with OpProfiler() as profiler:
            out, h_last, c_last = F.lstm_layer(*params)
            (out.sum() + h_last.sum()).backward()
            out, h_last, c_last = F.lstm_layer(*params)
            (out.sum() + c_last.sum()).backward()
        ops = profiler.to_dict()["ops"]
        assert ops["lstm_layer"]["fwd_calls"] == 2
        assert ops["lstm_layer"]["bwd_calls"] == 2
        assert ops["lstm_layer_c"]["nodes"] == 2
        assert ops["lstm_layer_c"]["bwd_calls"] == 1

    def test_no_grad_forward_retains_no_stash(self, rng):
        batch, seq, hd = 8, 32, 16
        params = self._params(rng, batch=batch, seq=seq, in_dim=hd, hd=hd)
        mask = _lstm_masks(batch, seq)["right"]
        expected = F.lstm_layer(*params, mask=mask)[0].data
        with no_grad():
            F.lstm_layer(*params, mask=mask)  # warm caches outside the trace
            tracemalloc.start()
            before = tracemalloc.get_traced_memory()[0]
            out, h_last, c_last = F.lstm_layer(*params, mask=mask)
            retained = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.stop()
        np.testing.assert_array_equal(out.data, expected)
        for node in (out, h_last, c_last):
            assert node._backward is None and node._parents == ()
        # the output sequence (plus its zero initial row) and the final cell
        # state outlive the call; the (seq, batch, 4H) gate buffer, the
        # per-step tanh(c) and the cell-state history must not
        state_row = batch * hd * out.data.itemsize
        assert retained < (seq + 3) * state_row + 4096
        assert retained < seq * 4 * state_row

    def test_bidirectional_stack_with_dropout_matches_reference(self, rng, monkeypatch):
        from repro.nn import LSTM

        mask = _lstm_masks(3, 6)["scattered"]
        x = t(rng, 3, 6, 4)

        def run(inputs):
            lstm = LSTM(4, 5, num_layers=2, dropout=0.3, bidirectional=True,
                        rng=np.random.default_rng(2))
            for p in lstm.parameters():
                p.data = p.data.astype(np.float64)
            out, states = lstm(inputs, mask=mask)
            joined = Tensor.concatenate(
                [out] + [Tensor.stack([h, c], axis=1) for h, c in states], axis=1)
            return joined, [inputs] + lstm.parameters()

        fused, fused_params = run(x)
        monkeypatch.setattr(F, "lstm_layer", R.lstm_layer)
        ref, ref_params = run(clones([x])[0])
        assert_parity(rng, fused, ref, fused_params, ref_params)



@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_layer_in_place_bptt_spans_blocks(rng, reverse):
    """More (step, row) pairs than one BPTT block, on the in-place path
    (``c_last`` dropped): the block-wise gate factors and the compaction of
    the real tokens against the reference."""
    batch, seq = 37, 15
    params = TestLstmLayer._params(rng, batch=batch, seq=seq)
    mask = _lstm_masks(batch, seq)["scattered"]
    assert mask.sum() > 256
    refs = clones(params)
    fused = F.lstm_layer(*params, mask=mask, reverse=reverse)[0]
    ref = R.lstm_layer(*refs, mask=mask, reverse=reverse)[0]
    assert_parity(rng, fused, ref, params, refs)

class TestSmallOps:
    def test_linear_gradcheck(self, rng):
        x, w, b = t(rng, 3, 4, 5), t(rng, 6, 5), t(rng, 6)
        check_gradients(lambda: F.linear(x, w, b).sum(), [x, w, b])

    def test_item_rejects_non_scalar(self, rng):
        with pytest.raises(ValueError, match="1-element"):
            Tensor(rng.normal(size=(2, 3))).item()
        assert isinstance(Tensor(np.array(1.5)).item(), float)


class TestDefaultDtype:
    def test_default_is_float32(self):
        assert get_default_dtype() == np.float32
        assert Tensor([1.0, 2.0]).data.dtype == np.float32

    def test_set_and_restore(self):
        set_default_dtype(np.float64)
        try:
            assert Tensor([1.0]).data.dtype == np.float64
        finally:
            set_default_dtype(np.float32)
        assert Tensor([1.0]).data.dtype == np.float32

    def test_no_silent_promotion_through_ops(self, rng):
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        y = F.gelu(F.layer_norm(x, Tensor(np.ones(4, dtype=np.float32)),
                                Tensor(np.zeros(4, dtype=np.float32))))
        assert y.data.dtype == np.float32
        y.sum().backward()
        assert x.grad.dtype == np.float32


def _swap_functional_to_reference(monkeypatch):
    """Point every fused op that has a reference twin at the reference."""
    for name in R.__all__:
        if hasattr(F, name):
            monkeypatch.setattr(F, name, getattr(R, name))


class TestEndToEndParity:
    """Fixed-seed training runs: fused stack vs full reference stack."""

    def _train_losses(self, model_name, steps=3):
        from repro.models import build_classifier

        model = build_classifier(model_name, vocab_size=30, seed=0,
                                 hidden_dim=12, num_layers=2,
                                 **({"num_heads": 2, "ffn_dim": 16, "max_seq_len": 10}
                                    if model_name.startswith("bert") else {}))
        model.train()
        opt = SGD(model.parameters(), lr=0.05)
        data_rng = np.random.default_rng(1)
        ids = data_rng.integers(1, 30, size=(4, 8))
        labels = data_rng.integers(0, 2, size=4)
        mask = _padding_mask(data_rng, 4, 8)
        losses = []
        for _ in range(steps):
            model.zero_grad()
            loss = F.cross_entropy(model(ids, attention_mask=mask), labels)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        return losses

    @pytest.mark.parametrize("model_name", ["bert-mini", "lstm"])
    def test_losses_match_reference_stack(self, monkeypatch, model_name):
        fused_losses = self._train_losses(model_name)
        _swap_functional_to_reference(monkeypatch)
        ref_losses = self._train_losses(model_name)
        np.testing.assert_allclose(fused_losses, ref_losses, atol=1e-4)
        assert fused_losses[-1] != fused_losses[0]  # training actually moved
