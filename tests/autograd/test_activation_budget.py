"""What a training step keeps alive: activation budgets and the bit-exact
rebuilds that let fused nodes stash less.

The budgets are bytes per token per layer, written from the shapes of what
each fused node's backward reads (float32 = 4 bytes, a bool dropout mask =
1 byte), on a fixed 32 x 34 batch.  tracemalloc counts every numpy temporary
in every thread, so a budget is there to tell this stash rule apart from
stashing every product (float masks, GELU's tanh term, ``x**2`` and output,
attention's ``probs * keep``, the LSTM's ``tanh(c)``), not to pin a figure:
the LSTM budgets sit about halfway between the two; bert-mini's, held under a
24.1 MB step peak, about 1.6 MB above this rule's stash and 0.5 MB above its
step peak, and 3.6 MB below what keeping GELU's tanh term alone (one
ffn-wide float per token per layer) would need.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Adam, Tensor, backend as backend_module, functional as F
from repro.autograd.backend import (_GELU_COEFF, _GELU_CUBIC, available_backends,
                                    use_backend)
from repro.autograd.functional import _dropout_into, _dropout_keep, _dropout_mask
from repro.models import build_classifier, build_mlm_model

BATCH, SEQ = 32, 34
TOKENS = BATCH * SEQ
F32 = 4


def _batch(vocab: int = 120):
    rng = np.random.default_rng(7)
    lengths = rng.integers(SEQ // 2, SEQ + 1, size=BATCH)
    lengths[0] = SEQ
    mask = np.arange(SEQ)[None, :] < lengths[:, None]
    ids = np.where(mask, rng.integers(1, vocab, size=(BATCH, SEQ)), 0)
    return ids, mask, rng.integers(0, 2, size=BATCH)


def _traced_step(model, ids, mask, labels) -> tuple[int, int]:
    """(bytes alive after forward, peak bytes over forward + backward + Adam)
    above what was alive before the step."""
    optimizer = Adam(model.parameters(), lr=1e-3)
    model.train()
    model.zero_grad()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = F.cross_entropy(model(ids, attention_mask=mask), labels)
        stash = tracemalloc.get_traced_memory()[0] - base
        loss.backward()
        optimizer.step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return stash, peak


class TestBudgets:
    def test_bert_mini(self):
        d, heads, layers = 50, 2, 6
        ffn = 4 * d
        # attention_layer: qkv projections (3d), probs (heads x seq), context,
        # post-norm xhat and output (3d) in float; the probs and output
        # dropout masks in bool.  ffn_layer: the pre-activation (ffn), xhat
        # and output (2d) in float; the output mask in bool.
        attention = F32 * (6 * d + heads * SEQ) + (heads * SEQ + d)
        feed_forward = F32 * (ffn + 2 * d) + d
        per_layer = TOKENS * (attention + feed_forward)
        embed = TOKENS * (F32 * 2 * d + d)
        stash_budget = 1.1 * (layers * per_layer + embed)
        # backward adds about one layer's worth of temporaries; the tanh term
        # one ffn_layer at a time rebuilds instead of keeping fits in it,
        # because GELU's backward builds its inner derivative in the rebuilt
        # x**2 instead of a buffer of its own
        peak_budget = stash_budget + per_layer

        ids, mask, labels = _batch()
        model = build_classifier("bert-mini", vocab_size=120, seed=0, max_seq_len=40)
        stash, peak = _traced_step(model, ids, mask, labels)
        assert stash <= stash_budget, f"{stash / 1e6:.1f} MB > {stash_budget / 1e6:.1f} MB"
        assert peak <= peak_budget, f"{peak / 1e6:.1f} MB > {peak_budget / 1e6:.1f} MB"
        assert peak_budget <= 24.1e6

    def test_lstm(self):
        hidden, in_dim, layers = 128, 128, 3
        # lstm_layer: gates (4H) and every h and c (2H); the first layer also
        # keeps a time-major copy of the embedding, while the layers above
        # read the time-major dropout output as it is.  Between layers the
        # dropout output (float) and mask (bool).
        per_layer = TOKENS * F32 * 6 * hidden
        between = TOKENS * (F32 * hidden + hidden)
        stash_budget = 1.1 * (layers * per_layer + (layers - 1) * between
                              + 2 * TOKENS * F32 * in_dim)
        # BPTT writes the gate derivatives into the gates it consumes; its
        # temporaries are the forget-gate copy and tanh(c) (2H) during the
        # loop, then the real-token gathers of h and x and dx (H + 2 in)
        peak_budget = stash_budget + 1.2 * TOKENS * F32 * (3 * hidden + 2 * in_dim)

        ids, mask, labels = _batch()
        model = build_classifier("lstm", vocab_size=120, seed=0)
        stash, peak = _traced_step(model, ids, mask, labels)
        assert stash <= stash_budget, f"{stash / 1e6:.1f} MB > {stash_budget / 1e6:.1f} MB"
        assert peak <= peak_budget, f"{peak / 1e6:.1f} MB > {peak_budget / 1e6:.1f} MB"


def _bits(array: np.ndarray) -> np.ndarray:
    return array.view(np.uint32 if array.dtype == np.float32 else np.uint64)


special_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -1.5, 1e-38]))


@settings(max_examples=60, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]),
       p=st.sampled_from([0.1, 0.5, 0.9]),
       seed=st.integers(0, 2 ** 16),
       data=st.data())
def test_bool_mask_dropout_equals_float_mask_bit_for_bit(dtype, p, seed, data):
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=6))
    x = data.draw(hnp.arrays(dtype, shape, elements=special_floats))
    grad = data.draw(hnp.arrays(dtype, shape, elements=special_floats))
    keep = _dropout_keep(np.random.default_rng(seed), shape, p, dtype)
    kept = _dropout_mask(np.random.default_rng(seed), shape, p, dtype)
    assert kept.dtype == bool
    with np.errstate(invalid="ignore"):  # inf * 0
        np.testing.assert_array_equal(_bits(_dropout_into(x, kept, p)), _bits(x * keep))

        tensor = Tensor(x.copy(), requires_grad=True)
        out = F.dropout(tensor, p, training=True, rng=np.random.default_rng(seed))
        np.testing.assert_array_equal(_bits(out.data), _bits(x * keep))
        out.backward(grad)
        np.testing.assert_array_equal(_bits(tensor.grad), _bits(grad * keep))


def _closed_over(fn, name: str):
    cells = dict(zip(fn.__code__.co_freevars, fn.__closure__))
    return cells[name].cell_contents


def _lstm_stash(out: Tensor, name: str):
    """A buffer the backward of ``lstm_layer``'s out-node reads."""
    return _closed_over(_closed_over(out._backward, "bptt"), name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_bptt_in_place_equals_copy_bit_for_bit(dtype, reverse):
    """With ``c_last`` dropped BPTT overwrites the stashed gates; with it held
    (it could still run) BPTT works on a copy.  Both give the same bits."""
    rng = np.random.default_rng(11)
    batch, seq, in_dim, hd = 5, 9, 6, 7
    mask = rng.random((batch, seq)) > 0.35
    mask[0] = True
    mask[:, 0] = mask[:, -1] = False  # steps outside the real window
    arrays = [rng.normal(size=shape).astype(dtype) for shape in
              ((batch, seq, in_dim), (4 * hd, in_dim), (4 * hd, hd), (4 * hd,))]
    upstream = rng.normal(size=(batch, seq, hd)).astype(dtype)

    def step(hold_c: bool):
        params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out, h_last, c_last = F.lstm_layer(*params, mask=mask, reverse=reverse)
        gates = _lstm_stash(out, "gates")
        before = gates.copy()
        held = c_last if hold_c else None
        del h_last, c_last
        out.backward(upstream)
        assert held is None or held._backward is not None
        consumed = not np.array_equal(_bits(gates), _bits(before))
        return [p.grad for p in params], consumed

    in_place, consumed = step(hold_c=False)
    copied, untouched = step(hold_c=True)
    assert consumed and not untouched
    for a, b in zip(in_place, copied):
        assert a.dtype == dtype
        np.testing.assert_array_equal(_bits(a), _bits(b))


def test_dropout_keeps_its_input_layout():
    """A time-major (batch, seq, hidden) view comes out time-major, so the
    next LSTM layer reads it without a copy; C order stays C order."""
    p, shape = 0.3, (34, 6, 16)
    base = np.random.default_rng(4).normal(size=shape).astype(np.float32)
    x = Tensor(base.transpose(1, 0, 2), requires_grad=True)
    out = F.dropout(x, p, training=True, rng=np.random.default_rng(9))
    assert out.data.strides == x.data.strides
    keep = _dropout_keep(np.random.default_rng(9), x.shape, p, np.float32)
    np.testing.assert_array_equal(_bits(out.data), _bits(x.data * keep))

    rng = np.random.default_rng(5)
    hd, in_dim = 8, shape[-1]
    weights = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
               for s in ((4 * hd, in_dim), (4 * hd, hd), (4 * hd,))]
    layer_out = F.lstm_layer(out, *weights)[0]
    assert np.shares_memory(_lstm_stash(layer_out, "x2d"), out.data)

    flat = F.dropout(Tensor(base, requires_grad=True), p, training=True,
                     rng=np.random.default_rng(9))
    assert flat.data.flags.c_contiguous


def _tanh_term(data: np.ndarray) -> np.ndarray:
    """``tanh(coeff * (x + cubic * x**3))`` by gelu_forward's float ops."""
    t = data * data
    t *= _GELU_COEFF * _GELU_CUBIC
    t += _GELU_COEFF
    t *= data
    return np.tanh(t, out=t)


@pytest.mark.parametrize("name", available_backends())
@pytest.mark.parametrize("size", [(37, 11), (600, 256)])  # the second is blocked
def test_gelu_recompute_equals_forward(name, size):
    rng = np.random.default_rng(3)
    with use_backend(name) as backend:
        for dtype in (np.float32, np.float64):
            x = rng.normal(0.0, 3.0, size=size).astype(dtype)
            x.reshape(-1)[:4] = [0.0, -0.0, 30.0, -30.0]
            for data in (x, x[:, ::2]):
                out2, t2, sq2 = backend.gelu_recompute(data)
                np.testing.assert_array_equal(_bits(out2), _bits(backend.gelu_forward(data)))
                np.testing.assert_array_equal(_bits(t2), _bits(_tanh_term(data)))
                np.testing.assert_array_equal(_bits(sq2), _bits(data * data))


def _fresh_dinner_backward(grad, data, t, sq):
    """GELU's backward as it was when it built the inner derivative in a
    buffer of its own; returns ``(deriv, dinner)``."""
    dinner = sq * (3.0 * _GELU_CUBIC * _GELU_COEFF)
    dinner += _GELU_COEFF
    dinner *= data
    deriv = t * t
    np.subtract(1.0, deriv, out=deriv)
    deriv *= dinner
    deriv += t
    deriv += 1.0
    deriv *= 0.5
    deriv *= grad
    return deriv, dinner


@pytest.mark.parametrize("name", available_backends())
@pytest.mark.parametrize("size", [(37, 11), (600, 256)])  # the second is blocked
def test_gelu_backward_builds_its_inner_derivative_in_owned_sq(name, size):
    rng = np.random.default_rng(4)
    with use_backend(name) as backend:
        for dtype in (np.float32, np.float64):
            x = rng.normal(0.0, 3.0, size=size).astype(dtype)
            grad = rng.normal(size=size).astype(dtype)
            _, t, sq = backend.gelu_recompute(x)
            deriv, dinner = _fresh_dinner_backward(grad, x, t, sq)
            owned = sq.copy()
            np.testing.assert_array_equal(_bits(backend.gelu_backward(grad, x, t, owned)),
                                          _bits(deriv))
            np.testing.assert_array_equal(_bits(owned), _bits(dinner))


def test_backward_frees_each_node_as_it_passes():
    """A mid-graph output is released right after its own backward runs,
    while the nodes before it are still to be processed."""
    x = Tensor(np.ones((4, 4)), requires_grad=True)
    observed = {}

    def probe(parent: Tensor, name: str) -> Tensor:
        def backward(grad: np.ndarray) -> None:
            gc.collect()
            observed[name] = later() is None
            parent._accumulate(grad)
        return Tensor._make(parent.data * 1.0, (parent,), name, backward)

    first = probe(x, "first")
    middle = first * 2.0
    later = weakref.ref(middle)
    loss = (middle * 3.0).sum()
    del middle
    loss.backward()
    assert observed == {"first": True}
    np.testing.assert_allclose(x.grad, 6.0)


def _two_step_digest(kind: str) -> str:
    """sha256 over every gradient of two Adam steps (dropout on) of a
    bert-tiny model, then over its weights."""
    ids, mask, labels = _batch()
    if kind == "classifier":
        model = build_classifier("bert-tiny", vocab_size=120, seed=0, max_seq_len=40)
        targets = labels
    else:  # the MLM head runs F.gelu outside the fused FFN
        model = build_mlm_model("bert-tiny", vocab_size=120, seed=0, max_seq_len=40)
        targets = np.where(mask, ids, -100)
    optimizer = Adam(model.parameters(), lr=1e-3)
    model.train()
    digest = hashlib.sha256()
    for _ in range(2):
        model.zero_grad()
        loss = F.cross_entropy(model(ids, attention_mask=mask), targets,
                               ignore_index=-100)
        loss.backward()
        for name, param in model.named_parameters():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(param.grad).tobytes())
        optimizer.step()
    for _, param in model.named_parameters():
        digest.update(np.ascontiguousarray(param.data).tobytes())
    return digest.hexdigest()[:16]


class _KeepsTanhTerm:
    """``backend`` under the previous stash rule: GELU's forward keeps its
    tanh term for backward, and backward rebuilds only ``x**2`` and the
    output from it."""

    def __init__(self, backend):
        self._backend = backend
        self._kept: dict[int, np.ndarray] = {}  # id(pre-activation) -> tanh term

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def gelu_forward(self, data):
        self._kept[id(data)] = _tanh_term(data)
        return self._backend.gelu_forward(data)

    def gelu_recompute(self, data):
        t = self._kept.pop(id(data))  # data is alive until its backward
        out = t + 1.0
        out *= data
        out *= 0.5
        return out, t, data * data


@pytest.mark.parametrize("name", available_backends())
@pytest.mark.parametrize("kind", ["classifier", "mlm"])
def test_bert_tiny_two_step_gradients_match_kept_tanh_term(name, kind):
    """Rebuilding GELU's tanh term in backward changes no bit of two steps:
    the same steps under the rule that kept the term give the same digest."""
    with use_backend(name) as backend:
        rebuilt = _two_step_digest(kind)
        stand_in = _KeepsTanhTerm(backend)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backend_module, "_ACTIVE", stand_in)
            kept = _two_step_digest(kind)
    assert not stand_in._kept
    assert rebuilt == kept
