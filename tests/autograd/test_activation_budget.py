"""What a training step keeps alive: activation budgets and the bit-exact
rebuilds that let fused nodes stash less.

The budgets are bytes per token per layer, written from the shapes of what
each fused node's backward reads (float32 = 4 bytes, a bool dropout mask =
1 byte), on a fixed 32 x 34 batch.  tracemalloc counts every numpy temporary
in every thread, so a budget is there to tell this stash rule apart from
stashing every product (float masks, GELU ``x**2`` and output, attention's
``probs * keep``, the LSTM's ``tanh(c)``), not to pin a figure: the LSTM
budgets sit about halfway between the two; bert-mini's, held under a 31 MB
step peak, about 2 MB above this rule's figures and 13 MB below the other's.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Adam, Tensor, functional as F
from repro.autograd.backend import available_backends, use_backend
from repro.autograd.functional import _dropout_into, _dropout_keep, _dropout_mask
from repro.models import build_classifier

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
        # dropout masks in bool.  ffn_layer: pre-activation and tanh term
        # (2 ffn), xhat and output (2d) in float; the output mask in bool.
        attention = F32 * (6 * d + heads * SEQ) + (heads * SEQ + d)
        feed_forward = F32 * (2 * ffn + 2 * d) + d
        per_layer = TOKENS * (attention + feed_forward)
        embed = TOKENS * (F32 * 2 * d + d)
        stash_budget = 1.1 * (layers * per_layer + embed)
        # backward adds at most about one layer's worth of temporaries
        peak_budget = stash_budget + per_layer

        ids, mask, labels = _batch()
        model = build_classifier("bert-mini", vocab_size=120, seed=0, max_seq_len=40)
        stash, peak = _traced_step(model, ids, mask, labels)
        assert stash <= stash_budget, f"{stash / 1e6:.1f} MB > {stash_budget / 1e6:.1f} MB"
        assert peak <= peak_budget, f"{peak / 1e6:.1f} MB > {peak_budget / 1e6:.1f} MB"
        assert peak_budget <= 31e6

    def test_lstm(self):
        hidden, in_dim, layers = 128, 128, 3
        # lstm_layer: gates (4H), every h and c (2H) and the time-major input
        # copy; between layers the dropout output (float) and mask (bool).
        per_layer = TOKENS * F32 * (6 * hidden + in_dim)
        between = TOKENS * (F32 * hidden + hidden)
        stash_budget = 1.1 * (layers * per_layer + (layers - 1) * between
                              + TOKENS * F32 * in_dim)
        # BPTT's temporaries: dgates and its real-token gather (8H), dx and
        # the rebuilt o * (1 - tanh^2 c) (H + in)
        peak_budget = stash_budget + 1.2 * TOKENS * F32 * (9 * hidden + in_dim)

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


@pytest.mark.parametrize("name", available_backends())
@pytest.mark.parametrize("size", [(37, 11), (600, 256)])  # the second is blocked
def test_gelu_recompute_equals_forward(name, size):
    rng = np.random.default_rng(3)
    with use_backend(name) as backend:
        for dtype in (np.float32, np.float64):
            x = rng.normal(0.0, 3.0, size=size).astype(dtype)
            x.reshape(-1)[:4] = [0.0, -0.0, 30.0, -30.0]
            for data in (x, x[:, ::2]):
                out, t = backend.gelu_forward(data)
                out2, sq2 = backend.gelu_recompute(data, t)
                np.testing.assert_array_equal(_bits(out2), _bits(out))
                np.testing.assert_array_equal(_bits(sq2), _bits(data * data))


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
