"""Op-level micro-benchmarks: fused kernels vs the unfused reference graph.

Each case times one forward + backward of a single op at the shapes the
Table II models actually use (BERT-mini: batch 16, seq 40, hidden 50).  The
``impl`` axis makes the fused-vs-reference speedup directly visible in the
pytest-benchmark report; ``scripts/run_bench.sh`` folds these numbers into
``BENCH_pr2.json``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F, reference as R

BATCH, SEQ, DIM, HEADS, FFN_DIM = 16, 40, 50, 2, 200
HIDDEN = 64  # LSTM step width


def _tensor(rng, *shape):
    return Tensor(rng.normal(0.0, 0.5, shape).astype(np.float32),
                  requires_grad=True)


def _run(benchmark, params, forward):
    def step():
        for p in params:
            p.grad = None
        out = forward()
        out.sum().backward()
        return out

    out = benchmark(step)
    assert np.isfinite(out.data).all()


def _impl(impl):
    return F if impl == "fused" else R


@pytest.mark.parametrize("impl", ["fused", "reference"])
def test_softmax_fwd_bwd(benchmark, impl):
    rng = np.random.default_rng(0)
    x = _tensor(rng, BATCH, HEADS, SEQ, SEQ)
    _run(benchmark, [x], lambda: _impl(impl).softmax(x))


@pytest.mark.parametrize("impl", ["fused", "reference"])
def test_cross_entropy_fwd_bwd(benchmark, impl):
    rng = np.random.default_rng(0)
    logits = _tensor(rng, BATCH * SEQ, 200)
    targets = rng.integers(0, 200, size=BATCH * SEQ)
    _run(benchmark, [logits], lambda: _impl(impl).cross_entropy(logits, targets))


@pytest.mark.parametrize("impl", ["fused", "reference"])
def test_gelu_fwd_bwd(benchmark, impl):
    rng = np.random.default_rng(0)
    x = _tensor(rng, BATCH * SEQ, FFN_DIM)
    _run(benchmark, [x], lambda: _impl(impl).gelu(x))


@pytest.mark.parametrize("impl", ["fused", "reference"])
def test_layer_norm_fwd_bwd(benchmark, impl):
    rng = np.random.default_rng(0)
    params = [_tensor(rng, BATCH, SEQ, DIM), _tensor(rng, DIM), _tensor(rng, DIM)]
    _run(benchmark, params, lambda: _impl(impl).layer_norm(*params))


@pytest.mark.parametrize("impl", ["fused", "reference"])
def test_attention_layer_fwd_bwd(benchmark, impl):
    rng = np.random.default_rng(0)
    inner = HEADS * 25
    params = [_tensor(rng, BATCH, SEQ, DIM),
              _tensor(rng, inner, DIM), _tensor(rng, inner),
              _tensor(rng, inner, DIM), _tensor(rng, inner),
              _tensor(rng, inner, DIM), _tensor(rng, inner),
              _tensor(rng, DIM, inner), _tensor(rng, DIM),
              _tensor(rng, DIM), _tensor(rng, DIM)]
    mask = (rng.random((BATCH, SEQ)) > 0.1)[:, None, None, :]
    drop_rng = np.random.default_rng(1)
    _run(benchmark, params,
         lambda: _impl(impl).attention_layer(
             *params[:9], HEADS, params[9], params[10], attention_mask=mask,
             dropout_p=0.1, training=True, rng=drop_rng,
             out_dropout_p=0.1, out_rng=drop_rng))


@pytest.mark.parametrize("impl", ["fused", "reference"])
def test_ffn_layer_fwd_bwd(benchmark, impl):
    rng = np.random.default_rng(0)
    params = [_tensor(rng, BATCH, SEQ, DIM),
              _tensor(rng, FFN_DIM, DIM), _tensor(rng, FFN_DIM),
              _tensor(rng, DIM, FFN_DIM), _tensor(rng, DIM),
              _tensor(rng, DIM), _tensor(rng, DIM)]
    drop_rng = np.random.default_rng(1)
    _run(benchmark, params,
         lambda: _impl(impl).ffn_layer(*params, dropout_p=0.1, training=True,
                                       rng=drop_rng))


@pytest.mark.parametrize("impl", ["fused", "reference"])
def test_lstm_step_fwd_bwd(benchmark, impl):
    rng = np.random.default_rng(0)
    params = [_tensor(rng, BATCH, 4 * HIDDEN), _tensor(rng, BATCH, HIDDEN),
              _tensor(rng, BATCH, HIDDEN), _tensor(rng, 4 * HIDDEN, HIDDEN)]

    def forward():
        h, c = _impl(impl).lstm_step(*params)
        return h + c

    _run(benchmark, params, forward)


@pytest.mark.parametrize("impl", ["fused", "reference"])
def test_lstm_layer_fwd_bwd(benchmark, impl):
    """One layer of the paper's LSTM at the federated batch shape: the
    whole-sequence kernel vs the per-timestep ``lstm_step`` loop."""
    batch, seq, hidden = 32, 40, 128
    rng = np.random.default_rng(0)
    params = [_tensor(rng, batch, seq, hidden), _tensor(rng, 4 * hidden, hidden),
              _tensor(rng, 4 * hidden, hidden), _tensor(rng, 4 * hidden)]
    mask = np.arange(seq)[None, :] < rng.integers(seq // 4, seq + 1, batch)[:, None]
    _run(benchmark, params,
         lambda: _impl(impl).lstm_layer(*params, mask=mask)[0])


@pytest.mark.parametrize("impl", ["fused", "reference"])
def test_embed_layer_norm_fwd_bwd(benchmark, impl):
    rng = np.random.default_rng(0)
    params = [_tensor(rng, 200, DIM), _tensor(rng, 128, DIM),
              _tensor(rng, DIM), _tensor(rng, DIM)]
    ids = rng.integers(1, 200, size=(BATCH, SEQ))
    drop_rng = np.random.default_rng(1)
    _run(benchmark, params,
         lambda: _impl(impl).embed_layer_norm(params[0], params[1], ids,
                                              params[2], params[3],
                                              dropout_p=0.1, training=True,
                                              rng=drop_rng))
