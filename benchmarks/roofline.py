#!/usr/bin/env python3
"""Roofline rows for the fused kernels the training workloads run.

    PYTHONPATH=src python benchmarks/roofline.py

For ``lstm_layer`` (the ``lstm`` preset of ``lstm_sync_shm``) and for
``attention_layer`` and ``ffn_layer`` (the ``bert-mini`` preset of
``bertmini_async_memory``), at the workloads' 32 x 34 batch with rows half
to fully padded, it prints:

- every GEMM one forward + backward call runs, with its closed-form FLOPs
  and this machine's sgemm rate measured at that shape and layout
  (one-thread BLAS, as in a pool worker);
- per kernel: closed-form GFLOP, ``attainable`` (the time its GEMMs take at
  those rates, nothing else), ``achieved`` (the measured forward + backward
  time), their ratio, and the non-GEMM share of the achieved time.

A kernel at a ratio of 0.7 or more is GEMM-bound: speeding up its
elementwise work cannot buy much more.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from repro.autograd import Tensor, functional as F  # noqa: E402
from repro.autograd._blas import set_blas_threads  # noqa: E402

BATCH, SEQ = 32, 34
LSTM_HIDDEN = 128            # the lstm preset: 3 layers, input width = hidden
BERT_DIM, BERT_HEADS = 50, 2  # the bert-mini preset: ffn 4 x dim, dropout 0.1
DROPOUT = 0.1
ROUNDS = 10  # interleaved timing rounds per kernel


def padding_mask(seed: int = 7) -> np.ndarray:
    """Every row half to fully real; the first row is full length."""
    lengths = np.random.default_rng(seed).integers(SEQ // 2, SEQ + 1, size=BATCH)
    lengths[0] = SEQ
    return np.arange(SEQ)[None, :] < lengths[:, None]


def medians(fns, rounds: int, burst: int = 4) -> list[float]:
    """Median time of one call of each of ``fns``, over ``rounds`` interleaved
    rounds so a drift in machine speed moves them alike.  A round runs each
    ``fn`` ``burst`` times back to back and keeps the fastest (warm) call."""
    samples = [[] for _ in fns]
    for _ in range(rounds):
        for fn, sample in zip(fns, samples):
            fastest = float("inf")
            for _ in range(burst):
                start = time.perf_counter()
                fn()
                fastest = min(fastest, time.perf_counter() - start)
            sample.append(fastest)
    return [median(sample) for sample in samples]


def gemm(count: int, m: int, n: int, k: int, trans_a: bool):
    """One ``(count x) m x k @ k x n`` float32 product, the first operand
    transposed in memory when the kernel reads it that way."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((count, k, m) if trans_a else (count, m, k), dtype=np.float32)
    a = a.transpose(0, 2, 1) if trans_a else a
    b = rng.standard_normal((count, k, n), dtype=np.float32)
    if count == 1:
        a, b = a[0], b[0]
    out = np.empty((count, m, n) if count > 1 else (m, n), dtype=np.float32)
    return lambda: np.matmul(a, b, out=out)


def lstm_case(rng):
    """(gemms, call): one ``lstm_layer`` of the ``lstm`` preset."""
    hd = in_dim = LSTM_HIDDEN
    mask = padding_mask()
    steps = int(np.flatnonzero(mask.any(axis=0))[-1]) + 1  # the real window
    window, real = steps * BATCH, int(mask.sum())
    gemms = [  # (name, count, repeats, m, n, k, first operand transposed)
        ("input projection", 1, 1, window, 4 * hd, in_dim, False),
        ("recurrent, forward", 1, steps, BATCH, 4 * hd, hd, False),
        ("recurrent, backward", 1, steps, BATCH, hd, 4 * hd, False),
        ("d weight_hh", 1, 1, 4 * hd, hd, real, True),
        ("d weight_ih", 1, 1, 4 * hd, in_dim, real, True),
        ("d x", 1, 1, real, in_dim, 4 * hd, False),
    ]
    x = rng.standard_normal((SEQ, BATCH, in_dim), dtype=np.float32).transpose(1, 0, 2)
    params = [rng.standard_normal(shape, dtype=np.float32) * 0.1
              for shape in ((4 * hd, in_dim), (4 * hd, hd), (4 * hd,))]
    upstream = rng.standard_normal((BATCH, SEQ, hd), dtype=np.float32)

    def call():
        tensors = [Tensor(a, requires_grad=True) for a in (x, *params)]
        out = F.lstm_layer(*tensors, mask=mask)[0]
        out.backward(upstream)
    return gemms, call


def attention_case(rng):
    """(gemms, call): one ``attention_layer`` of the ``bert-mini`` preset."""
    d, heads = BERT_DIM, BERT_HEADS
    dh, tokens, pairs = d // heads, BATCH * SEQ, BATCH * heads
    gemms = [
        ("q/k/v projection", 1, 1, tokens, 3 * d, d, False),
        ("scores", pairs, 1, SEQ, SEQ, dh, False),
        ("context", pairs, 1, SEQ, dh, SEQ, False),
        ("out projection", 1, 1, tokens, d, d, False),
        ("d out weight", 1, 1, d, d, tokens, True),
        ("d context", 1, 1, tokens, d, d, False),
        ("d probs", pairs, 1, SEQ, SEQ, dh, False),
        ("d q", pairs, 1, SEQ, dh, SEQ, False),
        ("d k, d v", pairs, 2, SEQ, dh, SEQ, True),
        ("d q/k/v weights", 1, 1, 3 * d, d, tokens, True),
        ("d x", 1, 1, tokens, d, 3 * d, False),
    ]
    mask = padding_mask()[:, None, None, :]  # the key-padding mask, as the model passes it
    x = rng.standard_normal((BATCH, SEQ, d), dtype=np.float32)
    params = [rng.standard_normal(shape, dtype=np.float32) * 0.1
              for shape in ((d, d), (d,)) * 4 + ((d,), (d,))]
    upstream = rng.standard_normal((BATCH, SEQ, d), dtype=np.float32)

    def call():
        t = [Tensor(a, requires_grad=True) for a in (x, *params)]
        out = F.attention_layer(*t[:9], heads, t[9], t[10], attention_mask=mask,
                                dropout_p=DROPOUT, training=True,
                                rng=np.random.default_rng(1), out_dropout_p=DROPOUT,
                                out_rng=np.random.default_rng(2))
        out.backward(upstream)
    return gemms, call


def ffn_case(rng):
    """(gemms, call): one ``ffn_layer`` of the ``bert-mini`` preset."""
    d, f, tokens = BERT_DIM, 4 * BERT_DIM, BATCH * SEQ
    gemms = [
        ("in projection", 1, 1, tokens, f, d, False),
        ("out projection", 1, 1, tokens, d, f, False),
        ("d out weight", 1, 1, d, f, tokens, True),
        ("d hidden", 1, 1, tokens, f, d, False),
        ("d in weight", 1, 1, f, d, tokens, True),
        ("d x", 1, 1, tokens, d, f, False),
    ]
    x = rng.standard_normal((BATCH, SEQ, d), dtype=np.float32)
    params = [rng.standard_normal(shape, dtype=np.float32) * 0.1
              for shape in ((f, d), (f,), (d, f), (d,), (d,), (d,))]
    upstream = rng.standard_normal((BATCH, SEQ, d), dtype=np.float32)

    def call():
        t = [Tensor(a, requires_grad=True) for a in (x, *params)]
        out = F.ffn_layer(*t, dropout_p=DROPOUT, training=True,
                          rng=np.random.default_rng(1))
        out.backward(upstream)
    return gemms, call


CASES = (("lstm_layer", "lstm_sync_shm", lstm_case),
         ("attention_layer", "bertmini_async_memory", attention_case),
         ("ffn_layer", "bertmini_async_memory", ffn_case))


def main() -> int:
    set_blas_threads(1)
    rng = np.random.default_rng(0)
    rows = []
    print(f"{'kernel':16} {'gemm':22} {'shape (count x m x n x k)':>26} {'MFLOP':>8} {'GFLOP/s':>8}")
    for kernel, workload, case in CASES:
        gemms, call = case(rng)
        products = [gemm(count, m, n, k, trans_a)
                    for _, count, _, m, n, k, trans_a in gemms]
        achieved, *took = medians([call, *products], ROUNDS)
        flops = attainable = 0.0
        for (name, count, repeats, m, n, k, _), seconds in zip(gemms, took):
            gemm_flops = 2.0 * count * m * n * k
            flops += repeats * gemm_flops
            attainable += repeats * seconds
            shape = (f"{repeats} x " if repeats > 1 else "") + f"{count} x {m} x {n} x {k}"
            print(f"{kernel:16} {name:22} {shape:>26} {repeats * gemm_flops / 1e6:8.1f} "
                  f"{gemm_flops / seconds / 1e9:8.1f}")
        rows.append((kernel, workload, flops, attainable, achieved))
    print(f"\n{'kernel':16} {'workload':22} {'GFLOP':>7} {'attainable ms':>14} "
          f"{'achieved ms':>12} {'ratio':>6} {'non-GEMM':>9}")
    for kernel, workload, flops, attainable, achieved in rows:
        ratio = attainable / achieved
        print(f"{kernel:16} {workload:22} {flops / 1e9:7.3f} {attainable * 1e3:14.2f} "
              f"{achieved * 1e3:12.2f} {ratio:6.2f} {1.0 - ratio:9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
