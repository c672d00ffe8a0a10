"""Pluggable array backends for the fused kernels in :mod:`.functional`.

The fused ops dispatch their inner loops — GELU forward/backward, the
softmax family, tanh/sigmoid gate math — through one active
:class:`ArrayBackend`, selected at runtime:

.. code-block:: python

    from repro.autograd import set_backend, use_backend

    set_backend("blas")              # process-wide, returns the old name
    with use_backend("fastmath"):    # scoped
        train_step(...)

or via the environment: ``REPRO_BACKEND=fastmath python train.py``.  Three
backends ship:

``numpy`` (default)
    The PR 2 kernels exactly as written — the bit-for-bit reference every
    other backend is validated against (``tests/autograd/test_fused_ops.py``
    runs the oracle/gradient-check suite over every registered name).

``blas``
    Identical numerics, plus control of the BLAS thread pool behind
    numpy's GEMMs (:mod:`._blas`): activation resizes the pool to
    ``REPRO_BLAS_THREADS`` (or the core count), deactivation restores it.
    This is the threaded-GEMM path on multi-core hosts and, just as
    importantly, how forked client workers *shrink* their pools to avoid
    N-workers-x-M-threads oversubscription (``docs/PERFORMANCE.md``).

``fastmath``
    Tolerance-bounded (<= 1e-6) rather than bit-identical: sigmoid is
    computed as ``0.5 * tanh(x/2) + 0.5`` (one SIMD ``tanh`` pass instead
    of the slower ``exp`` + divide chain — the LSTM gate hot path), and
    large GELU chains run cache-blocked so all eight elementwise passes
    touch a block while it is L2-resident instead of streaming the whole
    array from DRAM eight times.

Backends are tiny objects; registering a new one is
``register_backend(MyBackend())``.  Unknown names always raise
``ValueError`` naming the available choices.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading

import numpy as np

__all__ = [
    "ArrayBackend", "NumpyBackend", "BlasBackend", "FastmathBackend",
    "register_backend", "available_backends", "get_backend", "set_backend",
    "use_backend", "active_backend",
]

_GELU_COEFF = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715

# Cached broadcast vectors for GEMV-based row reductions.  A (rows, n) @ (n,)
# matrix-vector product computes all row sums/means ~6x faster than
# ``.sum(axis=-1)``'s strided reduce on the short rows used here.
_red_vec_cache: dict[tuple[int, str, bool], np.ndarray] = {}


def _red_vec(n: int, dtype: np.dtype, mean: bool) -> np.ndarray:
    key = (n, dtype.str, mean)
    vec = _red_vec_cache.get(key)
    if vec is None:
        vec = np.full((n,), 1.0 / n if mean else 1.0, dtype=dtype)
        _red_vec_cache[key] = vec
    return vec


def _sum_cols(a2d: np.ndarray) -> np.ndarray:
    """Row sums of a 2-d array as a (rows, 1) column, via GEMV."""
    return (a2d @ _red_vec(a2d.shape[-1], a2d.dtype, False))[:, None]


def _mean_cols(a2d: np.ndarray) -> np.ndarray:
    """Row means of a 2-d array as a (rows, 1) column, via GEMV."""
    return (a2d @ _red_vec(a2d.shape[-1], a2d.dtype, True))[:, None]


class ArrayBackend:
    """One set of inner-loop kernels for the fused ops.

    The base class *is* the numpy reference implementation; subclasses
    override individual kernels (everything composes through ``self`` so
    overriding ``exp`` changes every softmax, overriding ``tanh`` changes
    GELU).  Contract: ``out`` may alias the input, inputs not named ``out``
    or ``owned`` must not be mutated, and results must stay within the
    tolerance the backend declares in :meth:`describe` of the ``numpy``
    backend (0.0 means bit-identical).
    """

    name = "abstract"

    # ------------------------------------------------------------------
    # elementwise transcendentals
    # ------------------------------------------------------------------
    def exp(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.exp(x, out=out)

    def tanh(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.tanh(x, out=out)

    def sigmoid(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + self.exp(-x))

    # ------------------------------------------------------------------
    # fused blocks
    # ------------------------------------------------------------------
    def gelu_forward(self, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tanh-approximation GELU: ``(out, tanh_term)``.

        Built from in-place multiplies — ``x*x*x`` beats ``np.power`` by
        ~80x on float32, and reusing the temporaries halves the memory
        traffic of the naive expression.  The fused ops keep only ``data``
        and the tanh term for backward and rebuild the output and ``x²``
        with :meth:`gelu_recompute`.
        """
        inner = data * data
        inner *= _GELU_COEFF * _GELU_CUBIC
        inner += _GELU_COEFF
        inner *= data  # inner = coeff * (x + cubic * x^3)
        t = self.tanh(inner, out=inner)
        out = t + 1.0
        out *= data
        out *= 0.5
        return out, t

    def gelu_recompute(self, data: np.ndarray, t: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """``(out, x_squared)`` from ``data`` and the tanh term, by the same
        float ops as :meth:`gelu_forward` — so bit for bit its values."""
        sq = data * data
        out = t + 1.0
        out *= data
        out *= 0.5
        return out, sq

    def gelu_backward(self, grad: np.ndarray, data: np.ndarray,
                      t: np.ndarray, sq: np.ndarray) -> np.ndarray:
        """d GELU(x)/dx from the saved tanh/square terms, applied to ``grad``."""
        dinner = sq * (3.0 * _GELU_CUBIC * _GELU_COEFF)
        dinner += _GELU_COEFF
        dinner *= data  # dinner = x * d/dx of the tanh argument
        deriv = t * t
        np.subtract(1.0, deriv, out=deriv)  # sech^2 = 1 - tanh^2
        deriv *= dinner
        deriv += t
        deriv += 1.0
        deriv *= 0.5
        deriv *= grad
        return deriv

    def softmax_into(self, owned: np.ndarray, axis: int = -1) -> np.ndarray:
        """Numerically-stable softmax fully in place on a caller-owned buffer."""
        owned -= owned.max(axis=axis, keepdims=True)
        self.exp(owned, out=owned)
        if axis == -1 and owned.flags.c_contiguous:
            flat = owned.reshape(-1, owned.shape[-1])
            flat /= _sum_cols(flat)
        else:
            owned /= owned.sum(axis=axis, keepdims=True)
        return owned

    def stable_softmax(self, data: np.ndarray, axis: int) -> np.ndarray:
        """Numerically-stable softmax into a fresh buffer."""
        shifted = data - data.max(axis=axis, keepdims=True)
        self.exp(shifted, out=shifted)
        shifted /= shifted.sum(axis=axis, keepdims=True)
        return shifted

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def activate(self) -> None:
        """Called when this backend becomes the process-wide active one."""

    def deactivate(self) -> None:
        """Called when another backend replaces this one."""

    def describe(self) -> dict:
        """Diagnostics for benches and ``BENCH_*.json`` provenance."""
        return {"name": self.name, "tolerance": 0.0}


class NumpyBackend(ArrayBackend):
    """The default: PR 2's kernels verbatim, bit-identical by construction."""

    name = "numpy"


class BlasBackend(NumpyBackend):
    """Numpy numerics + explicit BLAS thread-pool sizing.

    The kernel math is inherited unchanged (still bit-identical); what
    changes is how many threads the BLAS behind numpy's GEMMs may use.
    Activation resizes the pool to ``threads`` (constructor argument, else
    ``REPRO_BLAS_THREADS``, else the core count) and deactivation restores
    the previous size.  On machines where the BLAS exposes no thread
    controls this degrades to plain ``numpy``.
    """

    name = "blas"

    def __init__(self, threads: int | None = None) -> None:
        self.threads = threads
        self._previous: int | None = None

    def _target_threads(self) -> int:
        if self.threads is not None:
            return max(1, int(self.threads))
        env = os.environ.get("REPRO_BLAS_THREADS", "")
        if env.strip():
            return max(1, int(env))
        try:
            return len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            return os.cpu_count() or 1

    def activate(self) -> None:
        from ._blas import set_blas_threads

        self._previous = set_blas_threads(self._target_threads())

    def deactivate(self) -> None:
        from ._blas import set_blas_threads

        if self._previous is not None:
            set_blas_threads(self._previous)
            self._previous = None

    def describe(self) -> dict:
        from ._blas import blas_thread_info

        info = super().describe()
        info.update(blas_thread_info())
        info["target_threads"] = self._target_threads()
        return info


class FastmathBackend(ArrayBackend):
    """Tolerance-bounded elementwise kernels (<= 1e-6 vs ``numpy``).

    Two substitutions, both validated against the ``reference.py`` oracles
    by the backend-parametrized fused-op suite:

    - ``sigmoid(x) = 0.5 * tanh(x/2) + 0.5`` — mathematically exact, and a
      single SIMD ``tanh`` pass is ~1.5-2.5x faster than the
      ``exp``-negate-add-divide chain on the LSTM gate shapes.  Differs
      from the exact chain only in rounding (~6e-8 max on float32).
    - GELU forward/backward run cache-blocked on large contiguous inputs:
      the same in-place op sequence, applied per 32k-element block so all
      eight passes hit L2 instead of streaming from DRAM eight times
      (same float ops in the same order => bit-identical values).
    """

    name = "fastmath"

    # 32k elements = 128 KiB of float32 per block buffer: small enough that
    # a block's working set (input + 3 temporaries) stays L2-resident.
    block_elems = 32768
    # Blocking has per-block call overhead; only engage well past L2 sizes.
    _min_blocked = 4 * block_elems

    def sigmoid(self, x: np.ndarray) -> np.ndarray:
        y = x * 0.5
        np.tanh(y, out=y)
        y += 1.0
        y *= 0.5
        return y

    def gelu_forward(self, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if data.size < self._min_blocked or not data.flags.c_contiguous:
            return super().gelu_forward(data)
        flat = data.reshape(-1)
        out = np.empty_like(flat)
        t = np.empty_like(flat)
        for start in range(0, flat.size, self.block_elems):
            stop = start + self.block_elems
            d = flat[start:stop]
            t_b, out_b = t[start:stop], out[start:stop]
            np.multiply(d, d, out=t_b)
            t_b *= _GELU_COEFF * _GELU_CUBIC
            t_b += _GELU_COEFF
            t_b *= d
            self.tanh(t_b, out=t_b)
            np.add(t_b, 1.0, out=out_b)
            out_b *= d
            out_b *= 0.5
        shape = data.shape
        return out.reshape(shape), t.reshape(shape)

    def gelu_backward(self, grad: np.ndarray, data: np.ndarray,
                      t: np.ndarray, sq: np.ndarray) -> np.ndarray:
        if grad.size < self._min_blocked \
                or not (grad.flags.c_contiguous and data.flags.c_contiguous
                        and t.flags.c_contiguous and sq.flags.c_contiguous):
            return super().gelu_backward(grad, data, t, sq)
        g_flat = grad.reshape(-1)
        d_flat = data.reshape(-1)
        t_flat = t.reshape(-1)
        sq_flat = sq.reshape(-1)
        deriv = np.empty_like(g_flat)
        dinner = np.empty_like(g_flat[:self.block_elems])
        for start in range(0, g_flat.size, self.block_elems):
            stop = start + self.block_elems
            d = d_flat[start:stop]
            t_b, sq_b = t_flat[start:stop], sq_flat[start:stop]
            out_b = deriv[start:stop]
            di = dinner[:d.size]
            np.multiply(sq_b, 3.0 * _GELU_CUBIC * _GELU_COEFF, out=di)
            di += _GELU_COEFF
            di *= d
            np.multiply(t_b, t_b, out=out_b)
            np.subtract(1.0, out_b, out=out_b)  # sech^2 = 1 - tanh^2
            out_b *= di
            out_b += t_b
            out_b += 1.0
            out_b *= 0.5
            out_b *= g_flat[start:stop]
        return deriv.reshape(grad.shape)

    def describe(self) -> dict:
        return {"name": self.name, "tolerance": 1e-6,
                "block_elems": self.block_elems}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
_lock = threading.Lock()
_registry: dict[str, ArrayBackend] = {}
_ACTIVE: ArrayBackend


def register_backend(backend: ArrayBackend, *, replace: bool = False) -> ArrayBackend:
    """Add ``backend`` to the registry under ``backend.name``."""
    name = backend.name
    if not name or name == "abstract":
        raise ValueError("backend must define a concrete .name")
    with _lock:
        if name in _registry and not replace:
            raise ValueError(f"backend {name!r} is already registered "
                             "(pass replace=True to override)")
        _registry[name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    with _lock:
        return tuple(sorted(_registry))


def _lookup(name: str) -> ArrayBackend:
    backend = _registry.get(name)
    if backend is None:
        raise ValueError(
            f"unknown array backend {name!r}; available: "
            f"{', '.join(available_backends())}")
    return backend


def active_backend() -> ArrayBackend:
    """The backend object the fused ops currently dispatch through."""
    return _ACTIVE


def get_backend() -> str:
    """The active backend's name."""
    return _ACTIVE.name


def set_backend(name: str) -> str:
    """Make ``name`` the process-wide backend; returns the previous name.

    Raises ``ValueError`` (naming the available choices) for unknown names.
    Thread-safe but process-wide: the swap affects every subsequent fused-op
    call in the process.
    """
    global _ACTIVE
    backend = _lookup(name)
    with _lock:
        previous = _ACTIVE
        if backend is previous:
            return previous.name
        previous.deactivate()
        backend.activate()
        _ACTIVE = backend
    return previous.name


@contextlib.contextmanager
def use_backend(name: str):
    """Scoped :func:`set_backend`: restores the previous backend on exit."""
    previous = set_backend(name)
    try:
        yield _ACTIVE
    finally:
        set_backend(previous)


register_backend(NumpyBackend())
register_backend(BlasBackend())
register_backend(FastmathBackend())
_ACTIVE = _registry["numpy"]


def _init_from_env() -> None:
    """Honor ``REPRO_BACKEND`` at import; unknown names fail loudly."""
    name = os.environ.get("REPRO_BACKEND", "").strip()
    if name:
        set_backend(name)


_init_from_env()
