"""Reverse-mode automatic differentiation on numpy arrays.

This module is the substrate that stands in for PyTorch in the reproduction:
a :class:`Tensor` wraps a ``numpy.ndarray`` and records the operations applied
to it, so that :meth:`Tensor.backward` can propagate gradients through the
recorded graph.  Every differentiable operation used by the NLP models in
:mod:`repro.nn` bottoms out here.

The implementation favours clarity over raw speed; all heavy lifting is done
by vectorised numpy calls, so small-model training (the scale used by the
paper's experiments) is practical on a CPU.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "tensor", "zeros", "ones",
           "get_default_dtype", "set_default_dtype", "default_dtype"]

# Grad recording is a *per-thread* mode: the federated simulator trains on
# client threads while the server evaluates under no_grad() on the main
# thread, and the two must not interfere.
_GRAD_STATE = threading.local()

# Default floating dtype for tensors created from python scalars, lists,
# integer/boolean arrays and unadorned float64 scalars.  float32 halves the
# memory bandwidth of every constant and mask in the training loop; arrays
# that arrive with an explicit float dtype (e.g. float64 for gradient
# checking) are left untouched.
_DEFAULT_DTYPE = np.dtype(np.float32)

# Op-profiler hook installed by ``repro.obs.profiler.OpProfiler`` (never set
# directly).  Checked on every graph-node creation, so the disabled cost is
# one global load + is-None test; when set, the hook counts the node/bytes
# and returns a timing wrapper around the backward closure.
_PROFILE_HOOK = None


def get_default_dtype() -> np.dtype:
    """Return the floating dtype used for dtype-less tensor construction."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> np.dtype:
    """Set the default floating dtype (float32/float64); returns the old one."""
    global _DEFAULT_DTYPE
    new = np.dtype(dtype)
    if new.kind != "f":
        raise ValueError(f"default dtype must be floating, got {new}")
    old = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = new
    return old


@contextlib.contextmanager
def default_dtype(dtype):
    """Context manager that temporarily switches the default floating dtype."""
    previous = set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


def _grad_enabled() -> bool:
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording inside its block."""
    previous = _grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _grad_enabled()


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    When a forward op broadcast an operand from ``shape`` up to ``grad.shape``,
    the gradient w.r.t. that operand is the sum of ``grad`` over the broadcast
    axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: Any, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected raw data, got a Tensor")
    if dtype is not None:
        return np.asarray(value, dtype=dtype)
    if isinstance(value, (np.ndarray, np.generic)):
        # arrays and numpy scalars (e.g. float64 sums of float64 arrays)
        # keep their explicit float dtype; only ints/bools promote
        arr = np.asarray(value)
        if arr.dtype.kind in "iub":
            return arr.astype(_DEFAULT_DTYPE)
        return arr
    arr = np.asarray(value)
    if arr.dtype.kind in "iub" or arr.dtype == np.float64:
        # python scalars/lists land on the default dtype instead of float64
        arr = arr.astype(_DEFAULT_DTYPE)
    return arr


# Positions one flat-index chunk of ``scatter_add_rows`` covers: the int64
# indices of 256 positions of a 128-wide table are 256 KB.
_SCATTER_POSITIONS = 256


def scatter_add_rows(table: np.ndarray, index: np.ndarray, rows: np.ndarray) -> None:
    """``np.add.at(table, index, rows)`` for a 2-d ``table`` and an integer
    ``index``, bit for bit.

    numpy's row-wise ``add.at`` walks every (position, column) pair through
    its slow indexed path; scalar indices ``index * width + column`` into the
    flattened table do the same adds in the same order about three times
    faster.  The flat indices are built a chunk of positions at a time.
    """
    if table.ndim != 2 or not table.flags.c_contiguous:
        np.add.at(table, index, rows)
        return
    width = table.shape[1]
    flat = table.reshape(-1)
    positions = index.reshape(-1).astype(np.intp, copy=False)
    rows = rows.reshape(-1, width)
    columns = np.arange(width)
    for a in range(0, positions.size, _SCATTER_POSITIONS):
        chunk = positions[a:a + _SCATTER_POSITIONS, None] * width + columns
        np.add.at(flat, chunk.reshape(-1), rows[a:a + _SCATTER_POSITIONS].reshape(-1))


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array-like payload.  Integer inputs are promoted to float.
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` on
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "op",
                 "__weakref__")
    __array_priority__ = 100  # so ndarray + Tensor dispatches to Tensor.__radd__

    def __init__(self, data: Any, requires_grad: bool = False, *, _parents: tuple = (), _op: str = "leaf"):
        if isinstance(data, Tensor):
            data = data.data
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _grad_enabled()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = _parents if self.requires_grad or _parents else ()
        self.op = _op

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_note})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a 1-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"], op: str,
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        requires = _grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _parents=tuple(parents) if requires else (), _op=op)
        if requires:
            hook = _PROFILE_HOOK
            if hook is not None:
                backward = hook.record_node(op, out.data.nbytes, backward)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """Accumulate a gradient buffer the caller exclusively owns.

        Unlike :meth:`_accumulate`, the buffer is adopted without a defensive
        copy when it can serve as the gradient directly.  Only backward
        closures may use this, and only for arrays (or non-overlapping views
        of arrays) they freshly allocated and will not touch again.
        """
        if not self.requires_grad:
            return
        if (self.grad is None and type(grad) is np.ndarray
                and grad.shape == self.data.shape and grad.dtype == self.data.dtype):
            self.grad = grad
        else:
            self._accumulate(grad)

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to 1 for scalar tensors; required for
            non-scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        while topo:
            # Popping releases ``topo``'s reference, so an interior node's
            # output is freed as soon as its own backward has run, not when
            # the whole pass ends.
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Free the graph as we go (torch's retain_graph=False):
                # interior nodes drop their gradient, closure and parent
                # links so activation memory is released immediately.
                # Leaves (parameters, inputs) have no _backward and keep
                # their accumulated .grad.
                node.grad = None
                node._backward = None
                node._parents = ()

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: Any) -> "Tensor":
        """Wrap a non-Tensor operand, matching this tensor's float dtype so
        python-scalar constants do not silently promote float32 graphs (and,
        for float64 graphs, are not first rounded through the default
        dtype)."""
        if isinstance(other, Tensor):
            return other
        if self.data.dtype.kind == "f":
            wrapped = Tensor(_as_array(other, dtype=self.data.dtype))
        else:
            wrapped = Tensor(other)
        return wrapped

    def __add__(self, other: Any) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return Tensor._make(out_data, (self, other), "add", backward)

    __radd__ = __add__

    def __mul__(self, other: Any) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data)
            other._accumulate(grad * self.data)

        return Tensor._make(out_data, (self, other), "mul", backward)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: Any) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Any) -> "Tensor":
        return self._coerce(other) + (-self)

    def __truediv__(self, other: Any) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other.data)
            other._accumulate(-grad * self.data / (other.data ** 2))

        return Tensor._make(out_data, (self, other), "div", backward)

    def __rtruediv__(self, other: Any) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), "pow", backward)

    def __matmul__(self, other: Any) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:  # dot product
                self._accumulate(grad * b)
                other._accumulate(grad * a)
                return
            if a.ndim == 1:  # (k,) @ (..., k, n)
                ga = (grad[..., None, :] * b).sum(axis=-1)
                self._accumulate(_unbroadcast(ga, a.shape))
                other._accumulate(_unbroadcast(a[..., :, None] * grad[..., None, :], b.shape))
                return
            if b.ndim == 1:  # (..., m, k) @ (k,)
                self._accumulate(_unbroadcast(grad[..., None] * b, a.shape))
                other._accumulate(_unbroadcast((a * grad[..., None]).reshape(-1, a.shape[-1]).sum(axis=0), b.shape))
                return
            ga = grad @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ grad
            self._accumulate(_unbroadcast(ga, a.shape))
            other._accumulate(_unbroadcast(gb, b.shape))

        return Tensor._make(out_data, (self, other), "matmul", backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(out_data, (self,), "sum", backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            full = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                full = np.expand_dims(out_data, axis)
            mask = (self.data == full).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else max(mask.sum(), 1.0)
            self._accumulate(mask * g)

        return Tensor._make(out_data, (self,), "max", backward)

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), "exp", backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), "log", backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), "tanh", backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), "sigmoid", backward)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > 0))

        return Tensor._make(out_data, (self,), "relu", backward)

    def abs(self) -> "Tensor":
        """Elementwise absolute value (grad = sign; 0 at exactly 0)."""
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), "abs", backward)

    def min(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Minimum, implemented as ``-max(-x)`` for gradient consistency."""
        return -((-self).max(axis=axis, keepdims=keepdims))

    def var(self, axis: int | tuple[int, ...] | None = None,
            keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable."""
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def std(self, axis: int | tuple[int, ...] | None = None,
            keepdims: bool = False, eps: float = 0.0) -> "Tensor":
        """Population standard deviation; ``eps`` guards the sqrt at 0."""
        return (self.var(axis=axis, keepdims=keepdims) + eps) ** 0.5

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            inside = (self.data >= low) & (self.data <= high)
            self._accumulate(grad * inside)

        return Tensor._make(out_data, (self,), "clip", backward)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.data.shape))

        return Tensor._make(out_data, (self,), "reshape", backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), "transpose", backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, index: Any) -> "Tensor":
        if isinstance(index, Tensor):
            index = index.data.astype(np.int64)
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            if isinstance(index, np.ndarray) and index.dtype.kind in "iu":
                scatter_add_rows(full, index, grad)
            else:
                np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), "getitem", backward)

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Return a tensor with positions where ``mask`` is True set to ``value``."""
        mask = np.asarray(mask, dtype=bool)
        out_data = np.where(mask, value, self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(np.where(mask, 0.0, grad), self.data.shape))

        return Tensor._make(out_data, (self,), "masked_fill", backward)

    # ------------------------------------------------------------------
    # joining
    # ------------------------------------------------------------------
    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor_i, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor_i._accumulate(grad[tuple(slicer)])

        return Tensor._make(out_data, tensors, "concatenate", backward)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            parts = np.split(grad, len(tensors), axis=axis)
            for tensor_i, part in zip(tensors, parts):
                tensor_i._accumulate(np.squeeze(part, axis=axis))

        return Tensor._make(out_data, tensors, "stack", backward)


def tensor(data: Any, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)
