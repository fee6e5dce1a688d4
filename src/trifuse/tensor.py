"""Reverse-mode autodiff on numpy arrays, sized for desk-scale experiments.

The design is a dynamically recorded tape: every differentiable operation
returns a tensor holding references to its parent tensors and a closure that
maps the upstream gradient to parent gradients. ``backward`` walks the
recorded graph once in reverse topological order and releases it as it
goes: each node drops its closure, parents and gradient once its VJP has
run, so after ``backward`` only leaves hold a ``.grad`` (each its own
array) and a second ``backward`` through the same graph raises
``RuntimeError``. There is no compilation and no GPU path; a few hot
chains (``linear``, ``attention``) are fused into single hand-written
nodes. The point is a core small enough to verify against central finite
differences and fast enough for toy models.

Conventions used throughout the package:

* ops act on the last two axes ``[..., D, N]``: features on axis -2,
  tokens on axis -1, so one sequence is ``[D, N]``; any leading axes are
  batch, and B sequences of equal length travel as one ``[B, D, N]``
* arrays are float32 or float64, selected by :func:`set_default_dtype`
* wrapped arrays are treated as immutable; mutating ``.data`` of a tensor
  that sits inside a recorded graph voids the gradient warranty
* every op checks its output for NaN/Inf while finite checks are on, the
  default; ``finite_checks(False)`` turns them off for a block of code,
  as the training loop and ``FusionModel.features`` do, checking their
  results once instead
* importing this module fixes glibc's allocator thresholds for the
  process, so the arrays a step frees stay in the heap for the next step
  (``_keep_freed_memory``)
"""

from __future__ import annotations

import ctypes
import math
import platform
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor", "Param", "NonFiniteError", "no_grad",
    "set_default_dtype", "default_dtype", "finite_checks",
    "register_differentiable", "DIFFERENTIABLE_OPS",
    "add", "sub", "mul", "neg", "matmul", "linear", "exp", "log",
    "sqrt", "softplus", "relu", "gelu", "silu",
    "tsum", "tmean", "tmax", "tmin", "reshape", "swapaxes", "transpose",
    "concat", "narrow", "where_mask", "attention",
    "attention_weights", "norm_affine", "dwconv1d", "linear_recurrence",
]


class NonFiniteError(ArithmeticError):
    """An op produced NaN or Inf, which the numeric contract forbids.

    ``module`` is the innermost :class:`~trifuse.nn.Module` whose call the
    error passed through on its way out, or None.
    """

    module = None


_DEFAULT_DTYPE = np.float64
_GRAD_ENABLED = True
_FINITE_CHECKS = True


def _keep_freed_memory() -> bool:
    """Keep the memory of freed arrays in this process's heap.

    ``backward`` frees the whole tape at the end of a step, tens of MB at
    long sequence sizes. With glibc's default, dynamic thresholds, large
    buffers come from their own ``mmap`` or are trimmed off the heap top,
    so that memory goes back to the kernel and the next forward faults
    the same pages in again, about 16,000 minor faults per long-sized
    step. Fixing the mmap threshold at glibc's 64-bit ceiling (32 MiB)
    and the trim threshold at 1 GiB keeps freed buffers in the heap for
    the next step. Setting either one turns the dynamic thresholds off
    and leaves the other at its default, so both are set. Only the reuse
    of pages changes, never the arrays computed. Returns whether both
    settings took; off glibc it does nothing and returns False.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # from <malloc.h>
    trim_set = mallopt(M_TRIM_THRESHOLD, 1 << 30)
    mmap_set = mallopt(M_MMAP_THRESHOLD, 32 << 20)
    return bool(trim_set and mmap_set)


_keep_freed_memory()

#: Names of every op that claims differentiability. The gradient-check suite
#: enumerates this registry and refuses to pass unless it has a case for each
#: entry, so adding an op here without a check is a loud failure, not a gap.
DIFFERENTIABLE_OPS: set[str] = set()


def register_differentiable(name: str) -> None:
    DIFFERENTIABLE_OPS.add(name)


def _diffop(name: str):
    """Decorator flavor of :func:`register_differentiable` for ops here."""
    def deco(fn):
        register_differentiable(name)
        return fn
    return deco


def set_default_dtype(dtype) -> None:
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    _DEFAULT_DTYPE = dtype.type


def default_dtype():
    return _DEFAULT_DTYPE


class finite_checks:
    """Context manager that turns per-op finite checks on or off inside
    its block and restores the previous setting after it."""

    def __init__(self, enabled: bool):
        self._enabled = bool(enabled)

    def __enter__(self):
        global _FINITE_CHECKS
        self._prev = _FINITE_CHECKS
        _FINITE_CHECKS = self._enabled
        return self

    def __exit__(self, *exc):
        global _FINITE_CHECKS
        _FINITE_CHECKS = self._prev
        return False


class no_grad:
    """Context manager that pauses tape recording (forward-only evaluation)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _check_finite(arr: np.ndarray, op: str) -> None:
    # callers test _FINITE_CHECKS first, so an unchecked op costs no call
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"op '{op}' produced non-finite values")


def _released(g):
    raise RuntimeError("backward() reached a node whose graph was released by "
                       "an earlier backward(); run the forward pass again")


class Tensor:
    """A dense array plus the bookkeeping reverse mode needs.

    Attributes:
        data: the underlying numpy array (row-major).
        grad: accumulated gradient, same shape as ``data``, or None.
        requires_grad: whether backward should reach this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype or _DEFAULT_DTYPE)
        self.data = np.ascontiguousarray(arr)
        if _FINITE_CHECKS:
            _check_finite(self.data, "tensor")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable | None = None

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple, vjp, op: str) -> "Tensor":
        if _FINITE_CHECKS:
            _check_finite(data, op)
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._vjp = vjp
        else:
            out.requires_grad = False
            out._parents = ()
            out._vjp = None
        return out

    # ---- introspection ----

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

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # ---- autodiff ----

    def backward(self, grad=None) -> None:
        """Accumulate dSelf/dLeaf into every reachable leaf's ``.grad``.

        Without an explicit ``grad`` seed, self must be a one-element tensor
        (the usual scalar loss).

        The walk releases the graph behind it: once a node's VJP has run,
        the node drops its closure, its parents and its ``.grad``, so the
        tape's memory is freed as it goes. Afterwards:

        * only leaves (tensors no op recorded) hold a ``.grad``; an
          intermediate tensor's ``.grad`` is None;
        * every leaf owns its ``.grad`` array, shared with no other tensor;
        * a second ``backward`` that reaches a released node raises
          ``RuntimeError`` instead of returning zero gradients.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() on a non-scalar needs an explicit gradient")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError("gradient seed shape mismatch")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        self.grad = grad.copy() if self.grad is None else self.grad + grad
        for node in reversed(topo):
            vjp, parents, g = node._vjp, node._parents, node.grad
            if vjp is None:
                continue  # a leaf keeps its gradient
            node._vjp, node._parents, node.grad = _released, (), None
            if g is None:
                continue
            for parent, pg in zip(parents, vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    # an intermediate grad is read once and never written
                    # in place, so it may alias the VJP's array (add hands
                    # one g to both parents); a leaf gets its own copy
                    parent.grad = (pg.copy() if parent._vjp is None
                                   else np.ascontiguousarray(pg))
                else:
                    parent.grad = parent.grad + pg

    def zero_grad(self) -> None:
        self.grad = None

    # ---- operator sugar ----

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_coerce(other, self), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


class Param(Tensor):
    """A leaf tensor with a persistent gradient buffer and a freeze flag.

    Frozen params opt out of the graph entirely: ops treat them as constants,
    backward never touches them, and their gradient stays exactly zero.
    """

    __slots__ = ("frozen",)

    def __init__(self, data, frozen: bool = False, dtype=None):
        super().__init__(data, requires_grad=not frozen, dtype=dtype)
        self.frozen = bool(frozen)
        self.grad = np.zeros_like(self.data)

    def freeze(self) -> "Param":
        self.frozen = True
        self.requires_grad = False
        self.grad = np.zeros_like(self.data)
        return self

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Param(shape={self.data.shape}, frozen={self.frozen})"


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (the reverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _sum_to_features(g: np.ndarray) -> np.ndarray:
    """Sum ``g`` over every axis but the feature axis -2."""
    return g.sum(axis=tuple(i for i in range(g.ndim) if i != g.ndim - 2))


def _needs(parents: Sequence[Tensor]) -> tuple[bool, ...]:
    return tuple(p.requires_grad for p in parents)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

@_diffop("add")
def add(a: Tensor, b) -> Tensor:
    a, b = a, _coerce(b, a)
    out = a.data + b.data
    na, nb = _needs((a, b))

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if na else None,
                _unbroadcast(g, b.data.shape) if nb else None)

    return Tensor._from_op(out, (a, b), vjp, "add")


@_diffop("sub")
def sub(a: Tensor, b) -> Tensor:
    a, b = a, _coerce(b, a)
    out = a.data - b.data
    na, nb = _needs((a, b))

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if na else None,
                _unbroadcast(-g, b.data.shape) if nb else None)

    return Tensor._from_op(out, (a, b), vjp, "sub")


@_diffop("mul")
def mul(a: Tensor, b) -> Tensor:
    a, b = a, _coerce(b, a)
    out = a.data * b.data
    na, nb = _needs((a, b))
    ad, bd = a.data, b.data

    def vjp(g):
        return (_unbroadcast(g * bd, ad.shape) if na else None,
                _unbroadcast(g * ad, bd.shape) if nb else None)

    return Tensor._from_op(out, (a, b), vjp, "mul")


@_diffop("neg")
def neg(a: Tensor) -> Tensor:
    def vjp(g):
        return (-g,)
    return Tensor._from_op(-a.data, (a,), vjp, "neg")


@_diffop("matmul")
def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy semantics for stacked (batched) operands."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul expects operands with ndim >= 2")
    out = a.data @ b.data
    na, nb = _needs((a, b))
    ad, bd = a.data, b.data

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape) if na else None
        gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape) if nb else None
        return ga, gb

    return Tensor._from_op(out, (a, b), vjp, "matmul")


@_diffop("linear")
def linear(w: Tensor, x: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map ``w @ x + b[:, None]`` as one tape node: weight
    ``[out, in]``, input ``[..., in, N]``, optional bias ``[out]``."""
    out = w.data @ x.data
    if b is not None:
        out += b.data[:, None]
    parents = (w, x) if b is None else (w, x, b)
    nw, nx = _needs((w, x))
    nb = b is not None and b.requires_grad
    wd, xd = w.data, x.data

    def vjp(g):
        gw = _unbroadcast(g @ np.swapaxes(xd, -1, -2), wd.shape) if nw else None
        gx = _unbroadcast(np.swapaxes(wd, -1, -2) @ g, xd.shape) if nx else None
        gb = _unbroadcast(g, (wd.shape[0], 1)).reshape(-1) if nb else None
        return gw, gx, gb

    return Tensor._from_op(out, parents, vjp, "linear")


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------

@_diffop("exp")
def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def vjp(g):
        return (g * out,)

    return Tensor._from_op(out, (a,), vjp, "exp")


@_diffop("log")
def log(a: Tensor) -> Tensor:
    out = np.log(a.data)
    ad = a.data

    def vjp(g):
        return (g / ad,)

    return Tensor._from_op(out, (a,), vjp, "log")


@_diffop("sqrt")
def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)

    def vjp(g):
        return (g * 0.5 / out,)

    return Tensor._from_op(out, (a,), vjp, "sqrt")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # e = exp(-|x|) never overflows: 1 / (1 + e) for x >= 0, e / (1 + e) below
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


@_diffop("softplus")
def softplus(a: Tensor) -> Tensor:
    out = np.logaddexp(0.0, a.data)
    ad = a.data

    def vjp(g):
        return (g * _sigmoid(ad),)

    return Tensor._from_op(out, (a,), vjp, "softplus")


@_diffop("relu")
def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return Tensor._from_op(out, (a,), vjp, "relu")


_GELU_C = math.sqrt(2.0 / math.pi)


@_diffop("gelu")
def gelu(a: Tensor) -> Tensor:
    """GELU activation in its tanh approximation."""
    x = a.data
    # t = tanh(c * (x + 0.044715 * x**3)), built in one buffer; x ** 3 goes
    # through pow(), about 50x slower than two multiplies on float64
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5

    def vjp(g):
        dinner = _GELU_C * (1.0 + 3.0 * 0.044715 * x * x)
        d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
        return (g * d,)

    return Tensor._from_op(out, (a,), vjp, "gelu")


@_diffop("silu")
def silu(a: Tensor) -> Tensor:
    x = a.data
    s = _sigmoid(x)
    out = x * s

    def vjp(g):
        return (g * (s + x * s * (1.0 - s)),)

    return Tensor._from_op(out, (a,), vjp, "silu")


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _expand_reduced(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


@_diffop("sum")
def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def vjp(g):
        return (_expand_reduced(g, shape, axis, keepdims),)

    return Tensor._from_op(np.asarray(out), (a,), vjp, "sum")


@_diffop("mean")
def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.data.shape
    count = a.data.size if axis is None else a.data.shape[axis]

    def vjp(g):
        return (_expand_reduced(g, shape, axis, keepdims) / count,)

    return Tensor._from_op(np.asarray(out), (a,), vjp, "mean")


def _extreme(a: Tensor, axis: int, keepdims: bool, kind: str) -> Tensor:
    data = a.data
    if kind == "max":
        out = data.max(axis=axis, keepdims=keepdims)
        idx = np.argmax(data, axis=axis)
    else:
        out = data.min(axis=axis, keepdims=keepdims)
        idx = np.argmin(data, axis=axis)
    shape = data.shape

    def vjp(g):
        # route the gradient to the first extremal element along the axis
        gx = np.zeros(shape, dtype=g.dtype)
        gsel = g if keepdims else np.expand_dims(g, axis)
        np.put_along_axis(gx, np.expand_dims(idx, axis), gsel, axis=axis)
        return (gx,)

    return Tensor._from_op(np.asarray(out), (a,), vjp, kind)


@_diffop("max")
def tmax(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    return _extreme(a, axis, keepdims, "max")


@_diffop("min")
def tmin(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    return _extreme(a, axis, keepdims, "min")


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

@_diffop("reshape")
def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)
    src = a.data.shape

    def vjp(g):
        return (g.reshape(src),)

    return Tensor._from_op(out, (a,), vjp, "reshape")


@_diffop("swapaxes")
def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    out = np.ascontiguousarray(np.swapaxes(a.data, ax1, ax2))

    def vjp(g):
        return (np.swapaxes(g, ax1, ax2),)

    return Tensor._from_op(out, (a,), vjp, "swapaxes")


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError("transpose() is 2-D sugar; use swapaxes for higher ranks")
    return swapaxes(a, 0, 1)


@_diffop("concat")
def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join along ``axis``, broadcasting every other axis (numpy rules, so
    a ``[D, 1]`` token can join ``[B, D, n]`` tokens along axis -1)."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of an empty list")
    ndim = max(t.data.ndim for t in tensors)
    axis = range(ndim)[axis]  # IndexError if out of range
    shapes = [(1,) * (ndim - t.data.ndim) + t.data.shape for t in tensors]
    rest = np.broadcast_shapes(*(s[:axis] + s[axis + 1:] for s in shapes))
    out = np.concatenate([np.broadcast_to(t.data, rest[:axis] + (s[axis],) + rest[axis:])
                          for t, s in zip(tensors, shapes)], axis=axis)
    offsets = np.cumsum([0] + [s[axis] for s in shapes])

    def vjp(g):
        pieces = []
        for i, t in enumerate(tensors):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(_unbroadcast(g[tuple(sl)], t.data.shape))
        return tuple(pieces)

    return Tensor._from_op(out, tuple(tensors), vjp, "concat")


@_diffop("narrow")
def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = np.ascontiguousarray(a.data[sl])
    shape = a.data.shape

    def vjp(g):
        gx = np.zeros(shape, dtype=g.dtype)
        gx[sl] = g
        return (gx,)

    return Tensor._from_op(out, (a,), vjp, "narrow")


@_diffop("where")
def where_mask(mask: np.ndarray, a: Tensor, b) -> Tensor:
    """Select ``a`` where the (constant, boolean) mask holds, else ``b``."""
    b = _coerce(b, a)
    mask = np.asarray(mask, dtype=bool)
    out = np.where(mask, a.data, b.data)
    na, nb = _needs((a, b))
    ash, bsh = a.data.shape, b.data.shape

    def vjp(g):
        ga = _unbroadcast(np.where(mask, g, 0.0), ash) if na else None
        gb = _unbroadcast(np.where(mask, 0.0, g), bsh) if nb else None
        return ga, gb

    return Tensor._from_op(out, (a, b), vjp, "where")


# ---------------------------------------------------------------------------
# normalization and attention building blocks
# ---------------------------------------------------------------------------

def _attention_probs(qd: np.ndarray, kd: np.ndarray, scale: float) -> np.ndarray:
    """p = softmax(qᵀk · scale) over the key axis, built in one
    ``[..., N, N]`` buffer whose rows (queries) are stochastic."""
    p = np.swapaxes(qd, -1, -2) @ kd
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


@_diffop("attention")
def attention(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """Softmax attention as one tape node: ``v pᵀ`` with
    p = softmax(qᵀk · scale) over the keys.

    ``q``, ``k`` and ``v`` share one shape ``[..., d, N]`` (leading axes
    are batch and heads); the output is ``[..., d, N]`` too. Besides the
    operands the node keeps only p, not the scores or a transposed copy.
    """
    if not q.data.shape == k.data.shape == v.data.shape:
        raise ValueError("attention operands must share a shape")
    qd, kd, vd = q.data, k.data, v.data
    p = _attention_probs(qd, kd, scale)
    out = vd @ np.swapaxes(p, -1, -2)
    nq, nk, nv = _needs((q, k, v))

    def vjp(g):
        gv = g @ p if nv else None
        gq = gk = None
        if nq or nk:
            gs = np.swapaxes(g, -1, -2) @ vd  # d/dp
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            gs *= scale  # d/d(qᵀk)
            gq = kd @ np.swapaxes(gs, -1, -2) if nq else None
            gk = qd @ gs if nk else None
        return gq, gk, gv

    return Tensor._from_op(out, (q, k, v), vjp, "attention")


def attention_weights(q: Tensor, k: Tensor, scale: float) -> Tensor:
    """The probabilities p that :func:`attention` mixes values with, as a
    constant tensor ``[..., N, N]`` recorded on no tape."""
    return Tensor(_attention_probs(q.data, k.data, scale))


@_diffop("norm_affine")
def norm_affine(x: Tensor, gain: Tensor, shift: Tensor, eps: float, axis: int) -> Tensor:
    """Normalize ``x`` to zero mean and unit variance along ``axis``, then
    apply a per-feature affine (gain and shift indexed by axis -2).

    ``axis=-2`` is layer norm over the feature axis (per token/column);
    ``axis=-1`` is batch norm over the token axis (per channel/row), which
    keeps each sequence of a ``[B, D, N]`` batch to its own statistics.
    """
    xhat = x.data - x.data.mean(axis=axis, keepdims=True)
    # the mean of squared deviations, as np.var takes it, from the same centring
    inv = 1.0 / np.sqrt(np.mean(xhat * xhat, axis=axis, keepdims=True) + eps)
    xhat *= inv
    gcol = gain.data[:, None]
    out = xhat * gcol
    out += shift.data[:, None]
    nx, ng, ns = _needs((x, gain, shift))

    def vjp(g):
        gx = None
        if nx:
            dxhat = g * gcol
            gx = inv * (dxhat - dxhat.mean(axis=axis, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=axis, keepdims=True))
        gg = _sum_to_features(g * xhat) if ng else None
        gs = _sum_to_features(g) if ns else None
        return gx, gg, gs

    return Tensor._from_op(out, (x, gain, shift), vjp, "norm_affine")


@_diffop("dwconv1d")
def dwconv1d(x: Tensor, kernels: Tensor, causal: bool = False) -> Tensor:
    """Depthwise 1-D convolution along the token axis, one kernel per channel.

    Same-padding by default (output length N); ``causal=True`` pads only on
    the left so position n sees positions <= n. Leading axes are batch.
    """
    D, N = x.data.shape[-2:]
    Dk, k = kernels.data.shape
    if Dk != D:
        raise ValueError("kernel channel count must match input channels")
    if k % 2 == 0:
        raise ValueError("dwconv1d requires an odd kernel size")
    left = k - 1 if causal else k // 2
    right = 0 if causal else k // 2
    xp = np.pad(x.data, ((0, 0),) * (x.data.ndim - 1) + ((left, right),))
    out = np.zeros_like(x.data)
    for j in range(k):
        out += kernels.data[:, j:j + 1] * xp[..., j:j + N]
    nx, nk = _needs((x, kernels))
    kd = kernels.data

    def vjp(g):
        gx = None
        if nx:
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[..., j:j + N] += kd[:, j:j + 1] * g
            gx = gxp[..., left:left + N].copy() if (left or right) else gxp
        gk = None
        if nk:
            gk = np.empty_like(kd)
            for j in range(k):
                gk[:, j] = _sum_to_features(xp[..., j:j + N] * g)
        return gx, gk

    return Tensor._from_op(out, (x, kernels), vjp, "dwconv1d")


# ---------------------------------------------------------------------------
# linear recurrence scan
# ---------------------------------------------------------------------------

def _token_major(x: np.ndarray, chunk: int, count: int, fill: float) -> np.ndarray:
    """Copy ``x [..., K]`` to ``[chunk, ..., count]``, where token
    ``c * chunk + j`` sits at ``[j, ..., c]``; positions past K hold ``fill``."""
    out = np.empty((chunk,) + x.shape[:-1] + (count,), dtype=x.dtype)
    view = np.moveaxis(out, 0, -1)  # [..., count, chunk], writes land in out
    K = x.shape[-1]
    full, rest = divmod(K, chunk)
    view[..., :full, :] = x[..., :full * chunk].reshape(x.shape[:-1] + (full, chunk))
    if rest:
        view[..., full, :rest] = x[..., full * chunk:]
        view[..., full, rest:] = fill
    return out


def _chunked_scan(a: np.ndarray, b: np.ndarray, chunk: int) -> np.ndarray:
    """Evaluate h_k = a_k * h_{k-1} + b_k (h_0 = 0) along the last axis.

    The K tokens split into the fewest chunks C of at most ``chunk`` tokens,
    all of one length L (the last padded with a = 1, b = 0), laid out
    token-major as ``[L, ..., C]``. One sweep over the L positions advances
    every (lane, chunk) pair at once, giving each chunk's zero-initial-state
    prefix and the running product of its a. Then C - 1 carry steps link
    the chunks in order: chunk c adds its running product times the last
    state of chunk c - 1. With a single chunk (K <= ``chunk``) this is the
    plain sequential recurrence, bitwise.
    """
    K = a.shape[-1]
    count = -(-K // chunk)
    chunk = -(-K // count)  # equal lengths pad fewer than C tokens
    # both are fresh copies, so the sweep may overwrite them: bt becomes the
    # within-chunk prefix and at the running product of a
    at = _token_major(a, chunk, count, 1.0)
    bt = _token_major(b, chunk, count, 0.0)
    for j in range(1, chunk):
        bt[j] += at[j] * bt[j - 1]
        if count > 1:
            at[j] *= at[j - 1]
    for c in range(1, count):
        bt[..., c] += at[..., c] * bt[-1, ..., c - 1]
    h = np.empty(a.shape[:-1] + (count * chunk,), dtype=bt.dtype)
    h.reshape(a.shape[:-1] + (count, chunk))[...] = np.moveaxis(bt, 0, -1)
    return h[..., :K]


@_diffop("linear_recurrence")
def linear_recurrence(a: Tensor, b: Tensor, chunk: int = 128) -> Tensor:
    """Differentiable first-order linear recurrence along the last axis.

    Returns the full state sequence h with h_k = a_k * h_{k-1} + b_k and
    zero initial state. The backward pass is the same recurrence run in
    reverse time on the incoming gradient, so it reuses the chunked sweep.
    """
    if a.data.shape != b.data.shape:
        raise ValueError("linear_recurrence operands must share a shape")
    h = _chunked_scan(a.data, b.data, chunk)
    na, nb = _needs((a, b))
    ad = a.data

    def vjp(g):
        # adjoint recurrence: ghat_k = g_k + a_{k+1} * ghat_{k+1}
        ar = np.empty_like(ad)
        ar[..., 0] = 1.0
        ar[..., 1:] = ad[..., :0:-1]
        ghat = _chunked_scan(ar, g[..., ::-1], chunk)[..., ::-1]
        gb = ghat if nb else None
        ga = None
        if na:
            ga = np.empty_like(ghat)
            ga[..., 0] = 0.0
            np.multiply(ghat[..., 1:], h[..., :-1], out=ga[..., 1:])
        return ga, gb

    return Tensor._from_op(h, (a, b), vjp, "linear_recurrence")
