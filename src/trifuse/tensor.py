"""Reverse-mode autodiff on numpy arrays, sized for desk-scale experiments.

The design is a dynamically recorded tape: every differentiable operation
returns a tensor holding references to its parent tensors and a closure that
maps the upstream gradient to parent gradients. ``backward`` walks the
recorded graph once in reverse topological order and releases it as it
goes: each node drops its closure, parents and gradient once its VJP has
run, so after ``backward`` only leaves hold a ``.grad`` (each its own
array) and a second ``backward`` through the same graph raises
``RuntimeError``. There is no compilation and no GPU path; a few hot
chains (``linear``, ``mlp``, ``attention``, ``selective_scan``) are
fused into single hand-written nodes. The point is a core small enough to
verify against central finite differences and fast enough for toy models.

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
* attention reads one ``[..., 3D, N]`` in-projection whose rows run per
  head (head 0's query, key and value rows, then head 1's, and so on),
  so each lane is one reshape of it and its gradient is one array; it
  sweeps its lanes (batch times heads) in blocks of at most
  ``_CACHE_ELEMS`` elements, copying each block's q, k and v into one
  contiguous buffer with a row of ones (or the softmax shift) added, so
  its key-major ``[M, N]`` exponentials are one GEMM and one ``exp`` and
  the output and its column sums one more GEMM; its tape keeps no
  ``[N, N]`` array, and the VJP rebuilds the exponentials block by block
* the scan builds its ``[..., D, S, K]``-sized arrays token-major, as
  ``[K, ..., S, D]``: its sweep steps over whole contiguous rows, and its
  sums over S or D are batched matmuls
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
    "sqrt", "softplus", "relu", "mlp", "silu",
    "tsum", "tmean", "tmax", "tmin", "reshape", "moveaxis",
    "concat", "narrow", "where_mask", "attention",
    "norm_affine", "dwconv1d", "selective_scan", "stack_shape",
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

#: Elements in one block of attention lanes, small enough to stay in a
#: core's cache (256 KB in float64)
_CACHE_ELEMS = 1 << 15


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

#: Names of every tape node, by the op name it records, that claims
#: differentiability: this module's ops and the eval ``batch_norm`` node of
#: :class:`~trifuse.nn.BatchNorm`. The gradient-check suite
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
                    # one g to both parents); a leaf gets its own copy. A
                    # 0-d grad stays 0-d: ascontiguousarray would make it 1-d
                    parent.grad = (pg.copy() if parent._vjp is None else
                                   np.ascontiguousarray(pg) if pg.ndim else pg)
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


def stack_shape(shape: Sequence[int], ndim: int) -> tuple[int, ...]:
    """``shape`` of a module's array lined up with an input of ``ndim`` axes.

    Axes in front of a module's own two (weight ``[out, in]``, column
    ``[D, 1]``) stack one module per stream: the first meets the input's
    axis 0, any others the axes before its last two, and 1s fill the gap,
    so ``[3, out, in]`` meets ``[3, B, in, N]`` as ``[3, 1, out, in]``."""
    shape = tuple(shape)
    if len(shape) <= 2:
        return shape
    return shape[:1] + (1,) * (ndim - len(shape)) + shape[1:]


def _column(v: np.ndarray, ndim: int) -> np.ndarray:
    """Values ``[(S,) D]`` as a column ``[(S,) D, 1]`` for ``ndim`` axes."""
    return v.reshape(stack_shape(v.shape + (1,), ndim))


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


def _affine(w: Tensor, x: np.ndarray, b: Tensor | None, nx: bool):
    """``w @ x + b[:, None]`` on an array x, lined up by :func:`stack_shape`,
    and its VJP ``g -> (gw, gx, gb)``, which keeps x only if w trains."""
    if x.shape[-2] != w.shape[-1]:
        raise ValueError(f"expected {w.shape[-1]} features, got {x.shape[-2]}")
    wv = w.data.reshape(stack_shape(w.data.shape, x.ndim))
    out = wv @ x
    if b is not None:
        bv = _column(b.data, out.ndim)
        out += bv
    nw, nb = w.requires_grad, b is not None and b.requires_grad
    kept, x_shape = (x if nw else None), x.shape

    def vjp(g):
        gw = (_unbroadcast(g @ np.swapaxes(kept, -1, -2), wv.shape)
              .reshape(w.data.shape) if nw else None)
        gx = _unbroadcast(np.swapaxes(wv, -1, -2) @ g, x_shape) if nx else None
        gb = _unbroadcast(g, bv.shape).reshape(b.data.shape) if nb else None
        return gw, gx, gb

    return out, vjp


@_diffop("linear")
def linear(w: Tensor, x: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map ``w @ x + b[:, None]`` as one tape node: weight
    ``[out, in]``, input ``[..., in, N]``, optional bias ``[out]``; stacked
    ``[S, out, in]`` and ``[S, out]`` ones line up by :func:`stack_shape`."""
    out, vjp = _affine(w, x.data, b, x.requires_grad)
    return Tensor._from_op(out, (w, x) if b is None else (w, x, b), vjp, "linear")


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


def _exp_neg_abs(x: np.ndarray) -> np.ndarray:
    """exp(-|x|) in one new buffer: in (0, 1], it never overflows."""
    e = np.abs(x)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # e = exp(-|x|): 1 / (1 + e) for x >= 0, e / (1 + e) below, the
    # numerator exp(min(x, 0)) being exactly 1 or e
    e = _exp_neg_abs(x)
    e += 1.0
    s = np.minimum(x, 0.0)
    np.exp(s, out=s)
    s /= e
    return s


@_diffop("softplus")
def softplus(a: Tensor) -> Tensor:
    # log(1 + exp(x)) = max(x, 0) + log1p(exp(-|x|)), as np.logaddexp(0, x)
    # takes it, in vectorised passes
    ad = a.data
    t = _exp_neg_abs(ad)
    np.log1p(t, out=t)
    out = np.maximum(ad, 0.0)
    out += t

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


@_diffop("mlp")
def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``w2 @ gelu(w1 @ x + b1) + b2`` as one tape node, GELU in its tanh
    form, weights and biases lined up as :func:`linear`'s. It keeps the
    pre-activation and gelu's tanh, and the hidden output only if w2 trains."""
    pre, first = _affine(w1, x.data, b1, x.requires_grad)
    # t = tanh(c * (pre + 0.044715 * pre**3)) in one buffer, pre**3 as multiplies
    t = pre * pre
    t *= pre
    t *= 0.044715
    t += pre
    t *= _GELU_C
    np.tanh(t, out=t)
    h = t + 1.0
    h *= pre
    h *= 0.5
    out, second = _affine(w2, h, b2, nx=True)

    def vjp(g):
        gw2, gh, gb2 = second(g)
        # gh * (0.5 (1 + t) + 0.5 pre (1 - t²) c (1 + 3 · 0.044715 pre²)) in
        # three buffers, each product and sum in the order the formula reads
        dinner = pre * (3.0 * 0.044715)
        dinner *= pre
        dinner += 1.0
        dinner *= _GELU_C
        d = t * t
        np.subtract(1.0, d, out=d)
        rest = pre * 0.5
        rest *= d
        rest *= dinner
        np.add(t, 1.0, out=d)
        d *= 0.5
        d += rest
        d *= gh
        gw1, gx, gb1 = first(d)
        return gx, gw1, gb1, gw2, gb2

    return Tensor._from_op(out, (x, w1, b1, w2, b2), vjp, "mlp")


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


@_diffop("moveaxis")
def moveaxis(a: Tensor, source, destination) -> Tensor:
    """``np.moveaxis`` (an int or a sequence of axes each), laid out
    contiguous."""
    out = np.ascontiguousarray(np.moveaxis(a.data, source, destination))

    def vjp(g):
        return (np.moveaxis(g, destination, source),)

    return Tensor._from_op(out, (a,), vjp, "moveaxis")


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

def _qkv_rows(heads: int, dim: int) -> np.ndarray:
    """Row r of :func:`attention`'s ``[..., 3·dim, N]`` operand is row
    ``_qkv_rows(heads, dim)[r]`` of the q, k and v maps stacked in that
    order: head 0's q, k and v rows, then head 1's, and so on."""
    return np.arange(3 * dim).reshape(3, heads, -1).swapaxes(0, 1).ravel()


def _attention_blocks(lanes: np.ndarray, scale: float, shift: np.ndarray,
                      exact: bool = False):
    """Yield ``(s, buf, e)`` for each block of the ``[L, 3, d, N]`` lanes:
    the lane slice s, the block's contiguous ``[nb, 3, d+1, N]`` copy of
    ``[q·scale; −shift]``, ``[k; 1]`` and ``[v; 1]``, and its key-major
    softmax numerators ``e = exp([k; 1]ᵀ[q·scale; −shift])`` ``[nb, M, N]``,
    one GEMM and one ``exp``. With ``exact`` the block first writes its
    exact column maxima of kᵀ(q·scale) into ``shift[s]``. The buffers are
    reused from block to block."""
    n_lanes, _, d, n = lanes.shape
    step = max(1, _CACHE_ELEMS // (n * n))  # lanes per block
    buf = np.empty((min(n_lanes, step), 3, d + 1, n), dtype=lanes.dtype)
    buf[:, 1:, d] = 1.0
    e = np.empty((len(buf), n, n), dtype=lanes.dtype)
    for m in range(0, n_lanes, step):
        s = slice(m, m + step)
        nb = min(step, n_lanes - m)
        bb, eb = buf[:nb], e[:nb]
        np.multiply(lanes[s, 0], scale, out=bb[:, 0, :d])
        bb[:, 1:, :d] = lanes[s, 1:]
        keys = np.swapaxes(bb[:, 1], -1, -2)
        if exact:
            bb[:, 0, d] = 0.0
            np.matmul(keys, bb[:, 0], out=eb).max(axis=-2, out=shift[s])
        np.negative(shift[s], out=bb[:, 0, d])
        np.exp(np.matmul(keys, bb[:, 0], out=eb), out=eb)
        yield s, bb, eb


@_diffop("attention")
def attention(qkv: Tensor, heads: int, scale: float) -> Tensor:
    """Multi-head softmax attention as one tape node: per head, ``v p``
    with p = softmax(kᵀq · scale) over the keys, key-major ``[M, N]``.

    ``qkv`` ``[..., 3D, N]`` (leading axes are batch) holds, per head, its
    d = D / heads query rows, then key rows, then value rows
    (:func:`_qkv_rows`); the output is ``[..., D, N]``. The leading axes
    times the heads flatten to L lanes, ``[L, 3, d, N]``, swept in blocks
    whose ``[N, N]`` numerators fit ``_CACHE_ELEMS``
    (:func:`_attention_blocks`). Each block copies ``[q·scale; −c]``,
    ``[k; 1]`` and ``[v; 1]`` into one contiguous buffer, so the softmax
    shift rides in the score GEMM and ``[v; 1] @ e`` gives the unnormalized
    output and its ``[1, N]`` column sums s in one more GEMM; the output is
    ``(v e) / s``. The shift is the Cauchy–Schwarz bound
    c_n = scale·‖q_n‖·max_m‖k_m‖ ≥ every score of column n, so no
    exponential overflows; a lane with a column sum below
    ``N·tiny/eps``, where the bound overshot so far that the largest
    exponential lost precision, runs again with its exact column maxima
    as the shift. The node keeps its operand, the ``[L, N]`` shifts and
    the ``[L, 1, N]`` sums, no ``[N, N]`` array; its VJP rebuilds each
    block's e with the forward's own calls, bitwise, forms
    ``[g/s; −δ]`` with δ = colsum(g ∘ out)/s for all lanes at once, and
    gets the score gradient ``([v; 1]ᵀ[g/s; −δ]) ∘ e`` from one GEMM and
    one multiply, writing the gradients of q, k and v into one
    ``[L, 3, d, N]`` array. Every lane goes through the same numpy calls
    whatever the block, so the block size never changes a bit of the
    output or the gradient.
    """
    shape = qkv.data.shape
    rows, n = shape[-2:]
    if heads < 1 or rows % (3 * heads):
        raise ValueError(f"{rows} rows do not split into 3 x {heads} heads")
    d = rows // (3 * heads)
    lanes = qkv.data.reshape(-1, 3, d, n)
    sq = np.einsum("lidn,lidn->lin", lanes[:, :2], lanes[:, :2])  # ‖q‖², ‖k‖²
    k2 = sq[:, 1].max(axis=-1, keepdims=True)
    k2 *= scale * scale
    shift = sq[:, 0] * k2
    np.sqrt(shift, out=shift)

    def sweep(lanes, shift, exact=False):  # (v e) / s and s
        y = np.empty((len(lanes), d, n), dtype=lanes.dtype)
        sums = np.empty((len(lanes), 1, n), dtype=lanes.dtype)
        for s, buf, e in _attention_blocks(lanes, scale, shift, exact):
            acc = np.matmul(buf[:, 2], e)  # [v; 1] @ e
            sums[s] = acc[:, d:]
            np.divide(acc[:, :d], sums[s], out=y[s])
        return y, sums

    with np.errstate(divide="ignore", invalid="ignore"):  # bad lanes rerun
        y, sums = sweep(lanes, shift)
    fi = np.finfo(lanes.dtype)
    low = n * fi.tiny / fi.eps
    if sums.min() < low:
        bad = np.flatnonzero(sums.min(axis=-1) < low)
        exact = np.empty((len(bad), n), dtype=lanes.dtype)
        y[bad], sums[bad] = sweep(lanes[bad], exact, exact=True)
        shift[bad] = exact

    def vjp(g):
        gd = np.empty((len(lanes), d + 1, n), dtype=lanes.dtype)  # [g/s; −δ]
        gn = np.divide(g.reshape(-1, d, n), sums, out=gd[:, :d])
        np.einsum("ldn,ldn->ln", gn, y, out=gd[:, d])
        np.negative(gd[:, d], out=gd[:, d])
        grad = np.empty_like(lanes)
        for s, buf, e in _attention_blocks(lanes, scale, shift):
            np.matmul(gd[s, :d], np.swapaxes(e, -1, -2), out=grad[s, 2])
            gz = np.matmul(np.swapaxes(buf[:, 2], -1, -2), gd[s])
            gz *= e  # d/d(kᵀq · scale)
            np.matmul(buf[:, 1, :d], gz, out=grad[s, 0])
            np.matmul(buf[:, 0, :d], np.swapaxes(gz, -1, -2), out=grad[s, 1])
        grad[:, 0] *= scale
        return (grad.reshape(shape),)

    return Tensor._from_op(y.reshape(shape[:-2] + (rows // 3, n)), (qkv,),
                           vjp, "attention")


@_diffop("norm_affine")
def norm_affine(x: Tensor, gain: Tensor, shift: Tensor, eps: float, axis: int) -> Tensor:
    """Normalize ``x`` to zero mean and unit variance along ``axis``, then
    apply a per-feature affine (gain and shift ``[(S,) D]`` on axis -2).

    ``axis=-2`` is layer norm over the feature axis (per token/column);
    ``axis=-1`` is batch norm over the token axis (per channel/row), which
    keeps each sequence of a ``[B, D, N]`` batch to its own statistics.
    """
    xhat = x.data - x.data.mean(axis=axis, keepdims=True)
    # the mean of squared deviations, as np.var takes it, from the same centring
    inv = 1.0 / np.sqrt(np.mean(xhat * xhat, axis=axis, keepdims=True) + eps)
    xhat *= inv
    gcol = _column(gain.data, xhat.ndim)
    out = xhat * gcol
    out += _column(shift.data, xhat.ndim)
    nx, ng, ns = _needs((x, gain, shift))

    def vjp(g):
        gx = None
        if nx:
            dxhat = g * gcol
            gx = inv * (dxhat - dxhat.mean(axis=axis, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=axis, keepdims=True))
        gg = _unbroadcast(g * xhat, gcol.shape).reshape(gain.shape) if ng else None
        gs = _unbroadcast(g, gcol.shape).reshape(shift.shape) if ns else None
        return gx, gg, gs

    return Tensor._from_op(out, (x, gain, shift), vjp, "norm_affine")


@_diffop("dwconv1d")
def dwconv1d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Depthwise 1-D convolution along the token axis, one kernel per channel,
    with same-padding (output length N), plus a per-channel bias. Leading
    axes are batch; stacked ``[S, D, k]`` kernels and ``[S, D]`` biases line
    up by :func:`stack_shape`.
    """
    D, N = x.data.shape[-2:]
    Dk, k = kernels.data.shape[-2:]
    if Dk != D:
        raise ValueError("kernel channel count must match input channels")
    if k % 2 == 0:
        raise ValueError("dwconv1d requires an odd kernel size")
    pad = k // 2
    xp = np.pad(x.data, ((0, 0),) * (x.data.ndim - 1) + ((pad, pad),))
    out = np.zeros_like(x.data)
    kd = kernels.data
    kv = kd.reshape(stack_shape(kd.shape, x.data.ndim))
    for j in range(k):
        out += kv[..., j:j + 1] * xp[..., j:j + N]
    bcol = _column(bias.data, out.ndim)
    out += bcol
    nx, nk, nb = _needs((x, kernels, bias))

    def vjp(g):
        gx = None
        if nx:
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[..., j:j + N] += kv[..., j:j + 1] * g
            gx = gxp[..., pad:pad + N].copy() if pad else gxp
        gk = None
        if nk:
            gk = np.empty_like(kd)
            tap = kv.shape[:-1] + (1,)
            for j in range(k):
                gk[..., j] = _unbroadcast(xp[..., j:j + N] * g,
                                          tap).reshape(kd.shape[:-1])
        gb = _unbroadcast(g, bcol.shape).reshape(bias.shape) if nb else None
        return gx, gk, gb

    return Tensor._from_op(out, (x, kernels, bias), vjp, "dwconv1d")


# ---------------------------------------------------------------------------
# selective scan
# ---------------------------------------------------------------------------

def _sweep(a: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Evaluate h[k] = a[k - 1] * h[k - 1] + h[k] down axis 0 of ``h`` in
    place, for k = 1 .. K - 1, where ``a`` holds the K - 1 factors. Each
    row is one contiguous block, so reversed views sweep just as fast."""
    for a_k, h_prev, h_k in zip(a, h, h[1:]):
        h_k += a_k * h_prev
    return h


def _tokens_first(v: np.ndarray) -> np.ndarray:
    """``v [..., K]`` laid out contiguous as ``[K, ...]``: a copy, or a view
    of ``v`` when that layout is contiguous already."""
    return np.ascontiguousarray(np.moveaxis(v, -1, 0))


def _tokens_last(v: np.ndarray) -> np.ndarray:
    """``v [K, ...]`` laid out contiguous as ``[..., K]``."""
    return np.ascontiguousarray(np.moveaxis(v, 0, -1))


@_diffop("selective_scan")
def selective_scan(x: Tensor, delta: Tensor, a_log: Tensor, b: Tensor,
                   c: Tensor, skip: Tensor) -> Tensor:
    """The selective state space scan as one tape node: with a = -exp(a_log)
    and h zero before the first token, one sweep over the tokens evaluates

        h[d,s,k] = exp(delta[d,k] a[d,s]) h[d,s,k-1] + delta[d,k] b[s,k] x[d,k]
        y[d,k]   = sum_s c[s,k] h[d,s,k] + skip[d] x[d,k]

    for x, delta ``[..., D, K]`` and b, c ``[..., S, K]`` on the same
    leading axes; ``a_log`` ``[(L,) D, S]`` and ``skip`` ``[(L,) D]`` line
    up by :func:`stack_shape`. Only the small operands are transposed:
    the states are built token-major, ``[K, ..., S, D]``, so the sweep
    steps over whole contiguous rows and every sum over S or D is a
    batched matmul. The VJP runs the adjoint recurrence down the same rows
    in reverse. Besides token-major copies of its small operands the node
    keeps only h and the decays abar = exp(delta a)."""
    xd = x.data
    if (delta.shape != xd.shape or c.shape != b.shape
            or b.shape[:-2] + b.shape[-1:] != xd.shape[:-2] + xd.shape[-1:]):
        raise ValueError("selective_scan operands must share leading axes "
                         "and token count")
    xt, dt, bt, ct = (_tokens_first(v.data) for v in (x, delta, b, c))
    a = np.exp(a_log.data) * -1.0
    a_row = np.swapaxes(a, -1, -2)                       # [(L,) S, D]
    a_row = a_row.reshape(stack_shape(a_row.shape, xd.ndim))
    dx = dt * xt                                         # [K, ..., D]
    abar = dt[..., None, :] * a_row                      # [K, ..., S, D]
    np.exp(abar, out=abar)
    h = _sweep(abar[1:], dx[..., None, :] * bt[..., None])
    skip_col = _column(skip.data, xd.ndim)
    out = skip_col * xd
    out += np.moveaxis((ct[..., None, :] @ h)[..., 0, :], 0, -1)
    nx, ndelta, na, nb, nc, ns = _needs((x, delta, a_log, b, c, skip))

    def vjp(g):
        gt = _tokens_first(g)
        # adjoint recurrence: ghat_k = dL/dh_k + abar_{k+1} * ghat_{k+1}
        ghat = ct[..., None] * gt[..., None, :]
        _sweep(abar[:0:-1], ghat[::-1])
        q = (bt[..., None, :] @ ghat)[..., 0, :]         # dL/d(delta x)
        gb = _tokens_last((ghat @ dx[..., None])[..., 0]) if nb else None
        gc = _tokens_last((h @ gt[..., None])[..., 0]) if nc else None
        # dL/d(delta a) through abar = exp(delta a) is ghat_k h_{k-1} abar_k;
        # times a, u holds each (d, s) share of dL/d delta and dL/da_log
        u = ghat
        u[0] = 0.0
        u[1:] *= h[:-1]
        u[1:] *= abar[1:]
        u *= a_row
        gx = _tokens_last(q * dt + gt * skip_col[..., 0]) if nx else None
        gdelta = None
        if ndelta:  # the sum over S as a matmul with a row of ones
            ones = np.ones(u.shape[-2], dtype=u.dtype)
            gdelta = _tokens_last(q * xt + ones @ u)
        ga = None
        if na:
            ga = _unbroadcast(np.einsum("k...sd,k...d->...sd", u, dt),
                              a_row.shape)
            ga = np.swapaxes(ga, -1, -2).reshape(a.shape)
        gskip = (_unbroadcast(g * xd, skip_col.shape).reshape(skip.data.shape)
                 if ns else None)
        return gx, gdelta, ga, gb, gc, gskip

    return Tensor._from_op(out, (x, delta, a_log, b, c, skip), vjp,
                           "selective_scan")
