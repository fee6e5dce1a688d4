"""Neural building blocks on top of the autodiff core.

Everything follows the column-token convention: a sequence of N tokens with
D features is a ``[D, N]`` tensor, linear maps multiply from the left.
Blocks act on the last two axes ``[..., D, N]`` and treat any leading axes
as batch, so B equal-length sequences run as one ``[B, D, N]`` tensor.
Modules hold :class:`~trifuse.tensor.Param` leaves and know how to walk
themselves for checkpointing and optimizer hookup.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterator, NoReturn

import numpy as np

from .tensor import (
    NonFiniteError, Param, Tensor, add, attention,
    _column, _unbroadcast, default_dtype, dwconv1d, finite_checks, linear, mlp,
    no_grad, norm_affine, register_differentiable, reshape, stack_shape,
)

register_differentiable("layer_norm")
register_differentiable("batch_norm")
register_differentiable("mhsa")


class Module:
    """Base class providing parameter/buffer traversal and train/eval mode.

    Subclasses assign Params, Modules, or containers of them to attributes;
    traversal order follows attribute insertion order, so names are stable
    for a fixed construction path.

    A subclass's own ``__call__`` is wrapped once, at class creation, so
    that a :class:`~trifuse.tensor.NonFiniteError` raised inside it
    records the innermost module it left (see :func:`locate_non_finite`).
    """

    #: attribute names of plain numpy arrays that belong in checkpoints
    _buffer_attrs: tuple[str, ...] = ()

    #: class-level default so subclasses need not chain __init__;
    #: train()/eval() shadow it with an instance attribute
    training = True

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__call__" in vars(cls):
            cls.__call__ = _recording_module(vars(cls)["__call__"])

    def named_params(self, prefix: str = "") -> Iterator[tuple[str, Param]]:
        for name, value in _held(self, prefix):
            if isinstance(value, Param):
                yield name, value
            else:
                yield from value.named_params(name + ".")

    def params(self) -> list[Param]:
        return [p for _, p in self.named_params()]

    def trainable_params(self) -> list[Param]:
        return [p for p in self.params() if not p.frozen]

    def num_trainable(self) -> int:
        return sum(p.size for p in self.trainable_params())

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for attr in self._buffer_attrs:
            yield f"{prefix}{attr}", getattr(self, attr)
        for name, value in _held(self, prefix):
            if isinstance(value, Module):
                yield from value.named_buffers(name + ".")

    def named_modules(self, name: str = "") -> Iterator[tuple[str, "Module"]]:
        """This module under ``name``, then every submodule under its
        dotted attribute path, e.g. ``aggregator.blocks.0.inter_ssm``."""
        yield name, self
        for path, value in _held(self, f"{name}." if name else ""):
            if isinstance(value, Module):
                yield from value.named_modules(path)

    def modules(self) -> Iterator["Module"]:
        for _, m in self.named_modules():
            yield m

    def train(self, flag: bool = True) -> "Module":
        for m in self.modules():
            m.training = flag
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def freeze(self) -> "Module":
        for p in self.params():
            p.freeze()
        return self

    def state_dict(self) -> dict[str, tuple[np.ndarray, bool]]:
        """Name -> (array, frozen). Buffers are recorded as frozen entries."""
        state: dict[str, tuple[np.ndarray, bool]] = {}
        for name, p in self.named_params():
            state[name] = (p.data, p.frozen)
        for name, buf in self.named_buffers():
            state[name] = (buf, True)
        return state

    def load_state_dict(self, state: dict[str, tuple[np.ndarray, bool]]) -> None:
        own_params = dict(self.named_params())
        own_buffers = dict(self.named_buffers())
        seen = set()
        for name, (arr, _frozen) in state.items():
            if name in own_params:
                p = own_params[name]
                if p.data.shape != arr.shape:
                    raise ValueError(f"shape mismatch for '{name}': "
                                     f"{p.data.shape} vs {arr.shape}")
                p.data = np.ascontiguousarray(arr, dtype=p.data.dtype)
                seen.add(name)
            elif name in own_buffers:
                buf = own_buffers[name]
                if buf.shape != arr.shape:
                    raise ValueError(f"shape mismatch for buffer '{name}'")
                buf[...] = arr
                seen.add(name)
            else:
                raise KeyError(f"unexpected entry '{name}' in state")
        missing = (set(own_params) | set(own_buffers)) - seen
        if missing:
            raise KeyError(f"state missing entries: {sorted(missing)}")


def _held(module: Module, prefix: str) -> Iterator[tuple[str, object]]:
    """(dotted name, value) of every Param and Module that ``module``'s
    attributes hold, directly or in lists, tuples and dicts, in order."""
    def walk(name, value):
        if isinstance(value, (Param, Module)):
            yield name, value
        elif isinstance(value, (list, tuple, dict)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            for key, item in items:
                yield from walk(f"{name}.{key}", item)
    for attr, value in vars(module).items():
        yield from walk(f"{prefix}{attr}", value)


def stack_modules(make: Callable[[], Module], lead: tuple[int, ...]) -> Module:
    """``prod(lead)`` modules from ``make()``, built in order, as one module
    under the first one's names: each param and buffer is theirs stacked
    row-major on the leading axes ``lead``, and row i computes what module
    i computed alone."""
    return _stack([make() for _ in range(math.prod(lead))], lead)


def _stack(modules: list[Module], lead: tuple[int, ...]) -> Module:
    first = modules[0]
    for attr in first._buffer_attrs:
        rows = [getattr(m, attr) for m in modules]
        setattr(first, attr, np.stack(rows).reshape(lead + rows[0].shape))
    for (_, value), *others in zip(*(_held(m, "") for m in modules)):
        rows = [value] + [other for _, other in others]
        if isinstance(value, Module):
            _stack(rows, lead)
        else:
            value.data = np.stack([p.data for p in rows]).reshape(lead + value.shape)
            value.grad = np.zeros_like(value.data)
    return first


def _recording_module(call):
    @functools.wraps(call)
    def __call__(self, *args, **kwargs):
        try:
            return call(self, *args, **kwargs)
        except NonFiniteError as err:
            if err.module is None:
                err.module = self
            raise
    return __call__


def locate_non_finite(root: Module, run: Callable[[], object], where: str,
                      found: str) -> NoReturn:
    """Raise a NonFiniteError for a non-finite value that a check made
    after ``run`` had ``found``, saying where it came from.

    ``run`` goes again with per-op finite checks on, no tape and no numpy
    floating-point warnings. If an op produces NaN or Inf, the error names
    the op, the dotted path under ``root`` of the innermost module whose
    call it ran in, and ``where`` (e.g. ``"step 12"``); if ``run`` stays
    finite, it is ``found`` at ``where``.
    """
    try:
        with no_grad(), finite_checks(True), np.errstate(all="ignore"):
            run()
    except NonFiniteError as err:
        paths = {id(m): name for name, m in root.named_modules()}
        path = paths.get(id(err.module)) if err.module is not None else None
        place = f"in {path}" if path else "outside any module call"
        raise NonFiniteError(f"{err} {place} at {where}") from err
    raise NonFiniteError(f"{found} at {where}")


class Linear(Module):
    """Affine map [..., in, N] -> [..., out, N], weight [out, in] (or
    stacked [S, out, in]), recorded as one ``linear`` tape node."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 bias: bool = True):
        self.weight = Param(rng.normal(0.0, d_in ** -0.5, size=(d_out, d_in)))
        self.bias = Param(np.zeros(d_out)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return linear(self.weight, x, self.bias)


class LayerNorm(Module):
    """Per-token normalization over the feature axis, learned affine."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.gain = Param(np.ones(dim))
        self.shift = Param(np.zeros(dim))
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return norm_affine(x, self.gain, self.shift, self.eps, axis=-2)


class BatchNorm(Module):
    """Per-channel normalization over the token axis with running stats.

    Training mode normalizes each sequence with its own statistics (needs
    at least two tokens) and updates the running estimates once per
    sequence, in batch order; eval mode normalizes with the stored running
    statistics (row i's own, stacked).
    """

    _buffer_attrs = ("running_mean", "running_var")

    def __init__(self, dim: int, eps: float = 1e-5, momentum: float = 0.1):
        self.gain = Param(np.ones(dim))
        self.shift = Param(np.zeros(dim))
        self.eps = eps
        self.momentum = momentum
        self.running_mean = np.zeros(dim, dtype=default_dtype())
        self.running_var = np.ones(dim, dtype=default_dtype())

    def __call__(self, x: Tensor) -> Tensor:
        if self.training:
            n = x.shape[-1]
            if n < 2:
                raise ValueError("batch norm needs N >= 2 tokens in training mode")
            # [sequence, (S,) D]: one row of statistics per sequence
            rows = self.running_mean.shape[:-1] + (-1, x.shape[-2])
            mus = np.moveaxis(x.data.mean(axis=-1).reshape(rows), -2, 0)
            # the running variance keeps the unbiased estimate, the
            # normalization itself uses the population variance
            variances = np.moveaxis(
                x.data.var(axis=-1).reshape(rows) * n / (n - 1), -2, 0)
            m = self.momentum
            for mu, var in zip(mus, variances):
                self.running_mean = (1 - m) * self.running_mean + m * mu
                self.running_var = (1 - m) * self.running_var + m * var
            return norm_affine(x, self.gain, self.shift, self.eps, axis=-1)
        # eval: y = (x - mean) * scale * gain + shift with the running
        # statistics, one node whose gradients reach x, gain and shift
        nd = x.ndim
        scol = _column(1.0 / np.sqrt(self.running_var + self.eps), nd)
        gcol = _column(self.gain.data, nd)
        xn = x.data - _column(self.running_mean, nd)
        xn *= scol
        out = xn * gcol
        out += _column(self.shift.data, nd)
        nx, ng, ns = (t.requires_grad for t in (x, self.gain, self.shift))
        shape = self.gain.shape

        def vjp(g):
            return ((g * gcol) * scol if nx else None,
                    _unbroadcast(g * xn, gcol.shape).reshape(shape) if ng else None,
                    _unbroadcast(g, gcol.shape).reshape(shape) if ns else None)

        return Tensor._from_op(out, (x, self.gain, self.shift), vjp,
                               "batch_norm")


class DepthwiseConv1d(Module):
    """One odd-sized kernel per channel sliding along the token axis."""

    def __init__(self, dim: int, kernel: int, rng: np.random.Generator):
        if kernel % 2 == 0:
            raise ValueError("depthwise conv kernel size must be odd")
        self.kernels = Param(rng.normal(0.0, kernel ** -0.5, size=(dim, kernel)))
        self.bias = Param(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        b = self.bias
        return add(dwconv1d(x, self.kernels),
                   reshape(b, stack_shape(b.shape + (1,), x.ndim)))


class MultiHeadSelfAttention(Module):
    """Full softmax attention over all tokens, heads split along features."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ValueError("feature dim must be divisible by head count")
        self.heads = heads
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        *lead, D, N = x.shape
        H = self.heads
        dh = D // H
        q = reshape(self.wq(x), (*lead, H, dh, N))
        k = reshape(self.wk(x), (*lead, H, dh, N))
        v = reshape(self.wv(x), (*lead, H, dh, N))
        ctx = attention(q, k, v, dh ** -0.5)  # [..., H, dh, N]
        return self.wo(reshape(ctx, (*lead, D, N)))


class Mlp(Module):
    """Token-wise [..., d_in, N] -> [..., d_in, N]: a :class:`Linear` to
    ``hidden`` features, GELU and a Linear back, as one ``mlp`` tape node."""

    def __init__(self, d_in: int, hidden: int, rng: np.random.Generator):
        first, second = Linear(d_in, hidden, rng), Linear(hidden, d_in, rng)
        self.w1, self.b1 = first.weight, first.bias
        self.w2, self.b2 = second.weight, second.bias

    def __call__(self, x: Tensor) -> Tensor:
        return mlp(x, self.w1, self.b1, self.w2, self.b2)


# a class of its own, so that perfbench's nn.ffn span times only this MLP
class FeedForward(Mlp):
    def __init__(self, dim: int, rng: np.random.Generator, ratio: int = 4):
        super().__init__(dim, ratio * dim, rng)
