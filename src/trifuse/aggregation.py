"""Cross-modal token aggregation with state space scans.

Tokens arrive as the model's stacked streams ``[3, ..., D, N]``, modality
on axis 0 in ``MODALITIES`` order, and stay stacked; a per-modality module
is one stacked module, called once on all three. Patch tokens pass through
a short stack of blocks. Each block can apply two stages:

  intra: every modality is scanned by its own SSM after a convolutional
         path, gated by a linear path, then a shared linear merges the
         result back into per-modality residuals.
  inter: per-modality conv and gate paths feed a single shared SSM that
         scans the concatenation of all three modalities as one sequence,
         so state crosses modality boundaries.

Class tokens bypass the blocks: the aggregator takes them and the patch
tokens as two arguments and hands both to the head. The head, for each
modality, stacks [class token, mean of final patch tokens], applies one
shared layer norm over the doubled width, and a per-modality linear back to
the model width, giving one ``[3, ..., D, 1]`` fused vector per sample.
"""

from __future__ import annotations

import numpy as np

from .nn import (BatchNorm, DepthwiseConv1d, LayerNorm, Linear, Module,
                 stack_modules)
from .ssm import SelectiveScan
from .tensor import Tensor, add, concat, moveaxis, mul, reshape, silu, tmean


class ConvGate(Module):
    """Conv path: linear, depthwise conv, batch norm over tokens, silu."""

    def __init__(self, dim: int, kernel: int, rng: np.random.Generator):
        self.proj = Linear(dim, dim, rng)
        self.conv = DepthwiseConv1d(dim, kernel, rng)
        self.norm = BatchNorm(dim)

    def __call__(self, x: Tensor) -> Tensor:
        return silu(self.norm(self.conv(self.proj(x))))


class LinearGate(Module):
    """Gate path: linear then silu."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.proj = Linear(dim, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return silu(self.proj(x))


class AggregationBlock(Module):
    """The enabled stages. A disabled one builds no modules, so it draws no
    rng and holds no params; its attributes keep the class's None."""

    intra_conv = intra_gate = intra_ssm = intra_merge = None
    inter_conv = inter_gate = inter_ssm = inter_merge = None

    def __init__(self, dim: int, d_state: int, dt_rank: int, kernel: int,
                 rng: np.random.Generator, use_intra: bool = True,
                 use_inter: bool = True):
        # one row per stream, drawn in MODALITIES order (n, r, t)
        if use_intra:
            self.intra_conv = stack_modules(
                lambda: ConvGate(dim, kernel, rng), (3,))
            self.intra_gate = stack_modules(lambda: LinearGate(dim, rng), (3,))
            self.intra_ssm = stack_modules(
                lambda: SelectiveScan(dim, d_state, dt_rank, rng), (3,))
            self.intra_merge = Linear(dim, dim, rng)

        if use_inter:
            self.inter_conv = stack_modules(
                lambda: ConvGate(dim, kernel, rng), (3,))
            self.inter_gate = stack_modules(lambda: LinearGate(dim, rng), (3,))
            self.inter_ssm = SelectiveScan(dim, d_state, dt_rank, rng)
            self.inter_merge = Linear(dim, dim, rng)

    def intra(self, fs: Tensor) -> Tensor:
        gated = mul(self.intra_ssm(self.intra_conv(fs)), self.intra_gate(fs))
        return add(self.intra_merge(gated), fs)

    def inter(self, fs: Tensor) -> Tensor:
        # streams [3, ..., D, k] as one [..., D, 3 x k] sequence, n r t
        joined = moveaxis(self.inter_conv(fs), 0, -2)         # [..., D, 3, k]
        scanned = self.inter_ssm(reshape(joined, joined.shape[:-2] + (-1,)))
        back = moveaxis(reshape(scanned, joined.shape), -2, 0)
        return add(self.inter_merge(mul(back, self.inter_gate(fs))), fs)

    def __call__(self, fs: Tensor) -> Tensor:
        if self.intra_ssm is not None:
            fs = self.intra(fs)
        if self.inter_ssm is not None:
            fs = self.inter(fs)
        return fs


class AggregationHead(Module):
    """Fold [class, mean of patches] per modality into one fused vector."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.norm = LayerNorm(2 * dim)
        self.out = stack_modules(lambda: Linear(2 * dim, dim, rng), (3,))

    def __call__(self, cls: Tensor, patches: Tensor) -> Tensor:
        pooled = tmean(patches, axis=-1, keepdims=True)
        return self.out(self.norm(concat([cls, pooled], axis=-2)))


class Aggregator(Module):
    """Block stack plus head. Class tokens skip the blocks entirely."""

    def __init__(self, blocks: list[AggregationBlock], head: AggregationHead):
        self.blocks = blocks
        self.head = head

    def __call__(self, cls: Tensor, patches: Tensor) -> Tensor:
        for block in self.blocks:
            patches = block(patches)
        return self.head(cls, patches)
