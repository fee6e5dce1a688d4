"""Cross-modal token aggregation with state space scans.

Tokens arrive as the model's stacked streams ``[3, ..., D, N]``, modality
on axis 0 in ``MODALITIES`` order, and stay stacked; a per-modality module
takes its own ``[1, ..., D, N]`` row. Patch tokens pass through a short
stack of blocks. Each block can apply two stages:

  intra: every modality is scanned by its own SSM after a convolutional
         path, gated by a linear path, then a shared linear merges the
         result back into per-modality residuals.
  inter: per-modality conv and gate paths feed a single shared SSM that
         scans the concatenation of all three modalities as one sequence,
         so state crosses modality boundaries.

Class tokens bypass the blocks. The head, for each modality, stacks
[class token, mean of final patch tokens], applies one shared layer norm
over the doubled width, and a per-modality linear back to the model width,
giving one ``[3, ..., D, 1]`` fused vector per sample.
"""

from __future__ import annotations

import numpy as np

from .nn import BatchNorm, DepthwiseConv1d, LayerNorm, Linear, Module
from .prompts import MODALITIES
from .ssm import SelectiveScan
from .tensor import (Tensor, add, concat, mul, narrow, register_differentiable,
                     reshape, silu, swapaxes, tmean)

register_differentiable("theta")
register_differentiable("psi")
register_differentiable("intra_ma")
register_differentiable("inter_ma")
register_differentiable("ma_stack")


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


def _rows(x: Tensor) -> list[Tensor]:
    """The ``[1, ..., D, N]`` row of each stream, in ``MODALITIES`` order."""
    return [narrow(x, 0, i, 1) for i in range(len(MODALITIES))]


class AggregationBlock(Module):
    def __init__(self, dim: int, d_state: int, dt_rank: int, kernel: int,
                 rng: np.random.Generator, use_intra: bool = True,
                 use_inter: bool = True):
        self.dim = dim
        self.use_intra = use_intra
        self.use_inter = use_inter

        self.intra_conv = {m: ConvGate(dim, kernel, rng) for m in MODALITIES}
        self.intra_gate = {m: LinearGate(dim, rng) for m in MODALITIES}
        self.intra_ssm = {m: SelectiveScan(dim, d_state, dt_rank, rng)
                          for m in MODALITIES}
        self.intra_merge = Linear(dim, dim, rng)

        self.inter_conv = {m: ConvGate(dim, kernel, rng) for m in MODALITIES}
        self.inter_gate = {m: LinearGate(dim, rng) for m in MODALITIES}
        self.inter_ssm = SelectiveScan(dim, d_state, dt_rank, rng)
        self.inter_merge = Linear(dim, dim, rng)

    def intra(self, fs: Tensor) -> Tensor:
        gated = [mul(self.intra_ssm[m](self.intra_conv[m](f)),
                     self.intra_gate[m](f))
                 for m, f in zip(MODALITIES, _rows(fs))]
        return add(self.intra_merge(concat(gated, axis=0)), fs)

    def inter(self, fs: Tensor) -> Tensor:
        rows = list(zip(MODALITIES, _rows(fs)))
        conv = concat([self.inter_conv[m](f) for m, f in rows], axis=-1)
        gate = concat([self.inter_gate[m](f) for m, f in rows], axis=-1)
        merged = self.inter_merge(mul(self.inter_ssm(conv), gate))
        # [1, ..., D, 3k] back to one row per modality, [3, ..., D, k]
        split = reshape(merged, merged.shape[:-1] + (3, fs.shape[-1]))
        return add(reshape(swapaxes(split, 0, -2), fs.shape), fs)

    def __call__(self, fs: Tensor) -> Tensor:
        if self.use_intra:
            fs = self.intra(fs)
        if self.use_inter:
            fs = self.inter(fs)
        return fs


class AggregationHead(Module):
    """Fold [class, mean of patches] per modality into one fused vector."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.dim = dim
        self.norm = LayerNorm(2 * dim)
        self.out = {m: Linear(2 * dim, dim, rng) for m in MODALITIES}

    def __call__(self, tokens: Tensor) -> Tensor:
        cls = narrow(tokens, -1, 0, 1)
        patches = narrow(tokens, -1, 1, tokens.shape[-1] - 1)
        pooled = tmean(patches, axis=-1, keepdims=True)
        v = self.norm(concat([cls, pooled], axis=-2))
        rows = zip(MODALITIES, _rows(v))
        return concat([self.out[m](row) for m, row in rows], axis=0)


class Aggregator(Module):
    """Block stack plus head. Class tokens skip the blocks entirely."""

    def __init__(self, blocks: list[AggregationBlock], head: AggregationHead):
        self.blocks = blocks
        self.head = head

    def __call__(self, tokens: Tensor) -> Tensor:
        fs = narrow(tokens, -1, 1, tokens.shape[-1] - 1)
        for block in self.blocks:
            fs = block(fs)
        return self.head(concat([narrow(tokens, -1, 0, 1), fs], axis=-1))
