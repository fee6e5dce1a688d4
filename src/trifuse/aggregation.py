"""Cross-modal token aggregation with state space scans.

Patch tokens from the three modality streams pass through a short stack of
blocks. Each block can apply two stages:

  intra: every modality is scanned by its own SSM after a convolutional
         path, gated by a linear path, then a shared linear merges the
         concatenated result back into per-modality residuals.
  inter: per-modality conv and gate paths feed a single shared SSM that
         scans the concatenation of all three modalities as one sequence,
         so state crosses modality boundaries.

Class tokens bypass the blocks. The head, for each modality, stacks
[class token, mean of final patch tokens], applies one shared layer norm
over the doubled width, and a per-modality linear back to the model width.
The three results concatenate into one fused vector.
"""

from __future__ import annotations

import numpy as np

from .nn import BatchNorm, DepthwiseConv1d, LayerNorm, Linear, Module
from .prompts import MODALITIES
from .ssm import SelectiveScan
from .tensor import (Tensor, add, concat, mul, narrow, register_differentiable,
                     reshape, silu, tmean)

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


class AggregationBlock(Module):
    def __init__(self, dim: int, d_state: int, dt_rank: int, kernel: int,
                 rng: np.random.Generator, use_intra: bool = True,
                 use_inter: bool = True, chunk: int = 128):
        self.dim = dim
        self.use_intra = use_intra
        self.use_inter = use_inter

        self.intra_conv = {m: ConvGate(dim, kernel, rng) for m in MODALITIES}
        self.intra_gate = {m: LinearGate(dim, rng) for m in MODALITIES}
        self.intra_ssm = {m: SelectiveScan(dim, d_state, dt_rank, rng,
                                           chunk=chunk)
                          for m in MODALITIES}
        self.intra_merge = Linear(dim, dim, rng)

        self.inter_conv = {m: ConvGate(dim, kernel, rng) for m in MODALITIES}
        self.inter_gate = {m: LinearGate(dim, rng) for m in MODALITIES}
        self.inter_ssm = SelectiveScan(dim, d_state, dt_rank, rng, chunk=chunk)
        self.inter_merge = Linear(dim, dim, rng)

    def intra(self, fs: dict[str, Tensor]) -> dict[str, Tensor]:
        gated = []
        for m in MODALITIES:
            scanned = self.intra_ssm[m](self.intra_conv[m](fs[m]))
            gated.append(mul(scanned, self.intra_gate[m](fs[m])))
        merged = self.intra_merge(concat(gated, axis=-1))
        return self._residual_split(merged, fs)

    def inter(self, fs: dict[str, Tensor]) -> dict[str, Tensor]:
        conv = concat([self.inter_conv[m](fs[m]) for m in MODALITIES], axis=-1)
        gate = concat([self.inter_gate[m](fs[m]) for m in MODALITIES], axis=-1)
        merged = self.inter_merge(mul(self.inter_ssm(conv), gate))
        return self._residual_split(merged, fs)

    def _residual_split(self, merged: Tensor,
                        fs: dict[str, Tensor]) -> dict[str, Tensor]:
        out = {}
        offset = 0
        for m in MODALITIES:
            n = fs[m].shape[-1]
            out[m] = add(narrow(merged, -1, offset, n), fs[m])
            offset += n
        return out

    def __call__(self, fs: dict[str, Tensor]) -> dict[str, Tensor]:
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

    def __call__(self, tokens: dict[str, Tensor]) -> Tensor:
        pieces = []
        for m in MODALITIES:
            t = tokens[m]
            cls = narrow(t, -1, 0, 1)
            patches = narrow(t, -1, 1, t.shape[-1] - 1)
            pooled = tmean(patches, axis=-1, keepdims=True)
            v = self.norm(concat([cls, pooled], axis=-2))
            pieces.append(self.out[m](v))
        return concat(pieces, axis=-2)


class Aggregator(Module):
    """Block stack plus head. Class tokens skip the blocks entirely."""

    def __init__(self, blocks: list[AggregationBlock], head: AggregationHead):
        self.blocks = blocks
        self.head = head

    def __call__(self, tokens: dict[str, Tensor]) -> Tensor:
        cls = {m: narrow(tokens[m], -1, 0, 1) for m in MODALITIES}
        fs = {m: narrow(tokens[m], -1, 1, tokens[m].shape[-1] - 1)
              for m in MODALITIES}
        for block in self.blocks:
            fs = block(fs)
        return self.head({m: concat([cls[m], fs[m]], axis=-1)
                          for m in MODALITIES})
