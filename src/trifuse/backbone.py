"""Frozen transformer encoder shared by all modality streams.

One set of weights serves every modality; streams differ only in their
inputs and whatever prompt or adapter state the caller threads through the
layer loop. The layer keeps the usual pre-norm arrangement

    f   = attn(ln1(x)) + x
    out = ffn(ln2(f)) + f [+ adapter(f)]

with the optional adapter branch reading f itself, the post-attention
residual, not its normed copy.

The backbone does not orchestrate prompts; it exposes ``tokens`` for the
patch embedding front end and a list of layers for the caller to iterate,
so sequence surgery between layers stays out of this module. Sizes come
from the encoder fields of :class:`~trifuse.config.RunConfig`.
"""

from __future__ import annotations

import numpy as np

from .adapter import ParallelAdapter, combine_branches
from .config import RunConfig
from .nn import (FeedForward, LayerNorm, Linear, Module,
                 MultiHeadSelfAttention)
from .tensor import Param, Tensor, add, concat

TOKEN_STD = 0.02


class PatchEmbed(Module):
    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        self.patch = cfg.patch
        self.channels = cfg.channels
        self.proj = Linear(cfg.channels * cfg.patch ** 2, cfg.embed_dim, rng)

    def __call__(self, images: np.ndarray) -> Tensor:
        """Images ``[..., C, H, W]`` to patch tokens ``[..., D, N]``."""
        *lead, c, h, w = images.shape
        p = self.patch
        if c != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {c}")
        hp, wp = h // p, w // p
        # [..., c, hp, p, wp, p] -> [..., c, p, p, hp, wp]: one column per patch
        cols = np.moveaxis(images.reshape(*lead, c, hp, p, wp, p),
                           (-4, -2), (-2, -1))
        return self.proj(Tensor(cols.reshape(*lead, c * p * p, hp * wp)))


class EncoderLayer(Module):
    def __init__(self, dim: int, heads: int, rng: np.random.Generator,
                 ffn_ratio: int = 4):
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, heads, rng)
        self.norm2 = LayerNorm(dim)
        self.ffn = FeedForward(dim, rng, ratio=ffn_ratio)

    def __call__(self, x: Tensor,
                 adapter: ParallelAdapter | None = None) -> Tensor:
        f = add(self.attn(self.norm1(x)), x)
        ffn_out = self.ffn(self.norm2(f))
        if adapter is None:
            return add(ffn_out, f)
        return combine_branches(ffn_out, f, adapter(f))


class VisionBackbone(Module):
    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        n_patches = (cfg.image_h // cfg.patch) * (cfg.image_w // cfg.patch)
        self.embed = PatchEmbed(cfg, rng)
        self.cls = Param(TOKEN_STD * rng.standard_normal((cfg.embed_dim, 1)))
        self.pos = Param(TOKEN_STD * rng.standard_normal(
            (cfg.embed_dim, 1 + n_patches)))
        self.blocks = [
            EncoderLayer(cfg.embed_dim, cfg.heads, rng,
                         ffn_ratio=cfg.ffn_ratio)
            for _ in range(cfg.layers)
        ]
        self.norm = LayerNorm(cfg.embed_dim)

    def tokens(self, images: np.ndarray) -> Tensor:
        """Class token plus patch embeddings, with positions added."""
        patches = self.embed(images)
        return add(concat([self.cls, patches], axis=-1), self.pos)
