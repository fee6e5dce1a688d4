"""Synergistic residual prompts.

Every encoder layer sees, besides its class and patch tokens, three groups
of prompt tokens in a fixed slot order: one group per modality stream. The
group in the stream's own slot is the bank prompt for that layer (refined
from the previous layer's output on layers after the first); the other two
slots carry transferred copies of the sibling modalities' fresh bank
prompts for the current layer. Transfers read bank parameters only, so the
three streams stay mutually independent given the bank.

Slot order and stream order are ``MODALITIES`` everywhere. The bank acts on
all three streams at once: tokens are ``[3, ..., D, N]`` and each slot group
``[3, ..., D, P]``, stream on axis 0; only the per-modality MLPs take one
stream's row. A round trip through assemble/harvest preserves the layout.
"""

from __future__ import annotations

import numpy as np

from .config import SRP_MODES
from .nn import Linear, Module
from .tensor import (Param, Tensor, add, concat, gelu, mul, narrow,
                     register_differentiable, reshape)

MODALITIES = ("n", "r", "t")

register_differentiable("transfer")
register_differentiable("residual_fuse")
register_differentiable("assemble_layer_input")
register_differentiable("harvest")


class PromptMlp(Module):
    """Linear, gelu, linear: both the cross-modal transfer map and the
    refinement map of harvested groups."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.inner = Linear(dim, dim, rng)
        self.outer = Linear(dim, dim, rng)

    def __call__(self, p: Tensor) -> Tensor:
        return self.outer(gelu(self.inner(p)))


class PromptBank(Module):
    """Per-layer prompt parameters plus transfer and refinement maps.

    mode "fusion" refines each stream's prompt from the mean of the three
    harvested groups with one MLP per stream. mode "separation" keeps one
    MLP per (stream, source) pair and averages their outputs, which costs
    three times the refinement parameters for the same shapes.
    """

    def __init__(self, dim: int, n_prompts: int, layers: int,
                 rng: np.random.Generator, mode: str = "fusion",
                 init_std: float = 0.02):
        if mode not in SRP_MODES:
            raise ValueError(f"unknown refinement mode {mode!r}")
        self.dim = dim
        self.n_prompts = n_prompts
        self.layers = layers
        self.mode = mode
        self.prompts = [
            {m: Param(init_std * rng.standard_normal((dim, n_prompts)))
             for m in MODALITIES}
            for _ in range(layers)
        ]
        self.transfers = {
            f"{src}_{dst}": PromptMlp(dim, rng)
            for src in MODALITIES for dst in MODALITIES if src != dst
        }
        if mode == "fusion":
            self.rp = {m: PromptMlp(dim, rng) for m in MODALITIES}
        else:
            self.rp = {f"{m}_{src}": PromptMlp(dim, rng)
                       for m in MODALITIES for src in MODALITIES}

    # -- refinement ---------------------------------------------------

    def residual_fuse(self, layer: int, groups: list[Tensor]) -> list[Tensor]:
        """Refined prompts at ``layer``, one ``[1, ..., D, P]`` row per
        stream, from the three ``[3, ..., D, P]`` groups harvested from the
        last layer, in slot order."""
        base = self.prompts[layer]
        if self.mode == "fusion":
            pooled = mul(add(add(groups[0], groups[1]), groups[2]), 1.0 / 3.0)
            return [add(base[m], self.rp[m](narrow(pooled, 0, i, 1)))
                    for i, m in enumerate(MODALITIES)]
        out = []
        for i, m in enumerate(MODALITIES):
            parts = [self.rp[f"{m}_{src}"](narrow(g, 0, i, 1))
                     for src, g in zip(MODALITIES, groups)]
            pooled = mul(add(add(parts[0], parts[1]), parts[2]), 1.0 / 3.0)
            out.append(add(base[m], pooled))
        return out

    # -- sequence assembly and teardown -------------------------------

    def assemble_layer_input(self, layer: int, f_star: Tensor,
                             harvested_prev: list[Tensor] | None) -> Tensor:
        """Append [slot_n, slot_r, slot_t] to every stream of ``f_star``
        ``[3, ..., D, N]``; bank-only slots broadcast over the batch axes."""
        fresh = self.prompts[layer]
        if layer == 0 or harvested_prev is None:
            lead = (1,) * (f_star.ndim - 2)
            own = [reshape(fresh[m], lead + fresh[m].shape) for m in MODALITIES]
        else:
            own = self.residual_fuse(layer, harvested_prev)
        groups = [concat([own[i] if src == dst
                          else self.transfers[f"{src}_{dst}"](fresh[src])
                          for i, dst in enumerate(MODALITIES)], axis=0)
                  for src in MODALITIES]
        return concat([f_star] + groups, axis=-1)

    def harvest(self, x: Tensor, n_star: int) -> tuple[Tensor, list[Tensor]]:
        """Split a layer output back into tokens and the three slot groups,
        in slot order."""
        expected = n_star + 3 * self.n_prompts
        if x.shape[-1] != expected:
            raise ValueError(
                f"sequence has {x.shape[-1]} columns, expected {expected}")
        p = self.n_prompts
        return narrow(x, -1, 0, n_star), [narrow(x, -1, n_star + i * p, p)
                                          for i in range(len(MODALITIES))]
