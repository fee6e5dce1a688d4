"""Synergistic residual prompts.

Every encoder layer sees, besides its class and patch tokens, three groups
of prompt tokens in a fixed slot order: one group per modality stream. The
group in the stream's own slot is the bank prompt for that layer (refined
from the previous layer's output on layers after the first); the other two
slots carry transferred copies of the sibling modalities' fresh bank
prompts for the current layer. Transfers read bank parameters only, so the
three streams stay mutually independent given the bank.

Slot order is ``MODALITIES`` everywhere: assembly, harvest, and refinement
all index groups the same way, and a round trip through assemble/harvest
preserves it.
"""

from __future__ import annotations

import numpy as np

from .config import SRP_MODES
from .nn import Linear, Module
from .tensor import (Param, Tensor, add, concat, gelu, mul, narrow,
                     register_differentiable)

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

    def residual_fuse(self, mod: str, layer: int, groups: list[Tensor]) -> Tensor:
        """Refined prompt for ``mod`` at ``layer`` from last layer's groups.

        ``groups`` holds the three harvested prompt groups in slot order.
        """
        base = self.prompts[layer][mod]
        if self.mode == "fusion":
            pooled = mul(add(add(groups[0], groups[1]), groups[2]), 1.0 / 3.0)
            return add(base, self.rp[mod](pooled))
        parts = [self.rp[f"{mod}_{src}"](g)
                 for src, g in zip(MODALITIES, groups)]
        pooled = mul(add(add(parts[0], parts[1]), parts[2]), 1.0 / 3.0)
        return add(base, pooled)

    # -- sequence assembly and teardown -------------------------------

    def assemble_layer_input(self, layer: int, mod: str, f_star: Tensor,
                             harvested_prev: list[Tensor] | None) -> Tensor:
        """Stack [tokens, slot_n, slot_r, slot_t] for one stream.

        ``f_star`` may carry leading batch axes; bank-only slots are
        computed once and broadcast over them.
        """
        slots = []
        for slot in MODALITIES:
            if slot == mod:
                if layer == 0 or harvested_prev is None:
                    slots.append(self.prompts[layer][mod])
                else:
                    slots.append(self.residual_fuse(mod, layer, harvested_prev))
            else:
                slots.append(self.transfers[f"{slot}_{mod}"](self.prompts[layer][slot]))
        return concat([f_star] + slots, axis=-1)

    def harvest(self, mod: str, x: Tensor, n_star: int):
        """Split a layer output back into tokens and slot groups."""
        expected = n_star + 3 * self.n_prompts
        if x.shape[-1] != expected:
            raise ValueError(
                f"sequence has {x.shape[-1]} columns, expected {expected}")
        f_star = narrow(x, -1, 0, n_star)
        groups = {}
        for i, slot in enumerate(MODALITIES):
            groups[slot] = narrow(x, -1, n_star + i * self.n_prompts,
                                  self.n_prompts)
        return f_star, groups
