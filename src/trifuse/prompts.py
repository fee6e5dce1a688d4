"""Synergistic residual prompts.

Every encoder layer sees, besides its class and patch tokens, three groups
of prompt tokens in a fixed slot order: one group per modality stream. The
group in the stream's own slot is the bank prompt for that layer (refined
from the previous layer's output on layers after the first); the other two
slots carry transferred copies of the sibling modalities' fresh bank
prompts for the current layer. Transfers read bank parameters only, so the
three streams stay mutually independent given the bank.

Slot order and stream order are ``MODALITIES`` everywhere. The bank acts on
all three streams at once: tokens are ``[3, ..., D, N]`` and a layer's
prompt slot columns ``[3, ..., D, 3P]``, stream on axis 0. Its prompts
and maps are stacked the same way (``stack_modules``), so the transfers
and the refinement are one call each per layer. A round trip through
assemble/harvest preserves the layout.
"""

from __future__ import annotations

import numpy as np

from .config import SRP_MODES
from .nn import Mlp, Module, stack_modules
from .tensor import (Param, Tensor, add, concat, matmul, mul, narrow,
                     register_differentiable, reshape, stack_shape, swapaxes,
                     tsum, where_mask)

MODALITIES = ("n", "r", "t")

register_differentiable("transfer")
register_differentiable("residual_fuse")
register_differentiable("assemble_layer_input")
register_differentiable("harvest")


#: (src, dst) of the six transfers, source-major as the bank stacks them
_PAIRS = [(src, dst) for src in range(3) for dst in range(3) if src != dst]
#: [9, 6] 0/1 map from the transfers to the rows (dst, src) of the 3 x 3
#: slot grid; the rows where dst == src stay zero
_SLOT_GRID = np.eye(9)[[3 * dst + src for src, dst in _PAIRS]].T


class PromptBank(Module):
    """Per-layer prompts ``[3, D, P]`` plus transfer maps stacked ``[3, 2]``
    (row (src, j) carries stream src's prompt to its j-th sibling).

    mode "fusion" refines each stream's prompt from the mean of its three
    harvested groups with one MLP per stream (``rp`` is ``[3]``). mode
    "separation" keeps one MLP per (stream, source slot) pair (``[3, 3]``)
    and averages their outputs, three times the refinement parameters.
    """

    def __init__(self, dim: int, n_prompts: int, layers: int,
                 rng: np.random.Generator, mode: str = "fusion",
                 init_std: float = 0.02):
        if mode not in SRP_MODES:
            raise ValueError(f"unknown refinement mode {mode!r}")
        self.n_prompts = n_prompts
        self.mode = mode
        self.prompts = [
            Param(np.stack([init_std * rng.standard_normal((dim, n_prompts))
                            for _ in MODALITIES]))
            for _ in range(layers)
        ]
        self.transfers = stack_modules(lambda: Mlp(dim, dim, rng), (3, 2))
        self.rp = stack_modules(lambda: Mlp(dim, dim, rng),
                                (3,) if mode == "fusion" else (3, 3))

    # -- refinement ---------------------------------------------------

    def residual_fuse(self, layer: int, harvested: Tensor) -> Tensor:
        """Refined prompts at ``layer``, ``[3, ..., D, P]``, from the slot
        columns ``[3, ..., D, 3P]`` harvested from the last layer."""
        by_slot = reshape(harvested, harvested.shape[:-1] + (3, self.n_prompts))
        if self.mode == "fusion":
            refined = self.rp(mul(tsum(by_slot, axis=-2), 1.0 / 3.0))
        else:
            # [3, ..., 3 slots, D, P] meets the [3, 3] stack of maps
            parts = self.rp(swapaxes(by_slot, -3, -2))
            refined = mul(tsum(parts, axis=-3), 1.0 / 3.0)
        base = self.prompts[layer]
        return add(reshape(base, stack_shape(base.shape, harvested.ndim)),
                   refined)

    # -- sequence assembly and teardown -------------------------------

    def assemble_layer_input(self, layer: int, f_star: Tensor,
                             harvested_prev: Tensor | None) -> Tensor:
        """Append [slot_n, slot_r, slot_t] to every stream of ``f_star``
        ``[3, ..., D, N]``; bank-only slots broadcast over the batch axes."""
        fresh = self.prompts[layer]
        nd = f_star.ndim
        if layer == 0 or harvested_prev is None:
            own = reshape(fresh, stack_shape(fresh.shape, nd))
        else:
            own = self.residual_fuse(layer, harvested_prev)
        d, p = fresh.shape[1:]
        # the 3 x 3 slot grid, stream (dst) by slot (src): the transfers off
        # the diagonal, placed by one 0/1 matmul, each stream's own prompt on
        # it, picked by a mask
        moved = self.transfers(reshape(fresh, (3, 1, d, p)))
        grid = matmul(Tensor(_SLOT_GRID), reshape(moved, (6, d * p)))
        grid = swapaxes(reshape(grid, (3, 3, d, p)), 1, 2)     # [dst, D, src, P]
        own_slot = np.eye(3, dtype=bool).reshape(stack_shape((3, 1, 3, 1), nd + 1))
        slots = where_mask(own_slot, reshape(own, own.shape[:-1] + (1, p)),
                           reshape(grid, stack_shape(grid.shape, nd + 1)))
        return concat([f_star, reshape(slots, slots.shape[:-2] + (3 * p,))],
                      axis=-1)

    def harvest(self, x: Tensor, n_star: int) -> tuple[Tensor, Tensor]:
        """Split a layer output back into its tokens ``[3, ..., D, n_star]``
        and its slot columns ``[3, ..., D, 3P]``, in slot order."""
        expected = n_star + 3 * self.n_prompts
        if x.shape[-1] != expected:
            raise ValueError(
                f"sequence has {x.shape[-1]} columns, expected {expected}")
        return (narrow(x, -1, 0, n_star),
                narrow(x, -1, n_star, 3 * self.n_prompts))
