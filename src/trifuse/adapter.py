"""Parallel feed-forward adapter.

A bottleneck MLP that runs beside each frozen encoder layer's feed forward
block and adds its output into the residual stream. The branch reads the
post-attention residual (not its layer-normed copy), so the layer output
is

    out = ffn(ln(f)) + f + adapter(f)
"""

from __future__ import annotations

from .nn import Mlp


# a class of its own, so that perfbench's adapter span times only this MLP
class ParallelAdapter(Mlp):
    """``Mlp(dim, hidden, rng)``: ``hidden`` is the bottleneck width."""
