"""Identity supervision: smoothed cross entropy and batch-hard triplet.

Features arrive as columns, [feat, batch], stacked on leading axes: row 0
the class-token feature and, when aggregation is enabled, row 1 the fused
feature. Both loss terms run once on the whole stack, each row through its
own row of one stacked classifier head, and give one value per row:

    total = sum over rows of  lambda_ce * ce + lambda_tri * triplet

Each term is one tape node with a hand-written VJP, registered for the
gradient-check suite as ``nn.py`` registers ``batch_norm``.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .nn import Linear
from .retrieval import pairwise_sqdist
from .tensor import Tensor, add, mul, register_differentiable, tsum

register_differentiable("ce_smooth")
register_differentiable("triplet_batch_hard")


def ce_smooth(logits: Tensor, labels: np.ndarray, smoothing: float) -> Tensor:
    """Cross entropy against (1 - eps) * onehot + eps / classes targets,
    averaged over the batch: logits ``[..., C, B]`` give one value per
    leading index. The VJP is (softmax - target) · g / B per column."""
    c, b = logits.shape[-2:]
    if len(labels) != b:
        raise ValueError("one label per column required")
    target = np.full((c, b), smoothing / c)
    target[labels, np.arange(b)] += 1.0 - smoothing
    target = target.astype(logits.dtype, copy=False)

    z = logits.data - logits.data.max(axis=-2, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=-2, keepdims=True)
    logp = z - np.log(s)
    out = -((target * logp).sum(axis=-2).mean(axis=-1))

    def vjp(g):
        return ((e / s - target) * g[..., None, None] / b,)

    return Tensor._from_op(np.asarray(out), (logits,), vjp, "ce_smooth")


def triplet_batch_hard(emb: Tensor, labels: np.ndarray,
                       margin: float) -> Tensor:
    """Batch-hard triplet loss on Euclidean distances, averaged over the
    batch: embeddings ``[..., F, B]`` give one value per leading index.

    For each anchor the hardest positive is the farthest same-id column
    (excluding the anchor itself) and the hardest negative the nearest
    other-id column, a tie going to the first such column. Requires at
    least two ids with two instances each. The VJP sends ±g/B, for each
    anchor whose hinge is active, through d = sqrt(d² + 1e-24) at the two
    picked entries only, and then through d² = sq_i + sq_j - 2 x_iᵀx_j; an
    entry whose d² was clamped to 0 passes nothing.
    """
    labels = np.asarray(labels)
    b = emb.shape[-1]
    if len(labels) != b:
        raise ValueError("one label per column required")
    same = labels[:, None] == labels[None, :]
    pos_mask = same & ~np.eye(b, dtype=bool)
    neg_mask = ~same
    if not pos_mask.any(axis=1).all():
        raise ValueError("every anchor needs a positive; use >=2 instances per id")
    if not neg_mask.any(axis=1).all():
        raise ValueError("every anchor needs a negative; use >=2 ids")

    x = emb.data
    d2 = pairwise_sqdist(x, x)
    d = np.sqrt(d2 + 1e-24)
    pos = np.argmax(np.where(pos_mask, d, -np.inf), axis=-1)[..., None]
    neg = np.argmin(np.where(neg_mask, d, np.inf), axis=-1)[..., None]
    d_pos = np.take_along_axis(d, pos, axis=-1)
    d_neg = np.take_along_axis(d, neg, axis=-1)
    hinge = d_pos - d_neg + margin
    out = np.maximum(hinge, 0.0)[..., 0].mean(axis=-1)

    def vjp(g):
        live = (g[..., None, None] / b) * (hinge > 0)
        gd = np.zeros_like(d2)
        for idx, sign, dist in ((pos, 1.0, d_pos), (neg, -1.0, d_neg)):
            nonzero = np.take_along_axis(d2, idx, axis=-1) > 0
            np.put_along_axis(gd, idx, sign * live * 0.5 / dist * nonzero,
                              axis=-1)
        s = gd.sum(axis=-1) + gd.sum(axis=-2)
        gd = gd + np.swapaxes(gd, -1, -2)
        return (2.0 * (x * s[..., None, :] - x @ gd),)

    return Tensor._from_op(np.asarray(out), (emb,), vjp, "triplet_batch_hard")


def total_loss(feats: Tensor, labels: np.ndarray, heads: Linear,
               cfg: RunConfig):
    """Return (scalar total, per-term floats for logging) for features
    ``[F, 3D, B]`` and a head stacked ``[F]``; row 0 logs as ``ce_cls`` and
    ``tri_cls``, row 1 as ``ce_ma`` and ``tri_ma``."""
    if heads.weight.shape[0] != feats.shape[0]:
        raise ValueError(f"heads {heads.weight.shape} for "
                         f"{feats.shape[0]} feature rows")
    ce = ce_smooth(heads(feats), labels, cfg.smoothing)
    tri = triplet_batch_hard(feats, labels, cfg.margin)
    total = tsum(add(mul(ce, cfg.lambda_ce), mul(tri, cfg.lambda_tri)))
    parts = {f"{term}_{name}": float(v)
             for term, t in (("ce", ce), ("tri", tri))
             for name, v in zip(("cls", "ma"), t.data)}
    parts["total"] = total.item()
    return total, parts
