"""Identity supervision: smoothed cross entropy and batch-hard triplet.

Features arrive as columns, [feat, batch], stacked on leading axes: row 0
the class-token feature and, when aggregation is enabled, row 1 the fused
feature. Both loss terms run once on the whole stack, each row through its
own row of one stacked classifier head, and give one value per row:

    total = sum over rows of  lambda_ce * ce + lambda_tri * triplet
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .nn import Linear
from .tensor import (Tensor, add, exp, log, matmul, moveaxis, mul, neg, relu,
                     sqrt, sub, tmax, tmean, tmin, tsum, where_mask)

_FAR = 1e9


def ce_smooth(logits: Tensor, labels: np.ndarray, smoothing: float) -> Tensor:
    """Cross entropy against (1 - eps) * onehot + eps / classes targets,
    averaged over the batch: logits ``[..., C, B]`` give one value per
    leading index."""
    c, b = logits.shape[-2:]
    if len(labels) != b:
        raise ValueError("one label per column required")
    target = np.full((c, b), smoothing / c)
    target[labels, np.arange(b)] += 1.0 - smoothing

    z = sub(logits, tmax(logits, axis=-2, keepdims=True))
    lse = log(tsum(exp(z), axis=-2, keepdims=True))
    logp = sub(z, lse)
    return neg(tmean(tsum(mul(Tensor(target), logp), axis=-2), axis=-1))


def pairwise_sqdist(emb: Tensor) -> Tensor:
    """Squared Euclidean distances between columns: ``[..., F, B]`` gives
    ``[..., B, B]``."""
    g = matmul(moveaxis(emb, -1, -2), emb)
    sq = tsum(mul(emb, emb), axis=-2, keepdims=True)  # [..., 1, B]
    d2 = sub(add(moveaxis(sq, -1, -2), sq), mul(g, 2.0))
    return relu(d2)  # clamp tiny negatives from cancellation


def triplet_batch_hard(emb: Tensor, labels: np.ndarray,
                       margin: float) -> Tensor:
    """Batch-hard triplet loss on Euclidean distances, averaged over the
    batch: embeddings ``[..., F, B]`` give one value per leading index.

    For each anchor the hardest positive is the farthest same-id column
    (excluding the anchor itself) and the hardest negative the nearest
    other-id column. Requires at least two ids with two instances each.
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

    d = sqrt(add(pairwise_sqdist(emb), 1e-24))
    far = np.full((b, b), _FAR)
    d_pos = tmax(where_mask(pos_mask, d, Tensor(-far)), axis=-1)
    d_neg = tmin(where_mask(neg_mask, d, Tensor(far)), axis=-1)
    return tmean(relu(add(sub(d_pos, d_neg), margin)), axis=-1)


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
