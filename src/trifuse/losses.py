"""Identity supervision: smoothed cross entropy and batch-hard triplet.

Features arrive as columns, [feat, batch]. Both loss terms are applied to
the class-token feature and, when aggregation is enabled, to the fused
feature as well, each through its own classifier head:

    total = sum over branches of  lambda_ce * ce + lambda_tri * triplet
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .nn import Linear, Module
from .tensor import (Tensor, add, exp, log, matmul, mul, neg,
                     register_differentiable, relu, reshape, sqrt,
                     sub, swapaxes, tmax, tmean, tmin, tsum, where_mask)

register_differentiable("ce_smooth")
register_differentiable("triplet_batch_hard")
register_differentiable("total_loss")

_FAR = 1e9


def ce_smooth(logits: Tensor, labels: np.ndarray, smoothing: float) -> Tensor:
    """Cross entropy against (1 - eps) * onehot + eps / classes targets."""
    c, b = logits.shape
    if len(labels) != b:
        raise ValueError("one label per column required")
    target = np.full((c, b), smoothing / c)
    target[labels, np.arange(b)] += 1.0 - smoothing

    m = tmax(logits, axis=0)
    z = sub(logits, reshape(m, (1, b)))
    lse = log(tsum(exp(z), axis=0, keepdims=True))
    logp = sub(z, lse)
    return neg(tmean(tsum(mul(Tensor(target), logp), axis=0)))


def pairwise_sqdist(emb: Tensor) -> Tensor:
    """Squared Euclidean distances between columns, [batch, batch]."""
    g = matmul(swapaxes(emb, 0, 1), emb)
    sq = tsum(mul(emb, emb), axis=0)
    b = emb.shape[1]
    d2 = sub(add(reshape(sq, (b, 1)), reshape(sq, (1, b))), mul(g, 2.0))
    return relu(d2)  # clamp tiny negatives from cancellation


def triplet_batch_hard(emb: Tensor, labels: np.ndarray,
                       margin: float) -> Tensor:
    """Batch-hard triplet loss on Euclidean distances.

    For each anchor the hardest positive is the farthest same-id column
    (excluding the anchor itself) and the hardest negative the nearest
    other-id column. Requires at least two ids with two instances each.
    """
    labels = np.asarray(labels)
    b = emb.shape[1]
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
    d_pos = tmax(where_mask(pos_mask, d, Tensor(-far)), axis=1)
    d_neg = tmin(where_mask(neg_mask, d, Tensor(far)), axis=1)
    return tmean(relu(add(sub(d_pos, d_neg), margin)))


class SupervisionHeads(Module):
    """Identity classifiers for the class-token and fused features."""

    def __init__(self, feat_dim: int, num_ids: int, rng: np.random.Generator,
                 with_ma: bool):
        self.cls_head = Linear(feat_dim, num_ids, rng)
        self.ma_head = Linear(feat_dim, num_ids, rng) if with_ma else None


def total_loss(f_cls: Tensor, f_ma: Tensor | None, labels: np.ndarray,
               heads: SupervisionHeads, cfg: RunConfig):
    """Return (scalar total, per-term floats for logging)."""
    branches = [("cls", f_cls, heads.cls_head)]
    if f_ma is not None:
        if heads.ma_head is None:
            raise ValueError("fused feature passed but no fused head")
        branches.append(("ma", f_ma, heads.ma_head))

    total = None
    parts: dict[str, float] = {}
    for name, feat, head in branches:
        ce = ce_smooth(head(feat), labels, cfg.smoothing)
        tri = triplet_batch_hard(feat, labels, cfg.margin)
        term = add(mul(ce, cfg.lambda_ce), mul(tri, cfg.lambda_tri))
        total = term if total is None else add(total, term)
        parts[f"ce_{name}"] = ce.item()
        parts[f"tri_{name}"] = tri.item()
    parts["total"] = total.item()
    return total, parts
