"""Retrieval evaluation: mean average precision and CMC curve.

Plain numpy throughout; nothing here touches the autodiff tape. Samples
are columns. The protocol is the usual cross-camera one: for each query,
gallery entries sharing both its identity and its camera are excluded,
ranking is by ascending Euclidean distance with a stable sort, and queries
left without a single valid match are skipped.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .dump import write_atomic


def pairwise_sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between columns of a ``[..., f, na]`` and
    b ``[..., f, nb]``, ``[..., na, nb]``, as sq_i + sq_j - 2 a_iᵀb_j clamped
    at 0 against cancellation. The transpose is made contiguous before the
    GEMM, so a stacked call gives each 2-d call's values to the bit."""
    sq_a = (a * a).sum(axis=-2)
    sq_b = (b * b).sum(axis=-2)
    gram = np.ascontiguousarray(np.swapaxes(a, -1, -2)) @ b
    d2 = sq_a[..., :, None] + sq_b[..., None, :] - 2.0 * gram
    return np.maximum(d2, 0.0)


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between columns of a [f, na] and b [f, nb]."""
    return np.sqrt(pairwise_sqdist(a, b))


def average_precision(matches: np.ndarray) -> float:
    """AP of one ranked boolean match list: mean precision at each hit."""
    hits = np.flatnonzero(matches)
    if hits.size == 0:
        raise ValueError("average_precision needs at least one match")
    ranks = hits + 1.0
    precisions = np.arange(1, hits.size + 1) / ranks
    return float(precisions.mean())


@dataclass
class RetrievalResult:
    mean_ap: float
    cmc: np.ndarray          # cmc[k-1] = fraction of queries hit in top k
    num_queries: int         # queries that had a valid match
    num_skipped: int

    def cmc_at(self, k: int) -> float:
        """The fraction of queries hit within the top k; a k deeper than
        the gallery reads the last rank."""
        if k < 1:
            raise ValueError(f"cmc_at needs k >= 1, got k={k}")
        return float(self.cmc[min(k, len(self.cmc)) - 1])


def evaluate(query: np.ndarray, query_ids: np.ndarray, query_cams: np.ndarray,
             gallery: np.ndarray, gallery_ids: np.ndarray,
             gallery_cams: np.ndarray) -> RetrievalResult:
    query_ids = np.asarray(query_ids)
    gallery_ids = np.asarray(gallery_ids)
    query_cams = np.asarray(query_cams)
    gallery_cams = np.asarray(gallery_cams)
    dist = pairwise_distances(query, gallery)

    aps = []
    first_hit = []
    skipped = 0
    for qi in range(dist.shape[0]):
        valid = ~((gallery_ids == query_ids[qi]) &
                  (gallery_cams == query_cams[qi]))
        order = np.argsort(dist[qi, valid], kind="stable")
        matches = (gallery_ids[valid][order] == query_ids[qi])
        if not matches.any():
            skipped += 1
            continue
        aps.append(average_precision(matches))
        first_hit.append(int(np.flatnonzero(matches)[0]))

    if not aps:
        raise ValueError("no query had a valid gallery match")

    depth = gallery.shape[1]
    hist = np.bincount(np.asarray(first_hit), minlength=depth)
    cmc = np.clip(np.cumsum(hist) / len(aps), 0.0, 1.0)
    return RetrievalResult(mean_ap=float(np.mean(aps)), cmc=cmc,
                           num_queries=len(aps), num_skipped=skipped)


def format_table(result: RetrievalResult, topk=(1, 5, 10)) -> str:
    rows = [("metric", "value"),
            ("mAP", f"{result.mean_ap:.4f}")]
    for k in topk:
        rows.append((f"cmc@{k}", f"{result.cmc_at(k):.4f}"))
    rows.append(("queries", str(result.num_queries)))
    rows.append(("skipped", str(result.num_skipped)))
    width = max(len(r[0]) for r in rows)
    lines = [f"{name:<{width}}  {value}" for name, value in rows]
    return "\n".join(lines) + "\n"


def write_csv(path: str, result: RetrievalResult, topk=(1, 5, 10)) -> None:
    """Write the report as CSV through :func:`~trifuse.dump.write_atomic`:
    a failed write leaves the previous report whole."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["metric", "value"])
    writer.writerow(["mAP", f"{result.mean_ap:.17g}"])
    for k in topk:
        writer.writerow([f"cmc@{k}", f"{result.cmc_at(k):.17g}"])
    writer.writerow(["queries", result.num_queries])
    writer.writerow(["skipped", result.num_skipped])
    write_atomic(path, [buf.getvalue().encode()])
