"""Loss oracles: values worked out by hand or brute force."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from trifuse.config import RunConfig
from trifuse.losses import (SupervisionHeads, ce_smooth,
                            pairwise_sqdist, total_loss, triplet_batch_hard)
from trifuse.tensor import Tensor


# -- cross entropy ------------------------------------------------------

def test_ce_two_class_hand_value():
    # logits [1, 0], label 0, smoothing 0.1:
    # p = softmax = [e, 1] / (e + 1), target = [0.95, 0.05]
    # loss = -(0.95 log p0 + 0.05 log p1) = 0.3632616875182228
    logits = Tensor(np.array([[1.0], [0.0]]))
    loss = ce_smooth(logits, np.array([0]), 0.1).item()
    assert abs(loss - 0.3632616875182228) < 1e-15


def test_ce_matches_brute_force_batch():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(7, 5)) * 3
    labels = rng.integers(0, 7, size=5)
    eps = 0.1

    p = np.exp(logits - logits.max(axis=0))
    p /= p.sum(axis=0)
    target = np.full_like(logits, eps / 7)
    target[labels, np.arange(5)] += 1 - eps
    want = -(target * np.log(p)).sum(axis=0).mean()

    got = ce_smooth(Tensor(logits), labels, eps).item()
    assert abs(got - want) < 1e-12


def test_ce_invariant_to_logit_shift():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1])
    a = ce_smooth(Tensor(logits), labels, 0.1).item()
    b = ce_smooth(Tensor(logits + 137.0), labels, 0.1).item()
    assert abs(a - b) < 1e-9


def test_ce_extreme_logits_stay_finite():
    logits = Tensor(np.array([[800.0, -800.0], [-800.0, 800.0]]))
    loss = ce_smooth(logits, np.array([0, 1]), 0.1).item()
    assert np.isfinite(loss)


def test_ce_label_count_validation():
    with pytest.raises(ValueError):
        ce_smooth(Tensor(np.zeros((3, 2))), np.array([0]), 0.1)


# -- distances ----------------------------------------------------------

def test_pairwise_sqdist_matches_scipy():
    rng = np.random.default_rng(2)
    emb = rng.normal(size=(6, 9))
    want = cdist(emb.T, emb.T, "sqeuclidean")
    assert np.allclose(pairwise_sqdist(Tensor(emb)).data, want, atol=1e-10)


# -- triplet ------------------------------------------------------------

_LINE = np.array([[0.0, 0.1, 1.0, 1.1]])
_AABB = np.array([0, 0, 1, 1])


def test_triplet_line_fixture_zero_at_small_margin():
    loss = triplet_batch_hard(Tensor(_LINE), _AABB, 0.3).item()
    assert loss == 0.0


def test_triplet_line_fixture_active_at_large_margin():
    # per anchor: gap + 1.0 = [0.1, 0.2, 0.2, 0.1], mean 0.15
    loss = triplet_batch_hard(Tensor(_LINE), _AABB, 1.0).item()
    assert abs(loss - 0.15) < 1e-12


def _brute_force(emb, labels, margin):
    d = cdist(emb.T, emb.T)
    b = emb.shape[1]
    vals = []
    for i in range(b):
        pos = [d[i, j] for j in range(b) if labels[j] == labels[i] and j != i]
        neg = [d[i, j] for j in range(b) if labels[j] != labels[i]]
        gap = max(pos) - min(neg) + margin
        vals.append(max(0.0, gap))
    return float(np.mean(vals))


def test_triplet_matches_brute_force():
    rng = np.random.default_rng(3)
    for trial in range(10):
        labels = np.repeat(np.arange(4), 3)
        emb = rng.normal(size=(5, len(labels)))
        got = triplet_batch_hard(Tensor(emb), labels, 0.3).item()
        want = _brute_force(emb, labels, 0.3)
        assert abs(got - want) < 1e-9


def test_triplet_translation_invariance():
    rng = np.random.default_rng(4)
    labels = np.array([0, 0, 1, 1, 2, 2])
    emb = rng.normal(size=(4, 6))
    shift = rng.normal(size=(4, 1)) * 10
    a = triplet_batch_hard(Tensor(emb), labels, 0.5).item()
    b = triplet_batch_hard(Tensor(emb + shift), labels, 0.5).item()
    assert abs(a - b) < 1e-9


def test_triplet_scaling_equivariance_at_zero_margin():
    rng = np.random.default_rng(5)
    labels = np.array([0, 0, 1, 1])
    emb = rng.normal(size=(3, 4))
    base = triplet_batch_hard(Tensor(emb), labels, 0.0).item()
    scaled = triplet_batch_hard(Tensor(2.5 * emb), labels, 0.0).item()
    assert abs(scaled - 2.5 * base) < 1e-9


def test_triplet_batch_composition_validation():
    emb = Tensor(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        triplet_batch_hard(emb, np.array([0, 0, 0, 0]), 0.3)  # no negatives
    with pytest.raises(ValueError):
        triplet_batch_hard(emb, np.array([0, 1, 2, 3]), 0.3)  # no positives
    with pytest.raises(ValueError):
        triplet_batch_hard(emb, np.array([0, 0]), 0.3)  # label count


def test_triplet_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    labels = np.array([0, 0, 1, 1])
    base = rng.normal(size=(3, 4))

    emb = Tensor(base.copy(), requires_grad=True)
    triplet_batch_hard(emb, labels, 5.0).backward()

    h = 1e-6
    for i in range(3):
        for j in range(4):
            up, dn = base.copy(), base.copy()
            up[i, j] += h
            dn[i, j] -= h
            fd = (triplet_batch_hard(Tensor(up), labels, 5.0).item()
                  - triplet_batch_hard(Tensor(dn), labels, 5.0).item()) / (2 * h)
            assert abs(emb.grad[i, j] - fd) < 1e-5


# -- combined objective -------------------------------------------------

def test_total_loss_composition_and_parts():
    rng = np.random.default_rng(7)
    labels = np.array([0, 0, 1, 1])
    f_cls = Tensor(rng.normal(size=(6, 4)))
    f_ma = Tensor(rng.normal(size=(6, 4)))
    heads = SupervisionHeads(6, 3, rng, with_ma=True)
    cfg = RunConfig(lambda_ce=0.25, lambda_tri=1.0, smoothing=0.1, margin=0.3)

    total, parts = total_loss(f_cls, f_ma, labels, heads, cfg)
    want = (0.25 * parts["ce_cls"] + parts["tri_cls"]
            + 0.25 * parts["ce_ma"] + parts["tri_ma"])
    assert abs(total.item() - want) < 1e-12
    assert abs(parts["total"] - total.item()) < 1e-15

    only_cls, parts_cls = total_loss(f_cls, None, labels, heads, cfg)
    assert set(parts_cls) == {"ce_cls", "tri_cls", "total"}
    assert abs(only_cls.item()
               - (0.25 * parts["ce_cls"] + parts["tri_cls"])) < 1e-12


def test_total_loss_requires_matching_head():
    rng = np.random.default_rng(8)
    heads = SupervisionHeads(4, 2, rng, with_ma=False)
    f = Tensor(rng.normal(size=(4, 4)))
    with pytest.raises(ValueError):
        total_loss(f, f, np.array([0, 0, 1, 1]), heads, RunConfig())
