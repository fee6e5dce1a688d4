"""Loss oracles: values worked out by hand or brute force."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from trifuse.config import RunConfig
from trifuse.losses import ce_smooth, total_loss, triplet_batch_hard
from trifuse.nn import Linear, stack_modules
from trifuse.retrieval import pairwise_sqdist
from trifuse.tensor import Tensor, set_default_dtype, tsum


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


def test_ce_gradient_is_softmax_minus_target():
    # one node whose VJP is (softmax - target) · g / B
    logits = Tensor(np.array([[2.0, -1.0], [0.5, 0.0], [-0.5, 3.0]]),
                    requires_grad=True)
    loss = ce_smooth(logits, np.array([0, 2]), 0.3)
    assert loss._parents == (logits,)
    loss.backward(np.asarray(0.7))
    p = np.exp(logits.data) / np.exp(logits.data).sum(axis=0)
    target = np.array([[0.8, 0.1], [0.1, 0.1], [0.1, 0.8]])
    assert np.abs(logits.grad - (p - target) * 0.7 / 2).max() < 1e-15


def test_ce_label_count_validation():
    with pytest.raises(ValueError):
        ce_smooth(Tensor(np.zeros((3, 2))), np.array([0]), 0.1)


# -- distances ----------------------------------------------------------

def test_pairwise_sqdist_matches_scipy():
    rng = np.random.default_rng(2)
    emb = rng.normal(size=(6, 9))
    want = cdist(emb.T, emb.T, "sqeuclidean")
    assert np.allclose(pairwise_sqdist(emb, emb), want, atol=1e-10)
    # a stack of inputs gives each 2-d call's distances to the bit
    stack = rng.normal(size=(2, 6, 9))
    both = pairwise_sqdist(stack, stack)
    for i in range(2):
        assert np.array_equal(both[i], pairwise_sqdist(stack[i], stack[i]))


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


def test_triplet_tie_sends_gradient_to_the_first_negative():
    # columns 2 and 3 are negatives of anchor 0 at one distance; only
    # anchor 0's hinge is active, so column 3 gets no gradient at all
    emb = Tensor(np.array([[0.0, -2.0, 1.0, 1.0],
                           [0.0, 0.0, 0.05, -0.05]]), requires_grad=True)
    loss = triplet_batch_hard(emb, _AABB, 0.5)
    assert loss._parents == (emb,)
    d02 = np.sqrt(1.0025)
    assert abs(loss.item() - (2.0 - d02 + 0.5) / 4) < 1e-12
    loss.backward()
    assert np.array_equal(emb.grad[:, 3], [0.0, 0.0])
    assert np.allclose(emb.grad[:, 2], -emb.data[:, 2] / d02 / 4)


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


# -- leading axes ---------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("loss,width", [
    (lambda x, labels: ce_smooth(x, labels, 0.1), 5),
    (lambda x, labels: triplet_batch_hard(x, labels, 0.3), 3),
], ids=["ce_smooth", "triplet_batch_hard"])
def test_batched_rows_are_bitwise_the_2d_calls(loss, width, dtype):
    # row i of one call on [2, ..., B] and its gradient are the call on
    # row i alone, to the bit
    labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    data = np.random.default_rng(9).normal(size=(2, width, 8)) * 3
    set_default_dtype(dtype)
    try:
        rows = Tensor(data, requires_grad=True)
        batched = loss(rows, labels)
        tsum(batched).backward()
        assert batched.shape == (2,) and batched.data.dtype == dtype
        for i in range(2):
            one = Tensor(data[i], requires_grad=True)
            alone = loss(one, labels)
            alone.backward()
            assert np.array_equal(batched.data[i], alone.data)
            assert np.array_equal(rows.grad[i], one.grad)
    finally:
        set_default_dtype(np.float64)


# -- combined objective -------------------------------------------------

def _heads(rows, feat_dim, num_ids, rng):
    return stack_modules(lambda: Linear(feat_dim, num_ids, rng), (rows,))


def test_total_loss_composition_and_parts():
    rng = np.random.default_rng(7)
    labels = np.array([0, 0, 1, 1])
    feats = Tensor(rng.normal(size=(2, 6, 4)))
    heads = _heads(2, 6, 3, rng)
    cfg = RunConfig(lambda_ce=0.25, lambda_tri=1.0, smoothing=0.1, margin=0.3)

    total, parts = total_loss(feats, labels, heads, cfg)
    want = (0.25 * parts["ce_cls"] + parts["tri_cls"]
            + 0.25 * parts["ce_ma"] + parts["tri_ma"])
    assert abs(total.item() - want) < 1e-12
    assert abs(parts["total"] - total.item()) < 1e-15
    # each row is its feature through its own head
    for i, name in enumerate(("cls", "ma")):
        logits = Tensor(heads.weight.data[i] @ feats.data[i]
                        + heads.bias.data[i][:, None])
        assert parts[f"ce_{name}"] == ce_smooth(logits, labels, 0.1).item()
        assert parts[f"tri_{name}"] == triplet_batch_hard(
            Tensor(feats.data[i]), labels, 0.3).item()

    only_cls = _heads(1, 6, 3, np.random.default_rng(7))
    only_cls.weight.data[0] = heads.weight.data[0]
    cls_total, parts_cls = total_loss(Tensor(feats.data[:1]), labels,
                                      only_cls, cfg)
    assert set(parts_cls) == {"ce_cls", "tri_cls", "total"}
    assert abs(cls_total.item()
               - (0.25 * parts["ce_cls"] + parts["tri_cls"])) < 1e-12


def test_total_loss_records_seven_nodes(monkeypatch):
    ops = []
    from_op = Tensor._from_op.__func__

    def recording(cls, data, parents, vjp, op):
        ops.append(op)
        return from_op(cls, data, parents, vjp, op)

    rng = np.random.default_rng(10)
    feats = Tensor(rng.normal(size=(2, 6, 4)), requires_grad=True)
    heads = _heads(2, 6, 3, rng)
    monkeypatch.setattr(Tensor, "_from_op", classmethod(recording))
    total_loss(feats, np.array([0, 0, 1, 1]), heads, RunConfig())
    assert sorted(ops) == sorted(["linear", "ce_smooth", "triplet_batch_hard",
                                  "mul", "mul", "add", "sum"])


def test_total_loss_requires_matching_head():
    # a head stacked [1] would broadcast silently onto both feature rows
    rng = np.random.default_rng(8)
    feats = Tensor(rng.normal(size=(2, 4, 4)))
    with pytest.raises(ValueError, match=r"^heads \(1, 2, 4\) for 2 feature rows$"):
        total_loss(feats, np.array([0, 0, 1, 1]), _heads(1, 4, 2, rng),
                   RunConfig())
