"""Aggregation blocks: stage isolation, modality coupling, class bypass.

Token tensors are the three streams stacked, ``[3, D, N]``, stream on axis 0
in ``MODALITIES`` order (rows 0, 1, 2 are n, r, t)."""

import numpy as np

from trifuse.aggregation import (AggregationBlock, AggregationHead,
                                 Aggregator)
from trifuse.prompts import MODALITIES
from trifuse.tensor import Tensor, concat, narrow, tmean


def _block(seed=0, dim=6, **kw):
    blk = AggregationBlock(dim, d_state=4, dt_rank=3, kernel=3,
                           rng=np.random.default_rng(seed), **kw)
    blk.eval()
    return blk


def _streams(seed, dim=6, n=5):
    rng = np.random.default_rng(seed)
    return Tensor(np.stack([rng.normal(size=(dim, n)) for _ in MODALITIES]))


def _bump(fs, row, by=1.0):
    data = fs.data.copy()
    data[row] += by
    return Tensor(data)


def test_zeroed_merges_make_block_identity():
    blk = _block(seed=1)
    for lin in (blk.intra_merge, blk.inter_merge):
        lin.weight.data[:] = 0.0
        lin.bias.data[:] = 0.0
    fs = _streams(2)
    out = blk(fs)
    for i in range(len(MODALITIES)):
        assert np.array_equal(out.data[i], fs.data[i])


def test_stages_disable_independently():
    fs = _streams(3)
    neither = _block(seed=4, use_intra=False, use_inter=False)(fs)
    for i in range(len(MODALITIES)):
        assert np.array_equal(neither.data[i], fs.data[i])

    blk = _block(seed=4)
    only_intra = _block(seed=4, use_inter=False)
    only_inter = _block(seed=4, use_intra=False)
    # the intra stage draws first, so only the inter-only block needs the
    # full block's inter stage loaded to compute the same stage
    state = blk.state_dict()
    only_inter.load_state_dict({name: state[name]
                                for name in only_inter.state_dict()})
    assert np.allclose(only_intra(fs).data[0], blk.intra(fs).data[0])
    assert np.allclose(only_inter(fs).data[1], blk.inter(fs).data[1])
    assert not np.allclose(only_intra(fs).data[0], only_inter(fs).data[0])


def test_intra_stage_keeps_modalities_independent():
    blk = _block(seed=5, use_inter=False)
    fs = _streams(6)
    base = blk(fs).data
    out = blk(_bump(fs, 2)).data
    assert np.array_equal(out[0], base[0])
    assert np.array_equal(out[1], base[1])
    assert not np.allclose(out[2], base[2])


def test_inter_stage_couples_modalities_causally():
    blk = _block(seed=7, use_intra=False)
    fs = _streams(8)
    base = blk(fs).data
    out = blk(_bump(fs, 0)).data
    # the shared scan runs n, r, t left to right: perturbing the first
    # modality reaches the later ones through the carried state
    assert not np.allclose(out[1], base[1])
    assert not np.allclose(out[2], base[2])

    out_last = blk(_bump(fs, 2)).data
    assert np.array_equal(out_last[0], base[0])
    assert np.array_equal(out_last[1], base[1])


def test_scan_is_order_sensitive():
    blk = _block(seed=9, use_inter=False)
    fs = _streams(10)
    rev = Tensor(fs.data[..., ::-1].copy())
    out = blk(fs).data[0]
    out_rev = blk(rev).data[0]
    assert not np.allclose(out_rev, out[:, ::-1])


def test_head_formula_and_fused_width():
    dim = 6
    head = AggregationHead(dim, np.random.default_rng(11))
    rng = np.random.default_rng(12)
    tokens = rng.normal(size=(3, dim, 5))
    fused = head(Tensor(tokens[..., :1]), Tensor(tokens[..., 1:]))
    assert fused.shape == (3, dim, 1)

    t = Tensor(tokens[1])                                      # stream r
    v = head.norm(concat([narrow(t, 1, 0, 1),
                          tmean(narrow(t, 1, 1, 4), axis=1, keepdims=True)],
                         axis=0))
    out = head.out                                 # row 1 maps stream r
    want = out.weight.data[1] @ v.data + out.bias.data[1][:, None]
    assert np.allclose(fused.data[1], want, atol=1e-14)


class _CaptureHead:
    def __init__(self, head):
        self.head = head
        self.seen = None

    def __call__(self, cls, patches):
        self.seen = np.concatenate([cls.data, patches.data], axis=-1)
        return self.head(cls, patches)


def test_class_tokens_bypass_blocks():
    dim = 6
    blocks = [_block(seed=13)]
    capture = _CaptureHead(AggregationHead(dim, np.random.default_rng(14)))
    agg = Aggregator(blocks, capture)

    rng = np.random.default_rng(15)
    tokens = rng.normal(size=(3, dim, 5))
    agg(Tensor(tokens[..., :1]), Tensor(tokens[..., 1:]))
    first = capture.seen

    shifted = tokens.copy()
    shifted[..., 0] += 9.0
    agg(Tensor(shifted[..., :1]), Tensor(shifted[..., 1:]))
    second = capture.seen

    for i in range(len(MODALITIES)):
        # patch tokens reaching the head are untouched by the class shift,
        # while the class column arrives shifted but never scanned
        assert np.array_equal(first[i][:, 1:], second[i][:, 1:])
        assert np.allclose(second[i][:, 0], first[i][:, 0] + 9.0)
