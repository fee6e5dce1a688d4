"""Encoder plumbing: patch order, position handling, layer wiring."""

import numpy as np
import pytest

from trifuse.backbone import EncoderLayer, PatchEmbed, VisionBackbone
from trifuse.config import RunConfig
from trifuse.tensor import Tensor, add


def _identity_embed(cfg, rng):
    embed = PatchEmbed(cfg, rng)
    d = cfg.channels * cfg.patch ** 2
    embed.proj.weight.data = np.eye(d)
    embed.proj.bias.data = np.zeros(d)
    return embed


def test_patch_columns_match_hand_loop():
    cfg = RunConfig(embed_dim=8, layers=1, heads=1, patch=2,
                    image_h=4, image_w=6, channels=2)
    rng = np.random.default_rng(0)
    embed = _identity_embed(cfg, rng)
    image = rng.normal(size=(2, 4, 6))
    cols = embed(image).data

    p = cfg.patch
    idx = 0
    for i in range(cfg.image_h // p):
        for j in range(cfg.image_w // p):
            patch = image[:, i * p:(i + 1) * p, j * p:(j + 1) * p]
            assert np.array_equal(cols[:, idx], patch.ravel())
            idx += 1
    assert idx == (4 // 2) * (6 // 2) == cols.shape[1]


def test_patch_embed_rejects_wrong_channel_count():
    cfg = RunConfig(embed_dim=4, layers=1, heads=1, patch=2,
                    image_h=4, image_w=4, channels=1)
    embed = PatchEmbed(cfg, np.random.default_rng(0))
    with pytest.raises(ValueError):
        embed(np.zeros((3, 4, 4)))


def test_config_rejects_indivisible_images():
    with pytest.raises(ValueError, match="image_h"):
        RunConfig(image_h=30, image_w=16, patch=8).validate()


def test_positions_cover_class_token_and_patches():
    cfg = RunConfig(embed_dim=4, layers=1, heads=1, patch=2,
                    image_h=4, image_w=4, channels=1)
    rng = np.random.default_rng(1)
    bb = VisionBackbone(cfg, rng)
    image = rng.normal(size=(1, 4, 4))
    toks = bb.tokens(image).data
    patches = bb.embed(image).data
    assert toks.shape == (4, 1 + (4 // 2) * (4 // 2))
    assert np.allclose(toks[:, 0], bb.cls.data[:, 0] + bb.pos.data[:, 0])
    assert np.allclose(toks[:, 1:], patches + bb.pos.data[:, 1:])


def test_layer_composition_without_adapter():
    rng = np.random.default_rng(2)
    layer = EncoderLayer(6, 2, rng)
    x = Tensor(rng.normal(size=(6, 5)))
    out = layer(x)
    f = add(layer.attn(layer.norm1(x)), x)
    want = add(layer.ffn(layer.norm2(f)), f)
    assert np.allclose(out.data, want.data, atol=1e-14)


class _SpyAdapter:
    """Records its input and contributes nothing to the sum."""

    def __init__(self):
        self.seen = None

    def __call__(self, x):
        self.seen = x.data.copy()
        return Tensor(np.zeros_like(x.data))


def test_adapter_branch_reads_post_attention_residual():
    rng = np.random.default_rng(3)
    layer = EncoderLayer(6, 2, rng)
    x = Tensor(rng.normal(size=(6, 5)))
    spy = _SpyAdapter()
    out = layer(x, adapter=spy)

    f = add(layer.attn(layer.norm1(x)), x)
    assert np.allclose(spy.seen, f.data, atol=1e-14)
    assert not np.allclose(spy.seen, layer.norm2(f).data)
    # a zero adapter leaves the layer output unchanged
    assert np.allclose(out.data, layer(x).data, atol=1e-14)


def test_backbone_freeze_zeroes_trainable_count():
    cfg = RunConfig(embed_dim=8, layers=2, heads=2, patch=2,
                    image_h=4, image_w=4, channels=1)
    bb = VisionBackbone(cfg, np.random.default_rng(4))
    assert bb.num_trainable() > 0
    bb.freeze()
    assert bb.num_trainable() == 0
    assert all(not p.requires_grad for _, p in bb.named_params())


def test_shared_weights_give_identical_streams():
    cfg = RunConfig(embed_dim=8, layers=2, heads=2, patch=2,
                    image_h=4, image_w=4, channels=1)
    rng = np.random.default_rng(5)
    bb = VisionBackbone(cfg, rng)
    image = rng.normal(size=(1, 4, 4))
    runs = []
    for _ in range(3):
        x = bb.tokens(image)
        for blk in bb.blocks:
            x = blk(x)
        runs.append(bb.norm(x).data)
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], runs[2])
