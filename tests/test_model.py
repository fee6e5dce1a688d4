"""Fusion model: stream plumbing, toggles, feature assembly."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from trifuse.config import RunConfig, load_config
from trifuse.model import FusionModel
from trifuse.prompts import MODALITIES
from trifuse.tensor import NonFiniteError, no_grad, set_default_dtype
from trifuse.train import build_model

TOY_CFG = os.path.join(os.path.dirname(__file__), "..", "demos", "toy.cfg")

N_PATCHES = (8 // 4) * (8 // 4)


def _model(seed=0, **toggle_kw):
    cfg = RunConfig(embed_dim=8, layers=2, heads=2, patch=4,
                    image_h=8, image_w=8, channels=1, n_prompts=2,
                    num_ids=4, d_state=2, dt_rank=2, ma_blocks=1,
                    **toggle_kw)
    return FusionModel(cfg, np.random.default_rng(seed))


def _images(*seeds):
    """Images ``[3, B, 1, 8, 8]``, sample b drawn from ``seeds[b]`` in
    ``MODALITIES`` order."""
    return np.stack([np.random.default_rng(seed).normal(
        size=(len(MODALITIES), 1, 8, 8)) for seed in seeds or (0,)], axis=1)


def test_forward_shapes_and_sequence_lengths():
    model = _model().eval()
    feats = model.forward_batch(_images())
    assert feats.shape == (2, 24, 1)
    want_len = 1 + N_PATCHES + 3 * 2
    assert model.last_seq == [want_len, want_len]


def test_sequences_without_prompts():
    model = _model(use_srp=False).eval()
    model.forward_batch(_images())
    want_len = 1 + N_PATCHES
    assert model.last_seq == [want_len] * 2


def _same_image_streams(model):
    """Final tokens of the three streams when each is fed the same image."""
    image = _images()[0]
    return model._run_streams(np.stack([image] * len(MODALITIES))).data


def test_streams_share_backbone_and_adapters():
    model = _model(use_srp=False).eval()
    outs = _same_image_streams(model)
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


def test_prompts_differentiate_streams():
    model = _model(use_srp=True).eval()
    outs = _same_image_streams(model)
    assert not np.allclose(outs[0], outs[1])
    assert not np.allclose(outs[1], outs[2])


def test_class_feature_stacks_stream_tokens():
    model = _model().eval()
    images = _images()
    f_cls = model.forward_batch(images).data[0]
    streams = model._run_streams(images[:, 0])
    for i in range(len(MODALITIES)):
        assert np.allclose(f_cls[8 * i:8 * (i + 1), 0],
                           streams.data[i, :, 0], atol=1e-14)


def test_toggles_control_feature_width_and_heads():
    with_ma = _model().eval()
    without = _model(use_ma=False).eval()
    assert without.aggregator is None
    assert without.heads.weight.shape == (1, 4, 24)
    assert without.heads.bias.shape == (1, 4)
    assert with_ma.heads.weight.shape == (2, 4, 24)
    assert with_ma.heads.bias.shape == (2, 4)

    images = _images(0, 1, 2)
    for model, rows in ((with_ma, 2), (without, 1)):
        feats = model.forward_batch(images)
        assert feats.shape == (rows, 24, 3)
        assert np.array_equal(model.features(images),
                              feats.data.reshape(-1, 3))
    assert with_ma.features(images).shape == (48, 3)
    assert without.features(images).shape == (24, 3)


def test_disabled_aggregation_stage_builds_no_params():
    cfg = load_config(TOY_CFG)
    full = build_model(cfg, 3)
    state = full.state_dict()
    for toggles, gone in (
            (dict(ma_intra=False), (".intra_",)),
            (dict(ma_inter=False), (".inter_",)),
            (dict(ma_intra=False, ma_inter=False), (".intra_", ".inter_"))):
        model = build_model(dataclasses.replace(cfg, **toggles), 3)
        dropped = {name for name in state
                   if any(part in name for part in gone)}
        assert dropped
        assert set(model.state_dict()) == set(state) - dropped, toggles
        assert model.num_trainable() == full.num_trainable() - sum(
            state[name][0].size for name in dropped if not state[name][1])


def test_batch_forward_concatenates_sample_columns():
    model = _model().eval()
    images = _images(0, 1)
    feats = model.forward_batch(images)
    assert feats.shape == (2, 24, 2)
    one = model.forward_batch(images[:, 1:])
    assert np.array_equal(feats.data[..., 1:], one.data)


def test_train_batch_keeps_per_sequence_batch_norm():
    # per-sequence statistics: every sample's features and every running
    # estimate match feeding the samples one at a time, in order; pooled
    # batch statistics would move both
    images = _images(0, 1, 2)
    batched, single = _model().train(), _model().train()
    feats = batched.forward_batch(images)
    for i in range(images.shape[1]):
        one = single.forward_batch(images[:, i:i + 1])
        assert np.array_equal(feats.data[..., i:i + 1], one.data)
    one_by_one = dict(single.named_buffers())
    initial = dict(_model().named_buffers())
    assert one_by_one
    for name, buf in batched.named_buffers():
        assert np.array_equal(buf, one_by_one[name]), name
        assert not np.array_equal(buf, initial[name]), name


def test_frozen_backbone_keeps_zero_gradients():
    model = _model()
    model.train()
    model.forward_batch(_images()).sum().backward()
    for name, p in model.backbone.named_params():
        assert np.all(p.grad == 0.0), f"backbone.{name} received gradient"
    moved = sum(np.abs(p.grad).sum() > 0 for p in model.trainable_params())
    assert moved > 0


def test_nan_before_features_names_the_module_path():
    model = _model().eval()
    dict(model.named_params())["adapters.1.w1"].data[0, 0] = np.nan
    with pytest.raises(NonFiniteError,
                       match=r"^op 'mlp' produced non-finite values in "
                             r"adapters\.1 at eval pass$"):
        model.features(_images(0, 1))


def _wide_model(seed=0):
    """64x32 images: ``features`` runs 8 samples per chunk."""
    cfg = RunConfig(embed_dim=8, layers=2, heads=2, patch=8,
                    image_h=64, image_w=32, channels=1, n_prompts=2,
                    num_ids=4, d_state=2, dt_rank=2, ma_blocks=1)
    return FusionModel(cfg, np.random.default_rng(seed)).eval()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_chunked_features_are_bitwise_one_pass(dtype):
    set_default_dtype(dtype)
    try:
        model = _wide_model()
        rng = np.random.default_rng(5)
        images = rng.normal(size=(20, len(MODALITIES), 1, 64, 32)).astype(
            dtype).swapaxes(0, 1)  # 8 + 8 + 4 samples
        feats = model.features(images)
        with no_grad():
            one_pass = model.forward_batch(images)
    finally:
        set_default_dtype(np.float64)
    assert feats.dtype == dtype
    assert np.array_equal(feats, one_pass.data.reshape(-1, 20))


def test_eval_pass_memory_does_not_grow_with_the_split():
    # the long_seq_train size: 64x32 images in 4x4 patches, 135 columns
    cfg = dataclasses.replace(load_config(TOY_CFG), image_h=64, image_w=32,
                              patch=4)
    model = build_model(cfg, 1).eval()
    rng = np.random.default_rng(6)
    images = rng.normal(size=(36, len(MODALITIES), cfg.channels, 64, 32)
                        ).swapaxes(0, 1)
    peaks = []
    for count in (12, 36):
        tracemalloc.start()
        try:
            model.features(images[:, :count])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks
