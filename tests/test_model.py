"""Fusion model: stream plumbing, toggles, feature assembly."""

import numpy as np
import pytest

from trifuse.config import RunConfig
from trifuse.model import FusionModel
from trifuse.prompts import MODALITIES
from trifuse.tensor import NonFiniteError

N_PATCHES = (8 // 4) * (8 // 4)


def _model(seed=0, **toggle_kw):
    cfg = RunConfig(embed_dim=8, layers=2, heads=2, patch=4,
                    image_h=8, image_w=8, channels=1, n_prompts=2,
                    num_ids=4, d_state=2, dt_rank=2, ma_blocks=1,
                    **toggle_kw)
    return FusionModel(cfg, np.random.default_rng(seed))


def _sample(seed=0):
    rng = np.random.default_rng(seed)
    return {m: rng.normal(size=(1, 8, 8)) for m in MODALITIES}


def test_forward_shapes_and_sequence_lengths():
    model = _model().eval()
    f_cls, f_ma = model.forward_batch([_sample()])
    assert f_cls.shape == (24, 1)
    assert f_ma.shape == (24, 1)
    want_len = 1 + N_PATCHES + 3 * 2
    for m in MODALITIES:
        assert model.last_seq[m] == [want_len, want_len]


def test_sequences_without_prompts():
    model = _model(use_srp=False).eval()
    model.forward_batch([_sample()])
    want_len = 1 + N_PATCHES
    for m in MODALITIES:
        assert model.last_seq[m] == [want_len] * 2


def test_streams_share_backbone_and_adapters():
    model = _model(use_srp=False).eval()
    image = _sample()["n"]
    outs = [model._run_stream(m, image).data for m in MODALITIES]
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


def test_prompts_differentiate_streams():
    model = _model(use_srp=True).eval()
    image = _sample()["n"]
    outs = [model._run_stream(m, image).data for m in MODALITIES]
    assert not np.allclose(outs[0], outs[1])
    assert not np.allclose(outs[1], outs[2])


def test_class_feature_stacks_stream_tokens():
    model = _model().eval()
    sample = _sample()
    f_cls, _ = model.forward_batch([sample])
    for i, m in enumerate(MODALITIES):
        stream = model._run_stream(m, sample[m])
        assert np.allclose(f_cls.data[8 * i:8 * (i + 1), 0],
                           stream.data[:, 0], atol=1e-14)


def test_toggles_control_feature_width_and_heads():
    with_ma = _model().eval()
    without = _model(use_ma=False).eval()
    assert without.aggregator is None
    assert without.heads.ma_head is None
    assert with_ma.heads.ma_head is not None

    _, f_ma = without.forward_batch([_sample()])
    assert f_ma is None

    samples = [_sample(s) for s in range(3)]
    assert with_ma.features(samples).shape == (48, 3)
    assert without.features(samples).shape == (24, 3)


def test_batch_forward_concatenates_sample_columns():
    model = _model().eval()
    samples = [_sample(s) for s in range(2)]
    f_cls, f_ma = model.forward_batch(samples)
    assert f_cls.shape == (24, 2)
    assert f_ma.shape == (24, 2)
    one_cls, one_ma = model.forward_batch([samples[1]])
    assert np.array_equal(f_cls.data[:, 1:], one_cls.data)
    assert np.array_equal(f_ma.data[:, 1:], one_ma.data)


def test_train_batch_keeps_per_sequence_batch_norm():
    # per-sequence statistics: every sample's features and every running
    # estimate match feeding the samples one at a time, in order; pooled
    # batch statistics would move both
    samples = [_sample(s) for s in range(3)]
    batched, single = _model().train(), _model().train()
    f_cls, f_ma = batched.forward_batch(samples)
    for i, sample in enumerate(samples):
        one_cls, one_ma = single.forward_batch([sample])
        assert np.array_equal(f_cls.data[:, i:i + 1], one_cls.data)
        assert np.array_equal(f_ma.data[:, i:i + 1], one_ma.data)
    one_by_one = dict(single.named_buffers())
    initial = dict(_model().named_buffers())
    assert one_by_one
    for name, buf in batched.named_buffers():
        assert np.array_equal(buf, one_by_one[name]), name
        assert not np.array_equal(buf, initial[name]), name


def test_frozen_backbone_keeps_zero_gradients():
    model = _model()
    model.train()
    f_cls, f_ma = model.forward_batch([_sample()])
    (f_cls.sum() + f_ma.sum()).backward()
    for name, p in model.backbone.named_params():
        assert np.all(p.grad == 0.0), f"backbone.{name} received gradient"
    moved = sum(np.abs(p.grad).sum() > 0 for p in model.trainable_params())
    assert moved > 0


def test_nan_before_features_names_the_module_path():
    model = _model().eval()
    dict(model.named_params())["adapters.1.up.weight"].data[0, 0] = np.nan
    with pytest.raises(NonFiniteError,
                       match=r"^op 'linear' produced non-finite values in "
                             r"adapters\.1\.up at eval pass$"):
        model.features([_sample(), _sample(1)])
