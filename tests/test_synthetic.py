"""Synthetic identity data: reproducibility and part structure."""

import numpy as np
import pytest

from trifuse.config import RunConfig
from trifuse.prompts import MODALITIES
from trifuse.synthetic import SyntheticWorld
from trifuse.train import build_world, sample_batch


def _cfg(**kw):
    defaults = dict(num_ids=4, channels=1, image_h=8, image_w=8,
                    latent_dim=4, nuisance_dim=2, num_cams=2)
    defaults.update(kw)
    return RunConfig(**defaults)


def _world(**kw):
    return SyntheticWorld(_cfg(**kw), seed=5)


def test_rho_validation():
    with pytest.raises(ValueError, match="rho"):
        build_world(_cfg(rho=0.0), seed=5)
    with pytest.raises(ValueError, match="rho"):
        build_world(_cfg(rho=1.5), seed=5)


def test_samples_reproducible_across_worlds_and_call_order():
    a = _world().train_part(3)
    b = _world().train_part(3)
    assert np.array_equal(a.images, b.images)

    # single draws do not depend on any shared generator state
    w = _world()
    late = w._image("r", 2, 0, 1)
    w._image("n", 0, 0, 0)
    w._image("r", 3, 1, 5)
    assert np.array_equal(w._image("r", 2, 0, 1), late)


def test_part_layout_and_camera_round_robin():
    data = _world().train_part(5)
    assert len(data) == 4 * 5
    assert np.array_equal(data.ids, np.repeat(np.arange(4), 5))
    assert np.array_equal(data.cams, np.tile([0, 1, 0, 1, 0], 4))
    assert data.images.shape == (len(MODALITIES), 4 * 5, 1, 8, 8)


def _expected_part(world, part, instances):
    """Ids, instances and images of ``instances`` of every id, id-major,
    one ``_image`` call at a time."""
    ids = [i for i in range(world.cfg.num_ids) for _ in instances]
    insts = [k for _ in range(world.cfg.num_ids) for k in instances]
    images = np.stack([[world._image(m, i, part, k)
                        for i, k in zip(ids, insts)] for m in MODALITIES])
    return np.array(ids), np.array(insts), images


def test_stacked_splits_keep_every_image_id_and_camera():
    w = _world(num_cams=3)
    train = w.train_part(4)
    query, gallery = w.eval_parts(5, 2)
    for data, part, instances in ((train, 0, range(4)), (query, 1, range(2)),
                                  (gallery, 1, range(2, 5))):
        ids, insts, images = _expected_part(w, part, instances)
        assert len(data) == len(ids)
        assert np.array_equal(data.ids, ids)
        assert np.array_equal(data.cams, insts % 3)
        # images[r, i] is stream MODALITIES[r] of sample i
        assert np.array_equal(data.images, images)


def test_sampled_labels_are_the_ids_of_the_sampled_rows():
    cfg = _cfg(batch_p=3, batch_k=3)
    data = _world().train_part(2)  # 2 instances per id: some picks repeat
    for step in range(4):
        images, labels = sample_batch(step, 5, data, cfg)
        assert images.shape == (3, 9, 1, 8, 8)
        for j, label in enumerate(labels):
            rows = [i for i in range(len(data))
                    if np.array_equal(data.images[:, i], images[:, j])]
            assert rows and all(data.ids[i] == label for i in rows)


def test_modalities_render_differently():
    w = _world()
    n, r, t = w.train_part(1).images[:, 0]
    assert not np.allclose(n, r)
    assert not np.allclose(r, t)


def test_train_and_eval_parts_are_disjoint_draws():
    w = _world()
    train = w.train_part(2)
    query, gallery = w.eval_parts(2, 1)
    assert not np.array_equal(train.images[0, 0], query.images[0, 0])
    assert not np.array_equal(train.images[0, 1], gallery.images[0, 0])


def test_eval_split_keeps_cross_camera_positives():
    w = _world(num_cams=3)
    query, gallery = w.eval_parts(4, 1)
    assert len(query) == 4 and len(gallery) == 12
    for qi in range(len(query)):
        same_id = gallery.ids == query.ids[qi]
        other_cam = gallery.cams != query.cams[qi]
        assert (same_id & other_cam).any()
    with pytest.raises(ValueError):
        w.eval_parts(2, 2)


def test_identity_signal_dominates_at_high_rho():
    # with no noise terms and rho = 1, instances of an id are identical
    w = _world(rho=1.0, sigma=0.0, nuisance_gain=0.0)
    a = w._image("n", 1, 0, 0)
    b = w._image("n", 1, 0, 7)
    assert np.allclose(a, b)
    other = w._image("n", 2, 0, 0)
    assert not np.allclose(a, other)

    # lowering rho lets instance noise through
    noisy = _world(rho=0.5, sigma=0.0, nuisance_gain=0.0)
    assert not np.allclose(noisy._image("n", 1, 0, 0),
                           noisy._image("n", 1, 0, 7))


def test_within_id_distances_shrink_as_rho_grows():
    def mean_within(rho):
        w = _world(rho=rho, num_ids=6, sigma=0.1)
        data = w.train_part(4)
        dists = []
        for ident in range(6):
            idx = np.flatnonzero(data.ids == ident)
            flat = data.images[0, idx].reshape(len(idx), -1)
            for i in range(len(idx)):
                for j in range(i + 1, len(idx)):
                    dists.append(np.linalg.norm(flat[i] - flat[j]))
        return np.mean(dists)

    assert mean_within(0.95) < mean_within(0.4)
