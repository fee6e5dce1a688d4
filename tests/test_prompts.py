"""Prompt bank: slot discipline, refinement modes, transfer sources.

Token tensors are the three streams stacked, ``[3, D, N]``, stream on axis 0
in ``MODALITIES`` order (rows 0, 1, 2 are n, r, t). Harvested slot columns
are ``[3, D, 3P]``, slot n in columns 0:P, r in P:2P, t in 2P:3P."""

import numpy as np
import pytest

from conftest import module_row
from trifuse.prompts import MODALITIES, PromptBank, PromptMlp
from trifuse.tensor import Tensor


def _zero_mlp(mlp):
    for _, p in mlp.named_params():
        p.data[:] = 0.0


def _bank(mode="fusion", dim=4, n_prompts=2, layers=3, seed=0):
    return PromptBank(dim, n_prompts, layers, np.random.default_rng(seed),
                      mode=mode)


def _map(stacked, index, p):
    """The one map at ``index`` of a stacked PromptMlp, applied to ``p``."""
    alone = module_row(stacked, PromptMlp(p.shape[0], np.random.default_rng(0)),
                       index)
    return alone(Tensor(p)).data


def _transfer(bank, src, dst, p):
    """Map ``p`` as the bank carries stream ``src``'s prompt to ``dst``."""
    s, d = MODALITIES.index(src), MODALITIES.index(dst)
    return _map(bank.transfers, (s, d - (d > s)), p)


def test_mode_validation():
    with pytest.raises(ValueError):
        _bank(mode="blend")


def test_slot_order_and_sources_at_layer_zero():
    bank = _bank()
    _zero_mlp(bank.transfers)
    f = Tensor(np.stack([np.arange(12.0).reshape(4, 3)] * 3))
    seq = bank.assemble_layer_input(0, f, None).data
    assert seq.shape == (3, 4, 3 + 3 * 2)
    r = seq[1]                                                 # stream r
    assert np.array_equal(r[:, :3], f.data[1])
    assert np.array_equal(r[:, 3:5], np.zeros((4, 2)))          # slot n
    assert np.array_equal(r[:, 5:7], bank.prompts[0].data[1])   # slot r
    assert np.array_equal(r[:, 7:9], np.zeros((4, 2)))          # slot t


def test_assemble_harvest_round_trip():
    bank = _bank(seed=1)
    rng = np.random.default_rng(2)
    f = Tensor(rng.normal(size=(3, 4, 5)))
    seq = bank.assemble_layer_input(0, f, None)
    f_back, slots = bank.harvest(seq, 5)
    assert np.array_equal(f_back.data, f.data)
    assert slots.shape == (3, 4, 3 * 2)
    # stream t is row 2; its own slot is slot 2
    t = slots.data[2]
    assert np.array_equal(t[:, 4:6], bank.prompts[0].data[2])
    for i, slot in enumerate(("n", "r")):
        want = _transfer(bank, slot, "t", bank.prompts[0].data[i])
        assert np.array_equal(t[:, 2 * i:2 * i + 2], want)


def test_harvest_rejects_wrong_width():
    bank = _bank()
    with pytest.raises(ValueError):
        bank.harvest(Tensor(np.zeros((3, 4, 10))), 5)


def test_first_layer_ignores_harvested_groups():
    bank = _bank(seed=3)
    rng = np.random.default_rng(4)
    f = Tensor(rng.normal(size=(3, 4, 1)))
    junk = Tensor(rng.normal(size=(3, 4, 6)))
    seq = bank.assemble_layer_input(0, f, junk).data
    assert np.array_equal(seq[0, :, 1:3], bank.prompts[0].data[0])


def test_later_layer_refines_own_slot_from_harvest():
    bank = _bank(seed=5)
    rng = np.random.default_rng(6)
    f = Tensor(rng.normal(size=(3, 4, 1)))
    harvested = Tensor(rng.normal(size=(3, 4, 6)))
    seq = bank.assemble_layer_input(1, f, harvested).data

    n = harvested.data[0]                                     # stream n
    pooled = (n[:, 0:2] + n[:, 2:4] + n[:, 4:6]) / 3.0
    want = bank.prompts[1].data[0] + _map(bank.rp, 0, pooled)
    assert np.allclose(seq[0, :, 1:3], want, atol=1e-14)


def test_transfers_draw_from_current_layer_bank():
    bank = _bank(seed=7)
    rng = np.random.default_rng(8)
    f = Tensor(rng.normal(size=(3, 4, 1)))
    harvested = Tensor(rng.normal(size=(3, 4, 6)))
    seq = bank.assemble_layer_input(2, f, harvested).data[1]  # stream r

    want_n = _transfer(bank, "n", "r", bank.prompts[2].data[0])
    want_t = _transfer(bank, "t", "r", bank.prompts[2].data[2])
    assert np.allclose(seq[:, 1:3], want_n, atol=1e-14)
    assert np.allclose(seq[:, 5:7], want_t, atol=1e-14)
    stale = _transfer(bank, "n", "r", bank.prompts[0].data[0])
    assert not np.allclose(seq[:, 1:3], stale)


def test_separation_mode_averages_per_source_maps():
    bank = _bank(mode="separation", seed=9)
    rng = np.random.default_rng(10)
    harvested = Tensor(rng.normal(size=(3, 4, 6)))
    # rp row (stream, source slot): zero stream r's maps of slots n and r
    for _, p in bank.rp.named_params():
        p.data[1, :2] = 0.0
    out = bank.residual_fuse(1, harvested).data[1]            # stream r
    want = (bank.prompts[1].data[1]
            + _map(bank.rp, (1, 2), harvested.data[1][:, 4:6]) / 3.0)
    assert np.allclose(out, want, atol=1e-14)


def test_modes_disagree_and_parameter_ratio():
    fu = _bank(mode="fusion", seed=11)
    se = _bank(mode="separation", seed=11)
    rng = np.random.default_rng(12)
    harvested = Tensor(rng.normal(size=(3, 4, 6)))
    assert not np.allclose(fu.residual_fuse(0, harvested).data[0],
                           se.residual_fuse(0, harvested).data[0])

    def rp_count(bank):
        return sum(p.data.size for name, p in bank.named_params()
                   if name.startswith("rp."))

    assert rp_count(se) == 3 * rp_count(fu)


def test_prompt_initialization_scale():
    bank = PromptBank(64, 16, 4, np.random.default_rng(13))
    assert bank.prompts[0].shape == (3, 64, 16)
    values = np.concatenate([layer.data.ravel() for layer in bank.prompts])
    assert abs(values.std() - 0.02) < 0.005
    assert abs(values.mean()) < 0.005
