"""Prompt bank: slot discipline, refinement modes, transfer sources.

Token tensors are the three streams stacked, ``[3, D, N]``, stream on axis 0
in ``MODALITIES`` order."""

import numpy as np
import pytest

from trifuse.prompts import MODALITIES, PromptBank
from trifuse.tensor import Tensor


def _zero_mlp(mlp):
    for _, p in mlp.named_params():
        p.data[:] = 0.0


def _bank(mode="fusion", dim=4, n_prompts=2, layers=3, seed=0):
    return PromptBank(dim, n_prompts, layers, np.random.default_rng(seed),
                      mode=mode)


def test_mode_validation():
    with pytest.raises(ValueError):
        _bank(mode="blend")


def test_slot_order_and_sources_at_layer_zero():
    bank = _bank()
    for tb in bank.transfers.values():
        _zero_mlp(tb)
    f = Tensor(np.stack([np.arange(12.0).reshape(4, 3)] * 3))
    seq = bank.assemble_layer_input(0, f, None).data
    assert seq.shape == (3, 4, 3 + 3 * 2)
    r = seq[1]                                                 # stream r
    assert np.array_equal(r[:, :3], f.data[1])
    assert np.array_equal(r[:, 3:5], np.zeros((4, 2)))          # slot n
    assert np.array_equal(r[:, 5:7], bank.prompts[0]["r"].data)  # slot r
    assert np.array_equal(r[:, 7:9], np.zeros((4, 2)))          # slot t


def test_assemble_harvest_round_trip():
    bank = _bank(seed=1)
    rng = np.random.default_rng(2)
    f = Tensor(rng.normal(size=(3, 4, 5)))
    seq = bank.assemble_layer_input(0, f, None)
    f_back, groups = bank.harvest(seq, 5)
    assert np.array_equal(f_back.data, f.data)
    assert len(groups) == len(MODALITIES)
    # stream t is row 2; its own slot is group 2
    assert np.array_equal(groups[2].data[2], bank.prompts[0]["t"].data)
    for i, slot in enumerate(("n", "r")):
        want = bank.transfers[f"{slot}_t"](bank.prompts[0][slot]).data
        assert np.array_equal(groups[i].data[2], want)


def test_harvest_rejects_wrong_width():
    bank = _bank()
    with pytest.raises(ValueError):
        bank.harvest(Tensor(np.zeros((3, 4, 10))), 5)


def test_first_layer_ignores_harvested_groups():
    bank = _bank(seed=3)
    rng = np.random.default_rng(4)
    f = Tensor(rng.normal(size=(3, 4, 1)))
    junk = [Tensor(rng.normal(size=(3, 4, 2))) for _ in range(3)]
    seq = bank.assemble_layer_input(0, f, junk).data
    assert np.array_equal(seq[0, :, 1:3], bank.prompts[0]["n"].data)


def test_later_layer_refines_own_slot_from_harvest():
    bank = _bank(seed=5)
    rng = np.random.default_rng(6)
    f = Tensor(rng.normal(size=(3, 4, 1)))
    groups = [Tensor(rng.normal(size=(3, 4, 2))) for _ in range(3)]
    seq = bank.assemble_layer_input(1, f, groups).data

    pooled = (groups[0].data[0] + groups[1].data[0] + groups[2].data[0]) / 3.0
    want = bank.prompts[1]["n"].data + bank.rp["n"](Tensor(pooled)).data
    assert np.allclose(seq[0, :, 1:3], want, atol=1e-14)


def test_transfers_draw_from_current_layer_bank():
    bank = _bank(seed=7)
    rng = np.random.default_rng(8)
    f = Tensor(rng.normal(size=(3, 4, 1)))
    groups = [Tensor(rng.normal(size=(3, 4, 2))) for _ in range(3)]
    seq = bank.assemble_layer_input(2, f, groups).data[1]     # stream r

    want_n = bank.transfers["n_r"](bank.prompts[2]["n"]).data
    want_t = bank.transfers["t_r"](bank.prompts[2]["t"]).data
    assert np.allclose(seq[:, 1:3], want_n, atol=1e-14)
    assert np.allclose(seq[:, 5:7], want_t, atol=1e-14)
    stale = bank.transfers["n_r"](bank.prompts[0]["n"]).data
    assert not np.allclose(seq[:, 1:3], stale)


def test_separation_mode_averages_per_source_maps():
    bank = _bank(mode="separation", seed=9)
    rng = np.random.default_rng(10)
    groups = [Tensor(rng.normal(size=(3, 4, 2))) for _ in range(3)]
    _zero_mlp(bank.rp["r_n"])
    _zero_mlp(bank.rp["r_r"])
    out = bank.residual_fuse(1, groups)[1].data[0]            # stream r
    want = (bank.prompts[1]["r"].data
            + bank.rp["r_t"](Tensor(groups[2].data[1])).data / 3.0)
    assert np.allclose(out, want, atol=1e-14)


def test_modes_disagree_and_parameter_ratio():
    fu = _bank(mode="fusion", seed=11)
    se = _bank(mode="separation", seed=11)
    rng = np.random.default_rng(12)
    groups = [Tensor(rng.normal(size=(3, 4, 2))) for _ in range(3)]
    assert not np.allclose(fu.residual_fuse(0, groups)[0].data,
                           se.residual_fuse(0, groups)[0].data)

    def rp_count(bank):
        return sum(p.data.size for name, p in bank.named_params()
                   if name.startswith("rp."))

    assert rp_count(se) == 3 * rp_count(fu)


def test_prompt_initialization_scale():
    bank = PromptBank(64, 16, 4, np.random.default_rng(13))
    values = np.concatenate([layer[m].data.ravel()
                             for layer in bank.prompts for m in MODALITIES])
    assert abs(values.std() - 0.02) < 0.005
    assert abs(values.mean()) < 0.005
