"""Array dump format, checkpoint directories, and exact resumption."""

import dataclasses
import filecmp
import hashlib
import os
import struct

import numpy as np
import pytest

from conftest import make_tiny_cfg
from trifuse.config import save_config
from trifuse.dump import (MAGIC, load_checkpoint, read_array,
                          save_checkpoint, write_array)
from trifuse import train as train_mod
from trifuse.train import build_model, train


# -- single-array format ------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_array_round_trip(tmp_path, dtype):
    rng = np.random.default_rng(0)
    for shape in [(), (5,), (3, 4), (2, 3, 4)]:
        arr = rng.normal(size=shape).astype(dtype)
        path = str(tmp_path / "a.mptd")
        write_array(path, arr)
        back = read_array(path)
        assert back.dtype == dtype
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)


def test_write_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(ValueError):
        write_array(str(tmp_path / "a.mptd"), np.arange(3))  # int64


def test_read_rejects_corrupt_files(tmp_path):
    good = str(tmp_path / "good.mptd")
    write_array(good, np.ones((2, 2)))
    blob = open(good, "rb").read()

    cases = {
        "magic": b"XXXX" + blob[4:],
        "version": blob[:4] + bytes([9]) + blob[5:],
        "dtype": blob[:5] + bytes([7]) + blob[6:],
        "short_payload": blob[:-8],
        "truncated_header": blob[:5],
    }
    for name, broken in cases.items():
        path = str(tmp_path / f"{name}.mptd")
        with open(path, "wb") as fh:
            fh.write(broken)
        with pytest.raises(ValueError):
            read_array(path)


def test_header_layout_is_as_documented(tmp_path):
    path = str(tmp_path / "a.mptd")
    write_array(path, np.zeros((3, 7), dtype=np.float32))
    blob = open(path, "rb").read()
    magic, version, code, rank = struct.unpack("<4sBBB", blob[:7])
    assert magic == MAGIC and version == 1 and code == 0 and rank == 2
    assert struct.unpack("<2Q", blob[7:23]) == (3, 7)
    assert len(blob) == 23 + 3 * 7 * 4


# -- checkpoint directories ----------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    arrays = {
        "w.weight": (rng.normal(size=(4, 3)), False),
        "frozen.bias": (rng.normal(size=4), True),
        "adam.m.w.weight": (rng.normal(size=(4, 3)), False),
    }
    meta = {"step": 12, "adam_t": 12, "lr": 3.5e-4,
            "config_sha256": "ab" * 32}
    save_checkpoint(str(tmp_path / "ckpt"), arrays, meta)
    back, back_meta = load_checkpoint(str(tmp_path / "ckpt"))
    assert set(back) == set(arrays)
    for name, (arr, frozen) in arrays.items():
        got, got_frozen = back[name]
        assert np.array_equal(got, arr)
        assert got_frozen == frozen
    assert back_meta == meta


def test_manifest_dims_mismatch_detected(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(ckpt, {"w": (np.zeros((2, 3)), False)}, {"step": 0})
    manifest = os.path.join(ckpt, "manifest.tsv")
    text = open(manifest).read().replace("2,3", "3,2")
    open(manifest, "w").write(text)
    with pytest.raises(ValueError):
        load_checkpoint(ckpt)


# -- training resumption --------------------------------------------------

def test_halted_run_resumes_bitwise(tmp_path):
    cfg = make_tiny_cfg(steps=6, eval_every=2)
    a = str(tmp_path / "unbroken")
    b = str(tmp_path / "resumed")
    train(cfg, seed=3, out_dir=a, quiet=True)
    train(cfg, seed=3, out_dir=b, quiet=True, halt_after=3)
    train(cfg, seed=3, out_dir=b, quiet=True,
          resume_from=os.path.join(b, "checkpoint"))
    for name in ("metrics.tsv", "eval.tsv"):
        assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                           shallow=False), f"{name} differs after resume"


def test_resume_after_a_crash_logs_each_step_once(tmp_path, monkeypatch):
    cfg = make_tiny_cfg(steps=6, eval_every=2)
    a = str(tmp_path / "unbroken")
    b = str(tmp_path / "crashed")
    train(cfg, seed=3, out_dir=a, quiet=True)
    train(cfg, seed=3, out_dir=b, quiet=True, halt_after=2)
    ckpt = os.path.join(b, "checkpoint")

    real = train_mod.sample_batch

    def crash_at_3(step, *args):
        if step == 3:
            raise RuntimeError("simulated crash")
        return real(step, *args)

    monkeypatch.setattr(train_mod, "sample_batch", crash_at_3)
    with pytest.raises(RuntimeError, match="simulated crash"):
        train(cfg, seed=3, out_dir=b, quiet=True, resume_from=ckpt)
    monkeypatch.setattr(train_mod, "sample_batch", real)
    train(cfg, seed=3, out_dir=b, quiet=True, resume_from=ckpt)
    for name in ("metrics.tsv", "eval.tsv"):
        assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                           shallow=False), f"{name} differs after crash-resume"


def test_resume_into_a_new_directory_writes_headers(tmp_path):
    cfg = make_tiny_cfg(steps=6, eval_every=2)
    a = str(tmp_path / "unbroken")
    b = str(tmp_path / "halted")
    c = str(tmp_path / "resumed")
    train(cfg, seed=3, out_dir=a, quiet=True)
    train(cfg, seed=3, out_dir=b, quiet=True, halt_after=2)
    train(cfg, seed=3, out_dir=c, quiet=True,
          resume_from=os.path.join(b, "checkpoint"))
    for name in ("metrics.tsv", "eval.tsv"):
        with open(os.path.join(a, name)) as fh:
            header, *rows = fh.readlines()
        want = [header] + [r for r in rows if int(r.split("\t")[0]) > 2]
        with open(os.path.join(c, name)) as fh:
            assert fh.readlines() == want, name


def test_resume_refuses_a_different_seed(tmp_path):
    cfg = make_tiny_cfg(steps=4)
    a = str(tmp_path / "a")
    train(cfg, seed=3, out_dir=a, quiet=True, halt_after=2)
    ckpt = os.path.join(a, "checkpoint")
    assert load_checkpoint(ckpt)[1]["seed"] == 3
    b = str(tmp_path / "b")
    with pytest.raises(ValueError, match="seed 3, not seed 4"):
        train(cfg, seed=4, out_dir=b, quiet=True, resume_from=ckpt)
    assert not os.path.exists(b)


def test_resume_refuses_another_config(tmp_path):
    cfg = make_tiny_cfg(steps=4)
    a = str(tmp_path / "a")
    train(cfg, seed=3, out_dir=a, quiet=True, halt_after=2)
    ckpt = os.path.join(a, "checkpoint")
    digest = _sha256(os.path.join(a, "config.cfg"))
    assert load_checkpoint(ckpt)[1]["config_sha256"] == digest
    # same shapes, so only the digest tells the two configs apart
    other = dataclasses.replace(cfg, lr=cfg.lr * 2)
    save_config(str(tmp_path / "other.cfg"), other)
    other_digest = _sha256(str(tmp_path / "other.cfg"))
    b = str(tmp_path / "b")
    with pytest.raises(ValueError, match=f"config sha256 {digest}, "
                                         f"not {other_digest}$"):
        train(other, seed=3, out_dir=b, quiet=True, resume_from=ckpt)
    assert not os.path.exists(b)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_frozen_parameters_survive_training_bitwise(tmp_path):
    cfg = make_tiny_cfg(steps=4)
    out = str(tmp_path / "run")
    train(cfg, seed=2, out_dir=out, quiet=True)
    arrays, _ = load_checkpoint(os.path.join(out, "checkpoint"))

    fresh = build_model(cfg, seed=2)
    checked = 0
    for name, p in fresh.named_params():
        saved, frozen = arrays[f"model.{name}"]
        assert frozen == p.frozen
        if p.frozen:
            assert np.array_equal(saved, p.data), f"frozen {name} moved"
            checked += 1
        else:
            assert not np.array_equal(saved, p.data), f"{name} never trained"
    assert checked > 0


def test_checkpoint_covers_running_statistics(tmp_path):
    cfg = make_tiny_cfg(steps=4)
    out = str(tmp_path / "run")
    train(cfg, seed=4, out_dir=out, quiet=True)
    arrays, _ = load_checkpoint(os.path.join(out, "checkpoint"))
    fresh = build_model(cfg, seed=4)
    buffer_names = [name for name, _ in fresh.named_buffers()]
    assert buffer_names
    for name in buffer_names:
        saved, _ = arrays[f"model.{name}"]
        assert saved.shape == dict(fresh.named_buffers())[name].shape
    # batch norm statistics moved off their initialization during training
    means = [arrays[f"model.{n}"][0] for n in buffer_names
             if n.endswith("running_mean")]
    assert any(np.abs(m).max() > 0 for m in means)
