"""The checkpoint state file, atomic saves, and exact resumption."""

import dataclasses
import errno
import filecmp
import hashlib
import os
import re
import struct

import numpy as np
import pytest

from conftest import make_tiny_cfg
from trifuse import dump
from trifuse.config import save_config
from trifuse.dump import MAGIC, load_checkpoint, read_meta, save_checkpoint
from trifuse import train as train_mod
from trifuse.train import build_model, train


# -- the state file ---------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_array_round_trip(tmp_path, dtype):
    rng = np.random.default_rng(0)
    arrays = {f"a{len(shape)}": (rng.normal(size=shape).astype(dtype), False)
              for shape in [(), (5,), (3, 4), (2, 3, 4)]}
    save_checkpoint(str(tmp_path / "ckpt"), arrays, {})
    back, _ = load_checkpoint(str(tmp_path / "ckpt"))
    for name, (arr, _) in arrays.items():
        got = back[name][0]
        assert got.dtype == dtype
        assert got.shape == arr.shape
        assert np.array_equal(got, arr)


def test_write_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(ValueError, match="int64"):
        save_checkpoint(str(tmp_path / "ckpt"),
                        {"w": (np.arange(3), False)}, {})


def test_read_rejects_corrupt_files(tmp_path):
    good = str(tmp_path / "good")
    save_checkpoint(good, {"w": (np.ones((2, 2)), False)}, {"step": 1})
    blob = open(os.path.join(good, dump.STATE), "rb").read()

    cases = {
        "magic": b"XXXX" + blob[4:],
        "version": blob[:4] + bytes([9]) + blob[5:],
        "dtype": blob.replace(b"\tf8\t", b"\tf9\t"),
        "meta_kind": blob.replace(b"\ti\t1", b"\tq\t1"),
        "truncated_prefix": blob[:5],
        "truncated_header": blob[:20],
        "short_payload": blob[:-8],
        "trailing_bytes": blob + b"\0" * 8,
    }
    for name, broken in cases.items():
        assert broken != blob, name
        ckpt = tmp_path / name
        ckpt.mkdir()
        path = ckpt / dump.STATE
        path.write_bytes(broken)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(str(ckpt))


def test_header_layout_is_as_documented(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    w = np.arange(21, dtype=np.float32).reshape(3, 7)
    b = np.array([0.5, -1.0])
    save_checkpoint(ckpt, {"w": (w, False), "b": (b, True)},
                    {"step": 4, "lr": 0.1, "config_sha256": "ab"})
    assert os.listdir(ckpt) == ["state.mptd"]
    blob = open(os.path.join(ckpt, "state.mptd"), "rb").read()
    magic, version, hlen = struct.unpack("<4sBQ", blob[:13])
    assert magic == MAGIC and version == 2
    header = blob[13:13 + hlen].decode()
    assert header == ("meta\tconfig_sha256\ts\tab\n"
                      "meta\tlr\tf\t0.10000000000000001\n"
                      "meta\tstep\ti\t4\n"
                      "array\tb\tf8\t2\t1\n"
                      "array\tw\tf4\t3,7\t0\n")
    assert blob[13 + hlen:] == b.astype("<f8").tobytes() + w.astype("<f4").tobytes()


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
    assert read_meta(str(tmp_path / "ckpt")) == meta


def test_header_dims_mismatch_detected(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(ckpt, {"w": (np.zeros((2, 3)), False)}, {"step": 0})
    path = os.path.join(ckpt, "state.mptd")
    blob = open(path, "rb").read()
    # same header length, one column more than the payload holds
    open(path, "wb").write(blob.replace(b"\t2,3\t", b"\t2,4\t"))
    with pytest.raises(ValueError, match="state.mptd"):
        load_checkpoint(ckpt)


class _DiskFills:
    """A file whose third write fails, as when the disk fills up."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def write(self, data):
        self.writes += 1
        if self.writes == 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


def test_a_save_that_fails_midway_keeps_the_previous_checkpoint(
        tmp_path, monkeypatch):
    ckpt = str(tmp_path / "ckpt")
    old = {"a": (np.zeros((4, 4)), False), "b": (np.ones(3), True)}
    save_checkpoint(ckpt, old, {"step": 1})
    new = {"a": (np.full((4, 4), 2.0), False), "b": (np.full(3, 3.0), True)}

    def full_disk_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return _DiskFills(fh) if "w" in mode else fh

    monkeypatch.setattr(dump, "open", full_disk_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(ckpt, new, {"step": 2})
    monkeypatch.undo()

    arrays, meta = load_checkpoint(ckpt)
    assert meta == {"step": 1}
    assert set(arrays) == set(old)
    for name, (arr, frozen) in old.items():
        assert np.array_equal(arrays[name][0], arr)
        assert arrays[name][1] == frozen
    save_checkpoint(ckpt, new, {"step": 2})
    assert os.listdir(ckpt) == ["state.mptd"]
    assert load_checkpoint(ckpt)[1] == {"step": 2}


def test_a_write_whose_sync_fails_leaves_the_old_file_and_no_temp(
        tmp_path, monkeypatch):
    path = tmp_path / "x.tsv"
    path.write_bytes(b"old bytes\n")

    def fail(fd):
        raise OSError("sync failed")

    monkeypatch.setattr(dump.os, "fsync", fail)
    with pytest.raises(OSError, match="sync failed"):
        dump.write_atomic(str(path), [b"new ", b"bytes\n"])
    assert path.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["x.tsv"]


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
