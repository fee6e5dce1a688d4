"""Command line surface, run in process for speed."""

import csv
import filecmp
import os
import re

import numpy as np
import pytest

from conftest import make_tiny_cfg
from trifuse.cli import main
from trifuse.config import save_config
from trifuse.dump import STATE, load_checkpoint, save_checkpoint
from trifuse.tensor import default_dtype, set_default_dtype


@pytest.fixture
def tiny_cfg_path(tmp_path):
    path = str(tmp_path / "tiny.cfg")
    save_config(path, make_tiny_cfg())
    return path


def _train_args(cfg_path, out, extra=()):
    return ["--config", cfg_path, "--seed", "5", "--out", out,
            "train-toy", *extra]


def test_train_toy_writes_run_directory(tiny_cfg_path, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(_train_args(tiny_cfg_path, out)) == 0
    for name in ("config.cfg", "metrics.tsv", "eval.tsv"):
        assert os.path.exists(os.path.join(out, name))
    assert os.path.isdir(os.path.join(out, "checkpoint"))
    assert capsys.readouterr().out.rstrip().splitlines()[-1].startswith("final map")

    with open(os.path.join(out, "metrics.tsv")) as fh:
        rows = fh.read().rstrip().split("\n")
    assert rows[0].split("\t")[:3] == ["step", "lr", "total"]
    assert len(rows) == 1 + 4  # header + one row per step


def test_shared_flags_accepted_on_either_side_of_subcommand():
    from trifuse.cli import build_parser
    parser = build_parser()
    before = parser.parse_args(["--seed", "3", "--out", "x", "train-toy"])
    after = parser.parse_args(["train-toy", "--seed", "3", "--out", "x"])
    assert vars(before) == vars(after)
    # the occurrence after the subcommand wins
    mixed = parser.parse_args(["--seed", "1", "train-toy", "--seed", "3"])
    assert mixed.seed == 3


def test_same_seed_runs_are_byte_identical(tiny_cfg_path, tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert main(_train_args(tiny_cfg_path, a)) == 0
    assert main(_train_args(tiny_cfg_path, b)) == 0
    for name in ("metrics.tsv", "eval.tsv", "config.cfg"):
        assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                           shallow=False), f"{name} differs between runs"


def test_eval_subcommand_reports_on_checkpoint(tiny_cfg_path, tmp_path, capsys):
    out = str(tmp_path / "run")
    main(_train_args(tiny_cfg_path, out))
    capsys.readouterr()

    assert main(["--seed", "5", "--out", out, "eval"]) == 0
    text = capsys.readouterr().out
    assert "mAP" in text
    report = os.path.join(out, "eval_report.csv")
    with open(report, newline="") as fh:
        rows = {r[0]: r[1] for r in csv.reader(fh)}
    assert 0.0 <= float(rows["mAP"]) <= 1.0

    # the report reproduces the final eval row of the training log
    with open(os.path.join(out, "eval.tsv")) as fh:
        last = fh.read().rstrip().split("\n")[-1].split("\t")
    assert float(rows["mAP"]) == float(last[1])


def test_eval_refuses_a_different_seed(tiny_cfg_path, tmp_path):
    out = str(tmp_path / "run")
    main(_train_args(tiny_cfg_path, out))
    with pytest.raises(SystemExit, match="^error: .*seed 5, not seed 6$"):
        main(["--seed", "6", "--out", out, "eval"])
    assert not os.path.exists(os.path.join(out, "eval_report.csv"))


def test_eval_refuses_another_config_with_one_error_line(tiny_cfg_path,
                                                          tmp_path):
    # an edited config.cfg no longer matches the digest the checkpoint
    # recorded; eval names both digests on one line instead of a traceback
    out = str(tmp_path / "run")
    main(_train_args(tiny_cfg_path, out))
    cfg_path = os.path.join(out, "config.cfg")
    with open(cfg_path) as fh:
        text = fh.read()
    with open(cfg_path, "w") as fh:
        fh.write(text.replace("lr = ", "lr = 2"))
    with pytest.raises(SystemExit) as exc:
        main(["--out", out, "eval"])
    assert re.fullmatch(r"error: .* config sha256 [0-9a-f]{64}, "
                        r"not [0-9a-f]{64}", str(exc.value.code))
    assert not os.path.exists(os.path.join(out, "eval_report.csv"))


def test_eval_refuses_an_older_checkpoint_layout_with_one_error_line(
        tiny_cfg_path, tmp_path):
    # a checkpoint whose array names this model lacks, such as one written
    # before the per-modality modules were stacked, is named, not traced
    out = str(tmp_path / "run")
    main(_train_args(tiny_cfg_path, out))
    ckpt = os.path.join(out, "checkpoint")
    arrays, meta = load_checkpoint(ckpt)
    new = "model.aggregator.blocks.0.intra_conv.proj.weight"
    old = "model.aggregator.blocks.0.intra_conv.n.proj.weight"
    arrays[old] = arrays.pop(new)
    save_checkpoint(ckpt, arrays, meta)
    with pytest.raises(SystemExit) as exc:
        main(["--out", out, "eval"])
    assert str(exc.value.code) == (
        "error: unexpected entry "
        "'aggregator.blocks.0.intra_conv.n.proj.weight' in state")
    assert not os.path.exists(os.path.join(out, "eval_report.csv"))


@pytest.mark.parametrize("seed_args", [[], ["--seed", "5"]],
                         ids=["checkpoint_seed", "given_seed"])
@pytest.mark.parametrize("damage", ["missing", "truncated"])
def test_eval_refuses_a_missing_or_corrupt_state_file_with_one_error_line(
        tiny_cfg_path, tmp_path, damage, seed_args):
    out = str(tmp_path / "run")
    main(_train_args(tiny_cfg_path, out))
    state = os.path.join(out, "checkpoint", STATE)
    if damage == "missing":
        os.remove(state)
    else:
        os.truncate(state, os.path.getsize(state) // 2)
    with pytest.raises(SystemExit) as exc:
        main(["--out", out, *seed_args, "eval"])
    assert re.fullmatch(rf"error: .*{re.escape(state)}.*", str(exc.value.code))
    assert not os.path.exists(os.path.join(out, "eval_report.csv"))


def test_eval_defaults_to_the_checkpoint_seed(tiny_cfg_path, tmp_path, capsys):
    out = str(tmp_path / "run")
    main(_train_args(tiny_cfg_path, out))
    capsys.readouterr()
    assert main(["--out", out, "eval"]) == 0
    with open(os.path.join(out, "eval_report.csv"), newline="") as fh:
        rows = {r[0]: r[1] for r in csv.reader(fh)}
    with open(os.path.join(out, "eval.tsv")) as fh:
        last = fh.read().rstrip().split("\n")[-1].split("\t")
    assert float(rows["mAP"]) == float(last[1])


def test_eval_rejects_non_run_directory(tmp_path):
    empty = str(tmp_path / "empty")
    os.makedirs(empty)
    with pytest.raises(SystemExit):
        main(["--out", empty, "eval"])


def test_train_requires_out():
    with pytest.raises(SystemExit):
        main(["train-toy"])


def test_unknown_config_key_is_an_error(tmp_path):
    path = str(tmp_path / "bad.cfg")
    with open(path, "w") as fh:
        fh.write("not_a_knob = 1\n")
    with pytest.raises(ValueError, match="not_a_knob"):
        main(["--config", path, "--out", str(tmp_path / "x"), "train-toy"])


def test_halt_and_resume_flags(tiny_cfg_path, tmp_path):
    out = str(tmp_path / "run")
    ref = str(tmp_path / "ref")
    main(_train_args(tiny_cfg_path, out, extra=["--halt-after", "2"]))
    main(_train_args(tiny_cfg_path, out,
                     extra=["--resume-from", os.path.join(out, "checkpoint")]))
    main(_train_args(tiny_cfg_path, ref))
    assert filecmp.cmp(os.path.join(out, "metrics.tsv"),
                       os.path.join(ref, "metrics.tsv"), shallow=False)


def test_resume_refuses_a_different_seed_with_one_error_line(tiny_cfg_path,
                                                            tmp_path):
    out = str(tmp_path / "run")
    main(_train_args(tiny_cfg_path, out, extra=["--halt-after", "2"]))
    ckpt = os.path.join(out, "checkpoint")
    resumed = str(tmp_path / "resumed")
    with pytest.raises(SystemExit, match="^error: .*seed 5, not seed 6$"):
        main(["--config", tiny_cfg_path, "--seed", "6", "--out", resumed,
              "train-toy", "--resume-from", ckpt])
    assert not os.path.exists(os.path.join(resumed, "metrics.tsv"))


def test_resume_refuses_an_older_checkpoint_layout_with_one_error_line(
        tiny_cfg_path, tmp_path):
    # the adapters' arrays as they were named before the three MLPs became
    # one module: the checkpoint is named, not traced
    out = str(tmp_path / "run")
    main(_train_args(tiny_cfg_path, out, extra=["--halt-after", "2"]))
    ckpt = os.path.join(out, "checkpoint")
    arrays, meta = load_checkpoint(ckpt)
    arrays["model.adapters.0.up.weight"] = arrays.pop("model.adapters.0.w1")
    save_checkpoint(ckpt, arrays, meta)
    resumed = str(tmp_path / "resumed")
    with pytest.raises(SystemExit) as exc:
        main(_train_args(tiny_cfg_path, resumed, extra=["--resume-from", ckpt]))
    assert str(exc.value.code) == (
        "error: unexpected entry 'adapters.0.up.weight' in state")
    assert not os.path.exists(os.path.join(resumed, "metrics.tsv"))


def test_resume_refuses_a_checkpoint_with_two_heads_with_one_error_line(
        tiny_cfg_path, tmp_path):
    # the identity heads as they were saved before they became one head
    # stacked [2]: the checkpoint is named, not traced
    out = str(tmp_path / "run")
    main(_train_args(tiny_cfg_path, out, extra=["--halt-after", "2"]))
    ckpt = os.path.join(out, "checkpoint")
    arrays, meta = load_checkpoint(ckpt)
    for part in ("weight", "bias"):
        arr, frozen = arrays.pop(f"model.heads.{part}")
        for row, head in enumerate(("cls_head", "ma_head")):
            arrays[f"model.heads.{head}.{part}"] = (arr[row], frozen)
    save_checkpoint(ckpt, arrays, meta)
    resumed = str(tmp_path / "resumed")
    with pytest.raises(SystemExit) as exc:
        main(_train_args(tiny_cfg_path, resumed, extra=["--resume-from", ckpt]))
    assert str(exc.value.code) == (
        "error: unexpected entry 'heads.cls_head.bias' in state")
    assert not os.path.exists(os.path.join(resumed, "metrics.tsv"))


def _split_in_projections(ckpt, heads):
    """Rewrite a checkpoint as it was saved before attention's q, k and v
    maps became one in-projection: ``attn.wq``, ``attn.wk`` and
    ``attn.wv`` in place of each ``attn.wqkv``."""
    arrays, meta = load_checkpoint(ckpt)
    for name in [n for n in arrays if ".attn.wqkv." in n]:
        arr, frozen = arrays.pop(name)
        per_head = arr.reshape((heads, 3, -1) + arr.shape[1:])
        for i, part in enumerate(("wq", "wk", "wv")):
            arrays[name.replace("wqkv", part)] = (
                per_head[:, i].reshape((-1,) + arr.shape[1:]), frozen)
    save_checkpoint(ckpt, arrays, meta)


@pytest.mark.parametrize("command", ["eval", "resume"])
def test_a_checkpoint_with_separate_q_k_v_maps_is_refused_with_one_error_line(
        tiny_cfg_path, tmp_path, command):
    out = str(tmp_path / "run")
    main(_train_args(tiny_cfg_path, out, extra=["--halt-after", "2"]))
    ckpt = os.path.join(out, "checkpoint")
    _split_in_projections(ckpt, heads=2)
    resumed = str(tmp_path / "resumed")
    argv = (["--out", out, "eval"] if command == "eval" else
            _train_args(tiny_cfg_path, resumed, extra=["--resume-from", ckpt]))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert str(exc.value.code) == (
        "error: unexpected entry 'backbone.blocks.0.attn.wk.bias' in state")
    assert not os.path.exists(os.path.join(out, "eval_report.csv"))
    assert not os.path.exists(os.path.join(resumed, "metrics.tsv"))


@pytest.mark.parametrize("value", ["0", "-2"])
def test_halt_after_below_one_is_refused_at_parse_time(value, tmp_path,
                                                       capsys):
    out = str(tmp_path / "run")
    with pytest.raises(SystemExit) as exc:
        main(["--out", out, "train-toy", "--halt-after", value])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert errors == [f"trifuse train-toy: error: argument --halt-after: "
                      f"must be at least 1, got {value}"]
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, name", [("gradcheck", "gradcheck.tsv"),
                                           ("ablate", "ablation.tsv")])
def test_a_report_write_that_fails_midway_keeps_the_previous_file(
        command, name, tmp_path, monkeypatch):
    from trifuse import dump, gradcheck, train
    suite = gradcheck.run_suite
    monkeypatch.setattr(gradcheck, "run_suite",
                        lambda seed: suite(seed, names=["relu"]))
    monkeypatch.setattr(train, "train", lambda cfg, **kwargs: dict(
        map=0.5, cmc1=0.5, trainable=1))
    path = tmp_path / name
    path.write_bytes(b"previous report\n")

    def fail(fd):
        raise OSError("no space left on device")

    # the new bytes are written, then syncing them fails
    monkeypatch.setattr(dump.os, "fsync", fail)
    with pytest.raises(OSError):
        main(["--out", str(tmp_path), command])
    assert path.read_bytes() == b"previous report\n"


def test_precision_flag_switches_dtype(tiny_cfg_path, tmp_path):
    out = str(tmp_path / "f32")
    try:
        assert main(_train_args(tiny_cfg_path, out)[:-1]
                    + ["--precision", "f32", "train-toy"]) == 0
        assert default_dtype() == np.float32
        assert os.path.exists(os.path.join(out, "metrics.tsv"))
    finally:
        set_default_dtype(np.float64)


def test_threads_flag_sets_environment(tiny_cfg_path, tmp_path, capsys):
    saved = {k: os.environ.get(k) for k in
             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    out = str(tmp_path / "run")
    try:
        assert main(["--threads", "1"] + _train_args(tiny_cfg_path, out)) == 0
        assert os.environ["OMP_NUM_THREADS"] == "1"
        # numpy is long imported inside the test process, so the CLI warns
        assert "numpy already imported" in capsys.readouterr().err
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


@pytest.mark.parametrize("value", ["0", "-3"])
def test_threads_below_one_is_refused_at_parse_time(value, capsys,
                                                    monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["--threads", value, "gradcheck"])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert errors == [f"trifuse: error: argument --threads: must be at "
                      f"least 1, got {value}"]
    assert "OPENBLAS_NUM_THREADS" not in os.environ


@pytest.mark.parametrize("command", ["gradcheck", "train-toy", "eval"])
@pytest.mark.parametrize("before", [True, False])
def test_negative_seed_is_refused_at_parse_time(command, before, tmp_path,
                                                capsys):
    out = str(tmp_path / "run")
    seed = ["--seed", "-1"]
    argv = (seed + ["--out", out, command] if before
            else ["--out", out, command] + seed)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    prog = "trifuse" if before else f"trifuse {command}"
    assert errors == [f"{prog}: error: argument --seed: must be at least 0, "
                      f"got -1"]
    assert not os.path.exists(out)


@pytest.mark.slow
def test_ablate_grid_structure(tiny_cfg_path, tmp_path):
    out = str(tmp_path / "grid")
    assert main(["--config", tiny_cfg_path, "--seed", "5", "--out", out,
                 "ablate"]) == 0
    with open(os.path.join(out, "ablation.tsv")) as fh:
        rows = [line.split("\t") for line in fh.read().rstrip().split("\n")]
    assert rows[0] == ["variant", "map", "cmc1", "trainable"]
    variants = [r[0] for r in rows[1:]]
    assert variants == ["frozen", "pfa", "srp", "pfa_srp", "full"]
    trainable = {r[0]: int(r[3]) for r in rows[1:]}
    assert (trainable["frozen"] < trainable["pfa"]
            < trainable["pfa_srp"] < trainable["full"])
    for r in rows[1:]:
        assert 0.0 <= float(r[1]) <= 1.0
        assert os.path.isdir(os.path.join(out, r[0], "checkpoint"))