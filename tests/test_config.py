"""Flat key=value configuration files."""

import dataclasses
import os

import pytest

from conftest import make_tiny_cfg
from trifuse.config import RunConfig, load_config, save_config
from trifuse.train import train


def test_save_load_round_trip(tmp_path):
    cfg = RunConfig(lr=1.25e-4, steps=37, use_srp=False, srp_mode="separation",
                    rho=0.8125)
    path = str(tmp_path / "run.cfg")
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_float_precision_survives_round_trip(tmp_path):
    cfg = RunConfig(lr=1.0 / 3.0, sigma=0.1 + 0.2)
    path = str(tmp_path / "run.cfg")
    save_config(path, cfg)
    back = load_config(path)
    assert back.lr == cfg.lr
    assert back.sigma == cfg.sigma


def test_comments_blank_lines_and_spacing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a full-line comment\n"
        "\n"
        "steps=9\n"
        "  lr =  1e-3   # trailing comment\n"
        "use_ma = off\n")
    cfg = load_config(str(path))
    assert cfg.steps == 9
    assert cfg.lr == 1e-3
    assert cfg.use_ma is False
    # untouched keys keep their defaults
    assert cfg.embed_dim == RunConfig().embed_dim


def test_unknown_key_rejected_with_location(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("steps = 5\nlerning_rate = 1e-3\n")
    with pytest.raises(ValueError, match="2.*lerning_rate"):
        load_config(str(path))


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("steps 5\n")
    with pytest.raises(ValueError, match="key = value"):
        load_config(str(path))


@pytest.mark.parametrize("raw,value", [
    ("true", True), ("1", True), ("YES", True), ("on", True),
    ("false", False), ("0", False), ("No", False), ("off", False),
])
def test_boolean_spellings(tmp_path, raw, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"use_pfa = {raw}\n")
    assert load_config(str(path)).use_pfa is value


def test_bad_boolean_and_int_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("use_pfa = maybe\n")
    with pytest.raises(ValueError, match="boolean"):
        load_config(str(path))
    path.write_text("steps = 2.5\n")
    with pytest.raises(ValueError):
        load_config(str(path))


@pytest.mark.parametrize("line,key,expected,raw", [
    ("steps = 3.5", "steps", "an int", "3.5"),
    ("lr = fast", "lr", "a float", "fast"),
    ("use_ma = maybe", "use_ma", "a boolean", "maybe"),
])
def test_unparsable_value_names_file_line_and_key(tmp_path, line, key,
                                                   expected, raw):
    path = tmp_path / "run.cfg"
    path.write_text(f"# header\n{line}\n")
    with pytest.raises(ValueError) as err:
        load_config(str(path))
    assert str(err.value) == f"{path}:2: {key}: expected {expected}, got '{raw}'"


def test_repeated_key_refused_with_both_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("steps = 10\nlr = 1e-3\nsteps = 20\n")
    with pytest.raises(ValueError) as err:
        load_config(str(path))
    assert str(err.value) == f"{path}:3: duplicate key 'steps' (first on line 1)"


def test_base_config_overlay(tmp_path):
    base = RunConfig(steps=50, lr=9e-4)
    path = tmp_path / "run.cfg"
    path.write_text("steps = 60\n")
    merged = load_config(str(path), base=base)
    assert merged.steps == 60
    assert merged.lr == 9e-4
    assert merged is not base
    assert base == RunConfig(steps=50, lr=9e-4)


@pytest.mark.parametrize("key,value", [
    ("image_h", 6), ("image_w", 10), ("embed_dim", 7), ("conv_kernel", 4),
    ("srp_mode", "fused"), ("eval_every", 0), ("batch_p", 1),
    ("batch_k", 1), ("rho", 0.0), ("rho", 1.5), ("patch", 0), ("heads", 0),
    ("dt_rank", 0), ("embed_dim", 0), ("ffn_ratio", 0), ("channels", 0),
    ("pfa_hidden_ratio", 0.0), ("num_cams", 0), ("conv_kernel", -1),
    ("num_ids", 1), ("eval_queries_per_id", 2), ("eval_queries_per_id", 0),
    ("num_cams", 1), ("instances_per_id", 0), ("image_h", 0), ("image_w", 0),
    ("n_prompts", -1), ("n_prompts", 0), ("ma_blocks", -1), ("d_state", 0),
    ("smoothing", 1.5),
])
def test_bad_values_fail_at_load_naming_the_key(tmp_path, key, value):
    # the tiny config has patch 4 and heads 2
    good = make_tiny_cfg()
    good.validate()
    bad = dataclasses.replace(good, **{key: value})
    with pytest.raises(ValueError, match=f"^{key} = "):
        bad.validate()

    path = str(tmp_path / "run.cfg")
    save_config(path, bad)
    with pytest.raises(ValueError, match=f"^{key} = "):
        load_config(path)

    out = str(tmp_path / "run")
    with pytest.raises(ValueError, match=f"^{key} = "):
        train(bad, seed=0, out_dir=out, quiet=True)
    assert not os.path.exists(out)
