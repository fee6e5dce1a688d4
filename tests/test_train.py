"""Training harness pieces: schedule, sampler, optimizer, builders."""

import ast
import dataclasses
import os
from collections import Counter

import numpy as np
import pytest

from conftest import make_tiny_cfg, run_pinned_script
from trifuse import tensor as T
from trifuse import train as training
from trifuse.bench import step_bytes
from trifuse.cli import ABLATE_GRID
from trifuse.config import RunConfig, load_config
from trifuse.losses import total_loss
from trifuse.ssm import scan_sequential
from trifuse.tensor import NonFiniteError, Param, Tensor, set_default_dtype
from trifuse.train import (Adam, build_model, build_world, evaluate_model,
                           lr_at, sample_batch)

TOY_CFG = os.path.join(os.path.dirname(__file__), "..", "demos", "toy.cfg")


# -- learning rate schedule ----------------------------------------------

def test_lr_warmup_then_cosine_floor():
    cfg = make_tiny_cfg(steps=100, lr=1e-3, warmup_frac=0.1, min_lr_frac=0.01)
    warmup = 10
    ramp = [lr_at(s, cfg) for s in range(warmup)]
    assert ramp[-1] == pytest.approx(cfg.lr)
    assert np.allclose(np.diff(ramp), cfg.lr / warmup)

    tail = [lr_at(s, cfg) for s in range(warmup, cfg.steps)]
    assert all(np.diff(tail) < 0)
    assert lr_at(cfg.steps - 1, cfg) >= cfg.lr * cfg.min_lr_frac
    assert lr_at(cfg.steps - 1, cfg) < cfg.lr * 0.05


def test_lr_midpoint_of_cosine():
    cfg = make_tiny_cfg(steps=110, lr=2e-3, warmup_frac=10 / 110.0,
                        min_lr_frac=0.0)
    # halfway through decay the cosine sits at half amplitude
    assert lr_at(60, cfg) == pytest.approx(cfg.lr / 2, rel=1e-12)


# -- batch sampler --------------------------------------------------------

def test_sampler_pk_structure_and_determinism():
    cfg = make_tiny_cfg(batch_p=3, batch_k=2, num_ids=5)
    world = build_world(cfg, seed=0)
    data = world.train_part(4)

    s1, l1 = sample_batch(7, 0, data, cfg)
    s2, l2 = sample_batch(7, 0, data, cfg)
    assert np.array_equal(l1, l2)
    assert np.array_equal(s1, s2)
    assert s1.shape == (3, 6) + data.images.shape[2:]

    assert len(l1) == 6
    ids, counts = np.unique(l1, return_counts=True)
    assert len(ids) == 3
    assert np.all(counts == 2)

    _, l3 = sample_batch(8, 0, data, cfg)
    assert not np.array_equal(l1, l3)


def test_sampler_replaces_when_pool_is_short():
    cfg = make_tiny_cfg(batch_p=2, batch_k=4, num_ids=2)
    data = build_world(cfg, seed=1).train_part(2)  # only 2 instances per id
    _, labels = sample_batch(0, 1, data, cfg)
    assert len(labels) == 8


def test_sampler_rejects_oversized_p():
    # validate() refuses num_ids < batch_p, so the world is built from a
    # valid config and only the sampler sees the oversized P
    cfg = make_tiny_cfg(batch_p=2, num_ids=4)
    data = build_world(cfg, seed=1).train_part(2)
    with pytest.raises(ValueError):
        sample_batch(0, 1, data, dataclasses.replace(cfg, batch_p=9))


# -- optimizer -------------------------------------------------------------

def _reference_adam(w, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w = w - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    return w


def test_adam_matches_reference_updates():
    rng = np.random.default_rng(0)
    w0 = rng.normal(size=(3, 2))
    grads = [rng.normal(size=(3, 2)) for _ in range(5)]

    p = Param(w0.copy())
    opt = Adam([("w", p)])
    for g in grads:
        p.grad[...] = g
        opt.step(1e-2)
    assert np.allclose(p.data, _reference_adam(w0, grads, 1e-2), atol=1e-14)


def test_adam_skips_frozen_params():
    p = Param(np.ones(3))
    q = Param(np.ones(3))
    q.freeze()
    opt = Adam([("p", p), ("q", q)])
    p.grad[...] = 1.0
    opt.step(0.1)
    assert not np.allclose(p.data, 1.0)
    assert np.array_equal(q.data, np.ones(3))
    assert list(opt.m) == ["p"]


def test_adam_state_round_trip_continues_exactly():
    rng = np.random.default_rng(1)
    w0 = rng.normal(size=4)
    grads = [rng.normal(size=4) for _ in range(3)]

    p = Param(w0.copy())
    opt = Adam([("w", p)])
    for g in grads:
        p.grad[...] = g
        opt.step(1e-2)
    unbroken = p.data.copy()

    p2 = Param(w0.copy())
    opt2 = Adam([("w", p2)])
    for g in grads[:2]:
        p2.grad[...] = g
        opt2.step(1e-2)
    saved = {k: v.copy() for k, v in opt2.state_arrays().items()}
    data = p2.data.copy()

    p3 = Param(data)
    opt3 = Adam([("w", p3)])
    opt3.load_state_arrays(saved, t=2)
    p3.grad[...] = grads[2]
    opt3.step(1e-2)
    assert np.array_equal(p3.data, unbroken)


def test_adam_refuses_a_non_finite_gradient_and_changes_nothing():
    p, q = Param(np.ones(3)), Param(np.ones((2, 2)))
    opt = Adam([("p", p), ("q", q)])
    p.grad[...] = 1.0
    q.grad[...] = 2.0
    opt.step(0.1)
    before = [p.data.copy(), q.data.copy(), opt.t] + [
        a.copy() for a in opt.state_arrays().values()]
    q.grad[1, 0] = np.inf
    with pytest.raises(NonFiniteError, match=r"^non-finite gradient in q$"):
        opt.step(0.1)
    after = [p.data, q.data, opt.t] + list(opt.state_arrays().values())
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


# -- builders and evaluation ----------------------------------------------

def test_trainable_surface_grows_with_toggles():
    cfg = make_tiny_cfg()
    variants = {
        "frozen": dict(use_pfa=False, use_srp=False, use_ma=False),
        "pfa": dict(use_pfa=True, use_srp=False, use_ma=False),
        "pfa_srp": dict(use_pfa=True, use_srp=True, use_ma=False),
        "full": dict(use_pfa=True, use_srp=True, use_ma=True),
    }
    counts = {}
    for name, toggles in variants.items():
        model = build_model(dataclasses.replace(cfg, **toggles), seed=0)
        counts[name] = model.num_trainable()
    assert counts["frozen"] < counts["pfa"] < counts["pfa_srp"] < counts["full"]
    # identity heads stay trainable even with every toggle off
    assert counts["frozen"] > 0


def test_separation_mode_has_more_refinement_parameters():
    cfg = make_tiny_cfg(use_pfa=False, use_ma=False)
    fusion = build_model(cfg, seed=0)
    separation = build_model(
        dataclasses.replace(cfg, srp_mode="separation"), seed=0)
    assert separation.num_trainable() > fusion.num_trainable()


def test_evaluate_model_restores_training_mode():
    cfg = make_tiny_cfg()
    model = build_model(cfg, seed=0)
    world = build_world(cfg, seed=0)
    query, gallery = world.eval_parts(cfg.eval_instances_per_id,
                                      cfg.eval_queries_per_id)

    model.train()
    res = evaluate_model(model, query, gallery)
    assert model.training
    assert 0.0 <= res.mean_ap <= 1.0

    model.eval()
    evaluate_model(model, query, gallery)
    assert not model.training


# -- precision --------------------------------------------------------------

def test_f32_step_stays_float32_end_to_end(monkeypatch):
    f32 = np.dtype(np.float32)
    seen = {}
    from_op = Tensor._from_op.__func__

    def recording(cls, data, parents, vjp, op):
        seen.setdefault(op, set()).add(data.dtype)
        return from_op(cls, data, parents, vjp, op)

    monkeypatch.setattr(Tensor, "_from_op", classmethod(recording))
    cfg = make_tiny_cfg()
    set_default_dtype(np.float32)
    try:
        model = build_model(cfg, seed=0).train()
        opt = Adam(model.named_params())
        world = build_world(cfg, seed=0)
        data = world.train_part(cfg.instances_per_id)
        images, labels = sample_batch(0, 0, data, cfg)
        loss, _ = total_loss(model.forward_batch(images), labels,
                             model.heads, cfg)
        loss.backward()
        opt.step(lr_at(0, cfg))
        model.eval().features(images[:, :2])
    finally:
        set_default_dtype(np.float64)

    assert seen
    wide = {op: dtypes for op, dtypes in seen.items() if dtypes != {f32}}
    assert not wide, f"ops emitting non-float32 output: {wide}"
    for name, p in model.named_params():
        assert p.data.dtype == f32 and p.grad.dtype == f32, name
    for name, buf in model.named_buffers():
        assert buf.dtype == f32, name
    for name, arr in opt.state_arrays().items():
        assert arr.dtype == f32, name
    assert Tensor(1.0).data.dtype == np.float64


#: tape nodes one forward-plus-loss step of demos/toy.cfg records
TOY_STEP_OPS = 102
#: the same at the default RunConfig
DEFAULT_STEP_OPS = 190


def _count_ops(monkeypatch) -> Counter:
    """Count, by op name, every ``Tensor._from_op`` call from here on."""
    counts = Counter()
    from_op = Tensor._from_op.__func__

    def counting(cls, data, parents, vjp, op):
        counts[op] += 1
        return from_op(cls, data, parents, vjp, op)

    monkeypatch.setattr(Tensor, "_from_op", classmethod(counting))
    return counts


def _assert_step_ops_at_most(monkeypatch, cfg, limit):
    model = build_model(cfg, seed=3).train()
    data = build_world(cfg, seed=3).train_part(cfg.instances_per_id)
    images, labels = sample_batch(0, 3, data, cfg)
    counts = _count_ops(monkeypatch)
    total_loss(model.forward_batch(images), labels, model.heads, cfg)
    ops = sum(counts.values())
    assert ops <= limit, (
        f"one step records {ops} ops, more than {limit}: "
        f"{dict(counts.most_common(8))}")


#: bytes one step of demos/toy.cfg (seed 3) holds after forward and loss,
#: and its peak through backward, by ``bench.step_bytes``: 2.56 and 2.97 MB
#: measured, plus a 9% margin. Nodes that kept silu's input, norm_affine's
#: normalised copy and the scan's token-major x and delta x held 2.81 MB
TOY_STEP_HELD_BYTES = 2_790_000
TOY_STEP_PEAK_BYTES = 3_240_000
#: the same at the long_seq_train size, 64x32 images in 4x4 patches:
#: 22.40 and 26.45 MB measured, 25.85 and 29.84 MB with those copies
LONG_STEP_HELD_BYTES = 24_400_000
LONG_STEP_PEAK_BYTES = 28_800_000


def _assert_step_bytes_below(cfg, held_limit, peak_limit):
    held, peak = step_bytes(cfg, seed=3)
    assert held < held_limit, held
    assert peak < peak_limit, peak


def test_toy_step_holds_no_more_than_its_vjps_read():
    _assert_step_bytes_below(load_config(TOY_CFG), TOY_STEP_HELD_BYTES,
                             TOY_STEP_PEAK_BYTES)


def test_long_seq_step_holds_no_more_than_its_vjps_read():
    cfg = dataclasses.replace(load_config(TOY_CFG), image_h=64, image_w=32,
                              patch=4)
    _assert_step_bytes_below(cfg, LONG_STEP_HELD_BYTES, LONG_STEP_PEAK_BYTES)


def test_toy_step_op_count_does_not_grow(monkeypatch):
    _assert_step_ops_at_most(monkeypatch, load_config(TOY_CFG), TOY_STEP_OPS)


def test_default_step_op_count_does_not_grow(monkeypatch):
    _assert_step_ops_at_most(monkeypatch, RunConfig(), DEFAULT_STEP_OPS)


def _ops_registered_in_tensor_py() -> set[str]:
    """The names ``tensor.py`` registers with ``@_diffop(...)``."""
    with open(T.__file__) as fh:
        tree = ast.parse(fh.read())
    return {dec.args[0].value for node in tree.body
            if isinstance(node, ast.FunctionDef)
            for dec in node.decorator_list
            if isinstance(dec, ast.Call)
            and getattr(dec.func, "id", None) == "_diffop"}


#: the tape nodes registered outside ``tensor.py``: BatchNorm's eval node
#: and the two loss terms
_REGISTERED_ELSEWHERE = {"batch_norm", "ce_smooth", "triplet_batch_hard"}


def test_registry_names_tape_ops_only():
    # modules have gradcheck cases, not registry entries
    assert T.DIFFERENTIABLE_OPS == (_ops_registered_in_tensor_py()
                                    | _REGISTERED_ELSEWHERE)


def test_every_registered_op_runs_in_some_model_variant(monkeypatch):
    # no registered op is dead code and no recorded op goes unregistered
    # (so without a gradcheck case): the ops a train step (forward, loss,
    # backward) or an eval features pass of some variant records are
    # exactly the registered ones but exp, whose one caller is the
    # reference scan the tests hold the fused scan to
    variants = [toggles for _, toggles in ABLATE_GRID] + [
        dict(srp_mode="separation"), dict(ma_intra=False),
        dict(ma_inter=False)]
    counts = _count_ops(monkeypatch)
    for toggles in variants:
        cfg = make_tiny_cfg(**toggles)
        model = build_model(cfg, seed=0).train()
        data = build_world(cfg, seed=0).train_part(cfg.instances_per_id)
        images, labels = sample_batch(0, 0, data, cfg)
        loss, _ = total_loss(model.forward_batch(images), labels,
                             model.heads, cfg)
        loss.backward()
        model.eval().features(images)
    registered = _ops_registered_in_tensor_py() | _REGISTERED_ELSEWHERE
    assert len(registered) == 22
    expected = registered - {"exp"}
    assert set(counts) == expected, sorted(set(counts) ^ expected)

    counts.clear()
    rng = np.random.default_rng(0)
    scan_sequential(*(Tensor(rng.normal(size=s)) for s in (
        (2, 3), (2, 3), (2, 2), (2, 3), (2, 3), (2,))))
    assert counts["exp"] == 2


# -- finite checks ------------------------------------------------------------

def test_clean_toy_step_makes_no_per_op_finite_checks(monkeypatch, tmp_path):
    checked = Counter()
    check, sample = T._check_finite, training.sample_batch

    def counting(arr, op):
        checked[op] += 1
        check(arr, op)

    def sampling(*args):
        checked.clear()  # building the model checks each new param
        return sample(*args)

    monkeypatch.setattr(T, "_check_finite", counting)
    monkeypatch.setattr(training, "sample_batch", sampling)
    cfg = dataclasses.replace(load_config(TOY_CFG), steps=1, eval_every=1)
    training.train(cfg, 3, str(tmp_path), quiet=True)
    # the step, its eval pass and the checkpoint
    assert not checked, dict(checked)
    # direct tensor use keeps its per-op checks
    T.add(Tensor(1.0), 1.0)
    assert checked == {"tensor": 2, "add": 1}


def test_nan_planted_mid_run_names_op_module_and_step(monkeypatch, tmp_path):
    seen = {}
    build, sample = training.build_model, training.sample_batch

    class Recorded(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen["opt"] = self

    def planting(step, *args):
        if step == 3:  # logged as step 4 in metrics.tsv
            params = dict(seen["model"].named_params())
            params["aggregator.blocks.0.inter_ssm.a_log"].data[0, 0] = np.nan
            seen["params"] = {n: p.data.copy() for n, p in params.items()}
            seen["moments"] = {n: a.copy() for n, a
                               in seen["opt"].state_arrays().items()}
        return sample(step, *args)

    monkeypatch.setattr(training, "build_model",
                        lambda *a: seen.setdefault("model", build(*a)))
    monkeypatch.setattr(training, "Adam", Recorded)
    monkeypatch.setattr(training, "sample_batch", planting)
    cfg = make_tiny_cfg(steps=6, eval_every=2)
    with pytest.raises(NonFiniteError,
                       match=r"^op 'selective_scan' produced non-finite values "
                             r"in aggregator\.blocks\.0\.inter_ssm at step 4$"):
        training.train(cfg, 0, str(tmp_path), quiet=True)

    for name, p in seen["model"].named_params():
        assert np.array_equal(p.data, seen["params"][name], equal_nan=True), name
    for name, arr in seen["opt"].state_arrays().items():
        assert np.array_equal(arr, seen["moments"][name]), name
    assert seen["opt"].t == 3
    rows = (tmp_path / "metrics.tsv").read_text().splitlines()[1:]
    assert [row.split("\t")[0] for row in rows] == ["1", "2", "3"]
    assert not (tmp_path / "checkpoint").exists()


def test_failed_step_restores_batch_norm_statistics(monkeypatch, tmp_path):
    seen = {}
    build, sample = training.build_model, training.sample_batch

    def planting(step, *args):
        if step == 2:  # logged as step 3 in metrics.tsv
            model = seen["model"]
            seen["buffers"] = {n: b.copy() for n, b in model.named_buffers()}
            params = dict(model.named_params())
            params["adapters.0.w1"].data[0, 0] = np.nan
        return sample(step, *args)

    monkeypatch.setattr(training, "build_model",
                        lambda *a: seen.setdefault("model", build(*a)))
    monkeypatch.setattr(training, "sample_batch", planting)
    with pytest.raises(NonFiniteError,
                       match=r"^op 'mlp' produced non-finite values in "
                             r"adapters\.0 at step 3$"):
        training.train(make_tiny_cfg(steps=4), 0, str(tmp_path), quiet=True)

    buffers = dict(seen["model"].named_buffers())
    assert buffers.keys() == seen["buffers"].keys() and buffers
    for name, buf in buffers.items():
        assert np.array_equal(buf, seen["buffers"][name]), name


def test_finite_forward_with_overflowing_gradient_names_the_param(
        monkeypatch, tmp_path):
    def loss_with_steep_term(feats, labels, heads, cfg):
        loss, parts = total_loss(feats, labels, heads, cfg)
        # zero while the bias is (it starts at zero), with slope 1e600
        steep = T.tsum(T.mul(T.mul(heads.bias, 1e300), 1e300))
        return T.add(loss, steep), parts

    monkeypatch.setattr(training, "total_loss", loss_with_steep_term)
    with pytest.raises(NonFiniteError,
                       match=r"^non-finite gradient in heads\.bias "
                             r"at step 1$"):
        training.train(make_tiny_cfg(), 0, str(tmp_path), quiet=True)


# -- memory reuse across steps --------------------------------------------

_FAULTS_CHILD = """
import dataclasses, json, resource, sys
from trifuse import train as T
from trifuse.config import RunConfig, load_config
from trifuse.losses import total_loss

def faults_per_call(run, warmup=2, calls=3):
    for i in range(warmup):
        run(i)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for i in range(warmup, warmup + calls):
        run(i)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls

toy = load_config(sys.argv[1])
cfg = dataclasses.replace(toy, num_ids=32, eval_instances_per_id=6,
                          eval_queries_per_id=2)
model = T.build_model(cfg, 1).eval()
query, gallery = T.build_world(cfg, 1).eval_parts(6, 2)
eval_pass = faults_per_call(
    lambda i: (model.features(query.images), model.features(gallery.images)))

cfg = dataclasses.replace(toy, image_h=64, image_w=32, patch=4)
model = T.build_model(cfg, 1).train()
opt = T.Adam(model.named_params())
data = T.build_world(cfg, 1).train_part(cfg.instances_per_id)

def step(i):
    images, labels = T.sample_batch(i, 1, data, cfg)
    opt.zero_grad()
    loss, _ = total_loss(model.forward_batch(images), labels, model.heads, cfg)
    loss.backward()
    opt.step(T.lr_at(i, cfg))

json.dump({"eval_pass": eval_pass, "train_step": faults_per_call(step, 3)},
          sys.stdout)
"""


def test_steps_and_eval_passes_reuse_freed_memory():
    # the tape a step frees (about 64 MB at this size) stays in the heap
    # for the next step instead of going back to the kernel and faulting
    # in again, about 16,000 minor faults per step with glibc's defaults
    if not T._keep_freed_memory():
        pytest.skip("the allocator thresholds are set on glibc only")
    faults = run_pinned_script(_FAULTS_CHILD, TOY_CFG)
    assert faults["train_step"] < 100, faults
    assert faults["eval_pass"] < 100, faults
