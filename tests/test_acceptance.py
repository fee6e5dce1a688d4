"""Acceptance battery: one test per top-level guarantee.

Each test here states a contract the package as a whole must honor, at the
tolerance the contract names. The unit suites pin down the pieces; this
file checks the promises a user of the library can rely on without reading
the source. Run with -v to get one pass/fail line per guarantee.
"""

import filecmp
import math
import os
from dataclasses import replace
from time import perf_counter

import numpy as np

from conftest import make_tiny_cfg, run_pinned
from trifuse.adapter import ParallelAdapter
from trifuse.aggregation import AggregationBlock, AggregationHead, Aggregator
from trifuse.backbone import VisionBackbone
from trifuse.bench import bench_attention, bench_block, fit_linear
from trifuse.cli import main
from trifuse.config import RunConfig, save_config
from trifuse.dump import load_checkpoint
from trifuse.gradcheck import format_report, run_suite
from trifuse.prompts import MODALITIES, PromptBank
from trifuse.retrieval import average_precision, evaluate
from trifuse.ssm import scan_sequential
from trifuse.tensor import Tensor, no_grad, selective_scan
from trifuse.train import build_model, build_world, train


def _zero_linear(lin):
    lin.weight.data[:] = 0.0
    if lin.bias is not None:
        lin.bias.data[:] = 0.0


def _zero_mlp(mlp):
    for p in (mlp.w1, mlp.b1, mlp.w2, mlp.b2):
        p.data[:] = 0.0


# -- 1: the fast scan is the reference scan ---------------------------------

def test_fast_scan_matches_reference_on_random_battery():
    rng = np.random.default_rng(7)
    start = perf_counter()
    with no_grad():
        for _ in range(100):
            d = int(rng.integers(1, 9))
            s = int(rng.integers(1, 17))
            k = int(rng.integers(1, 129))
            ops = [Tensor(rng.standard_normal((d, k))),
                   Tensor(rng.uniform(0.01, 1.0, (d, k))),
                   Tensor(rng.uniform(-3.0, 1.0, (d, s))),
                   Tensor(rng.standard_normal((s, k))),
                   Tensor(rng.standard_normal((s, k))),
                   Tensor(rng.standard_normal(d))]
            gap = np.abs(selective_scan(*ops).data
                         - scan_sequential(*ops).data)
            assert gap.max() < 1e-10
    assert perf_counter() - start < 10.0


# -- 2: every registered op passes the gradient check ------------------------

def test_gradient_suite_covers_every_op_within_tolerance():
    start = perf_counter()
    results = run_suite(seed=0)
    elapsed = perf_counter() - start
    names = {r.name for r in results}
    assert "model.composed_path" in names
    assert all(r.ok for r in results), format_report(results)
    assert max(r.max_err for r in results) < 1e-4
    assert elapsed < 60.0


# -- 3: scan cost is linear in tokens, attention is not ----------------------

def test_block_runtime_scales_linearly_and_attention_does_not():
    start = perf_counter()
    lengths = [256, 512, 1024, 2048]
    rows = run_pinned(bench_block, lengths, reps=3, warmup=1, seed=0)
    seconds = np.array([r.seconds for r in rows])
    _, _, r2 = fit_linear(np.array(lengths, float), seconds)
    assert r2 > 0.98

    att = run_pinned(bench_attention, [1024, 2048], reps=3, warmup=1, seed=0)
    assert att[1].seconds / att[0].seconds >= 3.0
    assert perf_counter() - start < 300.0


# -- 4: a single-channel block matches a by-hand trace ------------------------

def test_single_channel_intra_block_matches_hand_trace():
    block = AggregationBlock(dim=1, d_state=1, dt_rank=1, kernel=3,
                             rng=np.random.default_rng(0),
                             use_intra=True, use_inter=False)
    block.eval()
    # every stream's row of the stacked modules gets the same pins
    cg = block.intra_conv
    cg.proj.weight.data[:] = 1.0
    cg.proj.bias.data[:] = 0.0
    cg.conv.kernels.data[:] = np.array([[0.0, 1.0, 0.0]])
    cg.conv.bias.data[:] = 0.0
    cg.norm.gain.data[:] = 1.0
    cg.norm.shift.data[:] = 0.0
    cg.norm.running_mean[:] = 0.0
    cg.norm.running_var[:] = 1.0
    block.intra_gate.proj.weight.data[:] = 1.0
    block.intra_gate.proj.bias.data[:] = 0.0
    ssm = block.intra_ssm
    ssm.a_log.data[:] = math.log(2.0)
    ssm.skip.data[:] = 1.0
    ssm.b_proj.weight.data[:] = 1.0
    ssm.c_proj.weight.data[:] = 1.0
    ssm.dt_low.weight.data[:] = 1.0
    ssm.dt_up.weight.data[:] = 1.0
    ssm.dt_up.bias.data[:] = math.log(math.expm1(0.5))
    block.intra_merge.weight.data[:] = 1.0
    block.intra_merge.bias.data[:] = 0.0

    x = [0.3, -0.7]
    # streams n, r, t stacked on axis 0; only n is non-zero
    fs = Tensor(np.stack([np.array([x]), np.zeros((1, 2)), np.zeros((1, 2))]))
    out = block(fs)

    def sigmoid(z):
        return 1.0 / (1.0 + math.exp(-z))

    def silu(z):
        return z * sigmoid(z)

    # conv path: identity conv, eval batch norm with unit stats, silu
    s = 1.0 / math.sqrt(1.0 + 1e-5)
    u = [silu(v * s) for v in x]
    # selective coefficients with all projections pinned to one
    bias = math.log(math.expm1(0.5))
    delta = [math.log1p(math.exp(ui + bias)) for ui in u]
    abar = [math.exp(-2.0 * di) for di in delta]
    bx = [di * ui * ui for di, ui in zip(delta, u)]
    h = [bx[0], abar[1] * bx[0] + bx[1]]
    y = [ui * hi + ui for ui, hi in zip(u, h)]
    expect = [yi * silu(xi) + xi for yi, xi in zip(y, x)]

    got = out.data[0, 0]
    assert max(abs(g - e) for g, e in zip(got, expect)) < 1e-12
    # the zero-input streams stay exactly zero through the whole block
    assert np.array_equal(out.data[1], np.zeros((1, 2)))
    assert np.array_equal(out.data[2], np.zeros((1, 2)))


# -- 5: sequence bookkeeping, fused width, slot round trip, frozen params ----

def test_sequence_layout_slot_round_trip_and_frozen_params(tmp_path):
    cfg = make_tiny_cfg(steps=100, eval_every=100)

    model = build_model(cfg, seed=3)
    model.eval()
    world = build_world(cfg, seed=3)
    images = world.train_part(cfg.instances_per_id).images[:, :1]
    feats = model.forward_batch(images)
    n_patches = (cfg.image_h // cfg.patch) * (cfg.image_w // cfg.patch)
    expected = 1 + n_patches + 3 * cfg.n_prompts
    assert model.last_seq == [expected] * cfg.layers
    # the class-token and fused features, one row each
    assert feats.shape == (2, 3 * cfg.embed_dim, 1)

    # a constant marker written into a slot comes back from the same slot
    bank = PromptBank(dim=4, n_prompts=2, layers=2,
                      rng=np.random.default_rng(5))
    # markers 1, 2, 3 for streams n, r, t
    bank.prompts[0].data[:] = np.array([1.0, 2.0, 3.0])[:, None, None]
    _zero_mlp(bank.transfers)
    # the three streams stacked on axis 0; stream r is row 1
    f_star = Tensor(np.random.default_rng(6).standard_normal((3, 4, 3)))
    seq = bank.assemble_layer_input(0, f_star, None)
    # raw column layout is [tokens, slot n, slot r, slot t]
    assert seq.shape == (3, 4, 3 + 6)
    assert np.array_equal(seq.data[1, :, 5:7], np.full((4, 2), 2.0))
    assert np.array_equal(seq.data[1, :, 3:5], np.zeros((4, 2)))
    assert np.array_equal(seq.data[1, :, 7:9], np.zeros((4, 2)))
    f_back, slots = bank.harvest(seq, 3)
    assert np.array_equal(f_back.data, f_star.data)
    assert np.array_equal(slots.data[1, :, 2:4], np.full((4, 2), 2.0))
    assert np.array_equal(slots.data[1, :, 0:2], np.zeros((4, 2)))
    assert np.array_equal(slots.data[1, :, 4:6], np.zeros((4, 2)))

    # frozen parameters are bitwise untouched by 100 optimization steps
    out_dir = tmp_path / "run"
    train(cfg, seed=3, out_dir=str(out_dir), quiet=True)
    arrays, meta = load_checkpoint(str(out_dir / "checkpoint"))
    assert int(meta["step"]) == 100
    fresh = build_model(cfg, 3)
    frozen = [(n, p) for n, p in fresh.named_params() if p.frozen]
    assert frozen
    for name, p in frozen:
        arr, fz = arrays[f"model.{name}"]
        assert fz
        assert np.array_equal(arr, p.data), name


# -- 6: degenerate configurations reduce to the simpler system ---------------

def test_degenerate_configurations_reduce_exactly(tmp_path):
    rng = np.random.default_rng(11)

    # (a) a zeroed adapter leaves the frozen layer output bit identical
    bcfg = RunConfig(embed_dim=8, layers=2, heads=2, patch=4,
                     image_h=8, image_w=8, channels=1, n_prompts=0)
    layer = VisionBackbone(bcfg, np.random.default_rng(0)).blocks[0]
    adapter = ParallelAdapter(8, 16, np.random.default_rng(1))
    _zero_mlp(adapter)
    x = Tensor(rng.standard_normal((8, 7)))
    assert np.array_equal(layer(x, adapter=adapter).data, layer(x).data)

    # (b) zero prompts make assembly the identity at every layer
    bank = PromptBank(dim=6, n_prompts=0, layers=2,
                      rng=np.random.default_rng(2))
    f = Tensor(rng.standard_normal((3, 6, 5)))
    seq = bank.assemble_layer_input(0, f, None)
    assert seq.shape == (3, 6, 5)
    assert np.array_equal(seq.data, f.data)
    f_back, harvested = bank.harvest(seq, 5)
    assert np.array_equal(f_back.data, f.data)
    seq1 = bank.assemble_layer_input(1, f, harvested)
    assert np.array_equal(seq1.data, f.data)

    # (c) with transfers and refiners zeroed, each stream ignores the
    # other modalities' prompt parameters entirely
    cfg = make_tiny_cfg(use_pfa=False, use_ma=False)
    model = build_model(cfg, seed=2)
    model.eval()
    for mlp in (model.bank.transfers, model.bank.rp):
        _zero_mlp(mlp)
    images = build_world(cfg, 2).train_part(cfg.instances_per_id).images[:, :1]
    before = model.forward_batch(images).data[0]
    d = cfg.embed_dim
    stream_n = before[:d].copy()
    for lay in range(cfg.layers):
        model.bank.prompts[lay].data[1] += 3.7                # stream r
        model.bank.prompts[lay].data[2] -= 1.9                # stream t
    after = model.forward_batch(images).data[0]
    assert np.array_equal(after[:d], stream_n)
    assert not np.array_equal(after[d:2 * d], before[d:2 * d])

    # (d) zeroed merges make every block the identity, so the fused
    # feature is the bare head formula
    dim = 6
    blocks = [AggregationBlock(dim, d_state=2, dt_rank=2, kernel=3,
                               rng=np.random.default_rng(20 + i))
              for i in range(2)]
    head = AggregationHead(dim, np.random.default_rng(30))
    agg = Aggregator(blocks, head)
    agg.eval()
    for b in blocks:
        _zero_linear(b.intra_merge)
        _zero_linear(b.inter_merge)
    tokens = Tensor(np.stack([rng.standard_normal((dim, 5))
                              for _ in MODALITIES]))
    got = agg(Tensor(tokens.data[..., :1]),
              Tensor(tokens.data[..., 1:])).data.reshape(3 * dim, 1)
    pieces = []
    for i in range(len(MODALITIES)):
        t = tokens.data[i]
        v = np.concatenate([t[:, :1], t[:, 1:].mean(axis=1, keepdims=True)],
                           axis=0)
        mu = v.mean(axis=0, keepdims=True)
        var = v.var(axis=0, keepdims=True)
        normed = (head.norm.gain.data[:, None] * (v - mu)
                  / np.sqrt(var + 1e-5) + head.norm.shift.data[:, None])
        pieces.append(head.out.weight.data[i] @ normed
                      + head.out.bias.data[i][:, None])
    assert np.abs(got - np.vstack(pieces)).max() < 1e-12


# -- 7: retrieval metrics against hand values and a calibrated null ----------

def test_retrieval_metrics_hand_value_and_random_baseline():
    ap = average_precision(np.array([True, False, True]))
    # precisions at the hit ranks are 1/1 and 2/3; their mean is 5/6
    assert ap == (1.0 + 2.0 / 3.0) / 2.0
    assert abs(ap - 5.0 / 6.0) <= np.finfo(float).eps

    rng = np.random.default_rng(42)
    classes, per_gallery, per_query, feat = 4, 40, 4, 8
    g_ids = np.repeat(np.arange(classes), per_gallery)
    q_ids = np.repeat(np.arange(classes), per_query)
    maps = []
    for _ in range(50):
        res = evaluate(rng.normal(size=(feat, len(q_ids))), q_ids,
                       np.zeros(len(q_ids), int),
                       rng.normal(size=(feat, len(g_ids))), g_ids,
                       np.ones(len(g_ids), int))
        maps.append(res.mean_ap)
    assert abs(np.mean(maps) - 1.0 / classes) < 0.05


# -- 8: the toy task is learnable and the full surface beats the frozen one --

def test_toy_training_improves_retrieval(tmp_path):
    start = perf_counter()
    cfg = RunConfig()
    full = train(cfg, seed=1, out_dir=str(tmp_path / "full"), quiet=True)

    with open(tmp_path / "full" / "eval.tsv") as fh:
        rows = [line.split("\t") for line in fh.read().splitlines()]
    col = rows[0].index("map")
    assert int(rows[1][0]) == 0
    init_map = float(rows[1][col])
    assert full["map"] - init_map >= 0.2

    frozen_cfg = replace(cfg, use_pfa=False, use_srp=False, use_ma=False)
    frozen = train(frozen_cfg, seed=1, out_dir=str(tmp_path / "frozen"),
                   quiet=True)
    assert full["map"] > frozen["map"]
    assert perf_counter() - start < 600.0

    counts = {}
    for name, (pfa, srp, ma) in {"pfa": (True, False, False),
                                 "pfa_srp": (True, True, False),
                                 "full": (True, True, True)}.items():
        variant = replace(cfg, use_pfa=pfa, use_srp=srp, use_ma=ma)
        counts[name] = build_model(variant, 1).num_trainable()
    assert counts["pfa"] < counts["pfa_srp"] < counts["full"]


# -- 9: identical config and seed give byte-identical logs -------------------

def test_repeated_runs_write_byte_identical_logs(tmp_path):
    cfg_path = str(tmp_path / "run.cfg")
    save_config(cfg_path, make_tiny_cfg())

    outs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out in outs:
        assert main(["--config", cfg_path, "--seed", "5", "--out", out,
                     "train-toy"]) == 0
    for name in ("metrics.tsv", "eval.tsv", "config.cfg"):
        assert filecmp.cmp(os.path.join(outs[0], name),
                           os.path.join(outs[1], name), shallow=False), name

    for out in outs:
        assert main(["--config", cfg_path, "--seed", "5", "--out", out,
                     "eval"]) == 0
    assert filecmp.cmp(os.path.join(outs[0], "eval_report.csv"),
                       os.path.join(outs[1], "eval_report.csv"),
                       shallow=False)

    ab = [str(tmp_path / "abl_a"), str(tmp_path / "abl_b")]
    for out in ab:
        assert main(["--config", cfg_path, "--seed", "5", "--out", out,
                     "ablate"]) == 0
    assert filecmp.cmp(os.path.join(ab[0], "ablation.tsv"),
                       os.path.join(ab[1], "ablation.tsv"), shallow=False)

    subset = ["silu", "linear", "selective_scan"]
    first = format_report(run_suite(seed=0, names=subset))
    second = format_report(run_suite(seed=0, names=subset))
    assert first == second
