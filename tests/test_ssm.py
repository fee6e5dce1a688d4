"""Selective scan kernel: oracle equivalence, discretization, flops."""

import tracemalloc

import numpy as np
import pytest

from conftest import run_pinned
from trifuse import tensor as T
from trifuse.bench import bench_scan, fit_linear, held_bytes, peak_bytes
from trifuse.gradcheck import check_function
from trifuse.nn import MultiHeadSelfAttention
from trifuse.ssm import (SelectiveScan, attention_flops, scan_sequential,
                         ssm_flops)
from trifuse.tensor import Tensor, mul, no_grad, selective_scan, softplus, tsum


def test_hand_unrolled_three_steps():
    # a = -1 and delta = ln 2 decay by 1/2; b = 1 / ln 2 makes each input 1
    ln2 = np.log(2.0)
    ops = [Tensor(np.ones((1, 3))), Tensor(np.full((1, 3), ln2)),
           Tensor(np.zeros((1, 1))), Tensor(np.full((1, 3), 1.0 / ln2)),
           Tensor(np.ones((1, 3))), Tensor(np.full(1, 0.5))]
    for scan in (scan_sequential, selective_scan):
        assert np.allclose(scan(*ops).data.ravel(), [1.5, 2.0, 2.25],
                           atol=1e-15)


def _operands(rng, lead, d, s, k, stacked=False):
    """x, delta, a_log, b, c, skip of a random scan; the params ``a_log``
    and ``skip`` carry a leading axis of 3 when ``stacked``."""
    rows = (3,) if stacked else ()
    return [rng.normal(size=lead + (d, k)),
            np.log1p(np.exp(rng.normal(size=lead + (d, k)))),
            rng.normal(size=rows + (d, s)) * 0.5,
            rng.normal(size=lead + (s, k)),
            rng.normal(size=lead + (s, k)),
            rng.normal(size=rows + (d,))]


def test_fast_scan_matches_sequential_reference():
    rng = np.random.default_rng(1234)
    with no_grad():
        for _ in range(20):
            d = int(rng.integers(1, 9))
            s = int(rng.integers(1, 17))
            k = int(rng.integers(1, 129))
            ops = [Tensor(v) for v in _operands(rng, (), d, s, k)]
            gap = np.abs(selective_scan(*ops).data
                         - scan_sequential(*ops).data)
            assert gap.max() < 1e-10


def _assert_fused_matches_sequential(rng, values):
    """The output and the six gradients of both scans on ``values``, under
    a random weighting of the output, agree to 1e-10 relative."""
    w = Tensor(rng.normal(size=values[0].shape))
    got = []
    for scan in (selective_scan, scan_sequential):
        ops = [Tensor(v, requires_grad=True) for v in values]
        y = scan(*ops)
        tsum(mul(y, w)).backward()
        got.append([y.data] + [t.grad for t in ops])
    for name, fast, ref in zip(("y", "x", "delta", "a_log", "b", "c",
                                "skip"), *got):
        gap = np.abs(fast - ref).max() / np.abs(ref).max()
        assert gap < 1e-10, name


@pytest.mark.parametrize("lead,stacked", [((3, 2), True), ((2,), False),
                                          ((), False), ((1, 2), False)])
def test_fused_gradients_match_sequential_reference(lead, stacked):
    # the last layout is the inter scan's: one unstacked scan over a batch,
    # lead (1, B); each layout runs three draws at K = 13 and one at
    # K = 130, a long sequence like the inter scan's 3 x k tokens
    rng = np.random.default_rng(len(lead))
    for k in (13, 13, 13, 130):
        _assert_fused_matches_sequential(
            rng, _operands(rng, lead, 3, 4, k, stacked))


def test_multi_chunk_scan_matches_sequential_reference():
    # 2 x 16 x 16 states a token leave room for 64 tokens a chunk in the
    # default cache budget, so 150 tokens run as 64, 64 and 22
    rng = np.random.default_rng(9)
    _assert_fused_matches_sequential(rng, _operands(rng, (2,), 16, 16, 150))


#: leading axes of x and whether a_log and skip stack one row per stream,
#: the layouts of test_fused_gradients_match_sequential_reference
SCAN_LAYOUTS = {"stacked": ((3, 2), True), "batched": ((2,), False),
                "single": ((), False), "inter": ((1, 2), False)}


@pytest.mark.parametrize("layout", sorted(SCAN_LAYOUTS))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_scan_chunks_give_the_one_chunk_call_bitwise(monkeypatch, dtype,
                                                     layout):
    lead, stacked = SCAN_LAYOUTS[layout]
    d, s, k = 3, 4, 13
    rng = np.random.default_rng(len(lead))
    arrays = [v.astype(dtype) for v in _operands(rng, lead, d, s, k, stacked)]
    seed = rng.normal(size=lead + (d, k)).astype(dtype)
    lengths = []  # of the chunks whose abar and h are built

    def chunk_states(*args):
        lengths.append(len(args[-1]))
        return states(*args)

    states = T._chunk_states
    monkeypatch.setattr(T, "_chunk_states", chunk_states)
    got = []
    # the whole call in one chunk, then three tokens a chunk: five
    # chunks, the last of one token, each rebuilt once by the VJP
    for budget, want in ((None, [13]), (3 * int(np.prod(lead)) * s * d,
                                        [3, 3, 3, 3, 1, 1, 3, 3, 3, 3])):
        if budget:
            monkeypatch.setattr(T, "_CACHE_ELEMS", budget)
        ops = [Tensor(a, requires_grad=True, dtype=dtype) for a in arrays]
        lengths.clear()
        out = selective_scan(*ops)
        out.backward(seed)
        assert lengths == want
        with no_grad():
            assert np.array_equal(selective_scan(*ops).data, out.data)
        got.append([out.data] + [t.grad for t in ops])
    for name, one, chunked in zip(("y", "x", "delta", "a_log", "b", "c",
                                   "skip"), *got):
        assert chunked.dtype == dtype, name
        if name == "a_log":  # summed chunk by chunk
            gap = np.abs(chunked - one).max() / np.abs(one).max()
            assert gap < (1e-13 if dtype == np.float64 else 1e-5), gap
        else:
            assert np.array_equal(chunked, one), name


@pytest.mark.parametrize("tokens_a_chunk", [None, 3])
def test_taped_scan_keeps_no_token_major_copy_of_x(monkeypatch,
                                                   tokens_a_chunk):
    # the projections of delta, b and c keep x itself, so the node keeps
    # x's own array; its VJP rebuilds x token-major, and delta x chunk by
    # chunk. None runs all 13 tokens in one chunk
    lead, stacked = SCAN_LAYOUTS["stacked"]
    d, s, k = 3, 4, 13
    if tokens_a_chunk:
        monkeypatch.setattr(T, "_CACHE_ELEMS",
                            tokens_a_chunk * int(np.prod(lead)) * s * d)
    arrays = _operands(np.random.default_rng(12), lead, d, s, k, stacked)
    ops = [Tensor(v, requires_grad=True) for v in arrays]
    out = selective_scan(*ops)
    kept = []
    for cell in out._node._vjp.__closure__:
        v = cell.cell_contents
        kept.extend(v if isinstance(v, (tuple, list)) else [v])
    kept = [v for v in kept if isinstance(v, np.ndarray)]
    xt = np.moveaxis(arrays[0], -1, 0)
    copies = [xt, np.moveaxis(arrays[1], -1, 0) * xt]    # x, delta x
    assert any(v is ops[0].data for v in kept)
    for v in kept:
        assert not any(v.shape == c.shape and np.array_equal(v, c)
                       for c in copies), v.shape
    out.backward(np.ones(out.shape))
    assert all(t.grad is not None for t in ops)


@pytest.mark.parametrize("layout", ["stacked", "batched"])
def test_scan_gradients_across_chunks_match_finite_differences(monkeypatch,
                                                               layout):
    # gradcheck's scan case runs in one chunk; two tokens a chunk here
    # puts four chunk edges inside nine tokens
    lead, stacked = SCAN_LAYOUTS[layout]
    d, s = 2, 3
    monkeypatch.setattr(T, "_CACHE_ELEMS", 2 * int(np.prod(lead)) * s * d)
    rng = np.random.default_rng(8)
    ops = [Tensor(v, requires_grad=True)
           for v in _operands(rng, lead, d, s, 9, stacked)]
    w = Tensor(rng.normal(size=ops[0].shape))
    err = check_function(lambda: tsum(mul(selective_scan(*ops), w)), ops)
    assert err < 1e-8


def _one_state_array(lead, d, s, k) -> int:
    """Bytes of one float64 [K, ..., S, D] array."""
    return 8 * k * int(np.prod(lead)) * s * d


def test_scan_without_a_tape_builds_no_whole_state_array():
    # 512 tokens run in chunks of 64: the two chunk buffers, the
    # token-major small operands and y peak below one whole abar or h
    lead, d, s, k = (2,), 16, 16, 512
    ops = [Tensor(v) for v in _operands(np.random.default_rng(10), lead,
                                        d, s, k)]
    with no_grad():
        peak = peak_bytes(lambda: selective_scan(*ops))
    assert peak < _one_state_array(lead, d, s, k), peak


def test_taped_scan_holds_less_than_one_state_array():
    # the node keeps the small operands and one state per chunk edge; its
    # VJP rebuilds abar and h chunk by chunk
    lead, d, s, k = (2,), 16, 16, 512
    ops = [Tensor(v, requires_grad=True)
           for v in _operands(np.random.default_rng(11), lead, d, s, k)]
    tracemalloc.start()
    try:
        y = selective_scan(*ops)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < _one_state_array(lead, d, s, k), held
    y.backward(np.ones(y.shape))


def test_scan_refuses_operands_on_other_leading_axes():
    # the token-major states line up b and c with x by their leading axes
    rng = np.random.default_rng(4)
    x, delta, a_log, b, c, skip = _operands(rng, (2,), 3, 4, 5)
    for bad in (b[0], b[..., :4]):
        with pytest.raises(ValueError):
            selective_scan(*(Tensor(v) for v in (x, delta, a_log, bad, bad,
                                                 skip)))


def test_discretize_shapes_and_decay_range():
    # closed form on two tokens: the first state is the Euler input
    # delta b x, the second decays it by the zero-order hold exp(delta a)
    rng = np.random.default_rng(0)
    x, delta, a_log, b, c, skip = _operands(rng, (), 4, 3, 2)
    a = -np.exp(a_log)                                      # [d, s]
    decay = np.exp(delta[:, None, 1] * a)
    assert decay.min() > 0.0 and decay.max() < 1.0
    h1 = delta[:, None, 0] * b[None, :, 0] * x[:, None, 0]  # [d, s]
    h2 = decay * h1 + delta[:, None, 1] * b[None, :, 1] * x[:, None, 1]
    want = np.stack([h1 @ c[:, 0], h2 @ c[:, 1]], axis=-1) + skip[:, None] * x
    y = selective_scan(*(Tensor(v) for v in (x, delta, a_log, b, c, skip)))
    assert y.shape == (4, 2)
    assert np.allclose(y.data, want, atol=1e-12)

    # the layer feeds the op softplus step sizes and its b and c projections
    core = SelectiveScan(4, d_state=3, dt_rank=2, rng=rng)
    xt = Tensor(x * 5)
    want = selective_scan(xt, softplus(core.dt_up(core.dt_low(xt))),
                          core.a_log, core.b_proj(xt), core.c_proj(xt),
                          core.skip)
    assert np.array_equal(core(xt).data, want.data)


def test_one_layer_call_records_six_tape_nodes():
    # four projections, the softplus of the step sizes, and the scan
    core = SelectiveScan(4, d_state=3, dt_rank=2,
                         rng=np.random.default_rng(2))
    y = core(Tensor(np.ones((2, 4, 5)), requires_grad=True))
    seen, todo = set(), [y]
    while todo:
        node = todo.pop()
        if id(node) not in seen and node._parents:
            seen.add(id(node))
            todo.extend(node._parents)
    assert len(seen) == 6


def test_step_size_initialization_window():
    for seed in range(5):
        core = SelectiveScan(8, d_state=2, dt_rank=2,
                             rng=np.random.default_rng(seed))
        dt = softplus(Tensor(core.dt_up.bias.data)).data
        assert dt.min() >= 1e-3 - 1e-12
        assert dt.max() <= 1e-1 + 1e-12


def test_zero_input_gives_zero_output():
    core = SelectiveScan(3, d_state=4, dt_rank=2,
                         rng=np.random.default_rng(7))
    y = core(Tensor(np.zeros((3, 10))))
    assert np.all(y.data == 0.0)


def test_long_sequence_stays_finite():
    rng = np.random.default_rng(5)
    core = SelectiveScan(4, d_state=8, dt_rank=4, rng=rng)
    x = Tensor(rng.normal(size=(4, 4096)))
    with no_grad():
        y = core(x)
    assert np.isfinite(y.data).all()


def test_flops_linear_in_tokens():
    base = ssm_flops(16, 16, 8, 1024)
    double = ssm_flops(16, 16, 8, 2048)
    assert 0.48 <= base / double <= 0.52


def test_attention_flops_quadratic_in_tokens():
    ratio = attention_flops(16, 4, 8192) / attention_flops(16, 4, 4096)
    assert 3.5 <= ratio <= 4.0


@pytest.mark.slow
def test_scan_runtime_scales_linearly():
    lengths = [256, 512, 1024, 2048, 4096]
    rows = run_pinned(bench_scan, lengths, dim=16, d_state=16, dt_rank=16,
                      reps=5, warmup=2, seed=0)
    times = np.array([r.seconds for r in rows])
    ratios = times[1:] / times[:-1]
    assert np.median(ratios) <= 2.5
    _, slope, r2 = fit_linear(np.array(lengths), times)
    assert slope > 0
    assert r2 > 0.98


def test_tape_memory_doubles_for_scan_and_for_attention():
    # numpy reports its buffers to tracemalloc, so the ratios hold on any
    # machine and load; attention's time grows quadratically, but its node
    # keeps no [N, N] array, so what it holds grows linearly
    lengths = [256, 512, 1024, 2048]
    scan = SelectiveScan(16, d_state=16, dt_rank=16,
                         rng=np.random.default_rng(1))
    held = np.array([held_bytes(scan, n) for n in lengths], float)
    assert np.all(np.abs(held[1:] / held[:-1] - 2.0) < 0.05), held

    att = MultiHeadSelfAttention(16, 4, np.random.default_rng(2))
    held = np.array([held_bytes(att, n) for n in lengths], float)
    assert np.all(np.abs(held[1:] / held[:-1] - 2.0) < 0.05), held
