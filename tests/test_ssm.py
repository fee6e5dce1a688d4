"""Selective scan kernel: oracle equivalence, discretization, flops."""

import tracemalloc

import numpy as np
import pytest

from conftest import run_pinned
from trifuse.bench import bench_scan, fit_linear
from trifuse.nn import MultiHeadSelfAttention
from trifuse.ssm import (SelectiveScan, SsmDiscrete, attention_flops,
                         scan_fast, scan_sequential, ssm_flops)
from trifuse.tensor import Tensor, no_grad, softplus


def test_hand_unrolled_three_steps():
    disc = SsmDiscrete(abar=Tensor(np.full((1, 1, 3), 0.5)),
                       bbarx=Tensor(np.ones((1, 1, 3))),
                       c=Tensor(np.ones((1, 3))))
    for scan in (scan_sequential, scan_fast):
        assert np.allclose(scan(disc).data.ravel(), [1.0, 1.5, 1.75],
                           atol=1e-15)


def _random_instance(rng):
    d = int(rng.integers(1, 9))
    s = int(rng.integers(1, 17))
    k = int(rng.integers(1, 129))
    disc = SsmDiscrete(
        abar=Tensor(rng.uniform(0.0, 1.0, size=(d, s, k))),
        bbarx=Tensor(rng.normal(size=(d, s, k))),
        c=Tensor(rng.normal(size=(s, k))),
        skip=Tensor(rng.normal(size=d)),
        x=Tensor(rng.normal(size=(d, k))),
    )
    return disc


def test_fast_scan_matches_sequential_reference():
    rng = np.random.default_rng(1234)
    with no_grad():
        for _ in range(20):
            disc = _random_instance(rng)
            gap = np.abs(scan_fast(disc).data - scan_sequential(disc).data)
            assert gap.max() < 1e-10


def test_discretize_shapes_and_decay_range():
    rng = np.random.default_rng(0)
    core = SelectiveScan(4, d_state=3, dt_rank=2, rng=rng)
    x = Tensor(rng.normal(size=(4, 6)) * 5)
    disc = core.discretize(x)
    assert disc.abar.shape == (4, 3, 6)
    assert disc.bbarx.shape == (4, 3, 6)
    assert disc.c.shape == (3, 6)
    assert disc.abar.data.min() > 0.0
    assert disc.abar.data.max() < 1.0
    # Euler input path: bbarx = delta * b * x
    delta = softplus(core.dt_up(core.dt_low(x))).data
    b = core.b_proj(x).data
    want = delta[:, None, :] * b[None, :, :] * x.data[:, None, :]
    assert np.allclose(disc.bbarx.data, want, atol=1e-12)


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


def _held_bytes(module, n: int, dim: int = 16) -> int:
    """Bytes allocated by one forward call of ``module`` on ``[dim, n]``
    tokens and still held after it: the output and its tape, including
    arrays kept only in VJP closures."""
    x = Tensor(np.random.default_rng(0).normal(size=(dim, n)),
               requires_grad=True)
    tracemalloc.start()
    try:
        out = module(x)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del out
    return held


def test_tape_memory_doubles_for_scan_and_quadruples_for_attention():
    # a deterministic twin of the wall-clock fits: numpy reports its
    # buffers to tracemalloc, so the ratios hold on any machine and load
    lengths = [256, 512, 1024, 2048]
    scan = SelectiveScan(16, d_state=16, dt_rank=16,
                         rng=np.random.default_rng(1))
    held = np.array([_held_bytes(scan, n) for n in lengths], float)
    assert np.all(np.abs(held[1:] / held[:-1] - 2.0) < 0.05), held

    att = MultiHeadSelfAttention(16, 4, np.random.default_rng(2))
    held = np.array([_held_bytes(att, n) for n in lengths], float)
    assert np.all(np.abs(held[1:] / held[:-1] - 4.0) < 0.2), held
