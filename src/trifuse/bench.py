"""Wall-clock scaling measurements for the scan and attention paths.

The point being measured: the aggregation path is linear in token count
while self-attention is quadratic, so their costs cross as sequences grow.
``fit_linear`` quantifies how well a set of (n, seconds) points matches a
straight line; the scan should fit with R^2 above 0.98 while attention
falls off it.

The linear fit is promised for a fixed BLAS pool, such as the one thread
that ``demos/04_aggregation_scaling.py`` and the scaling tests set. A
multi-threaded pool can switch the matmuls to its threaded kernel above a
size threshold partway through the length range; when the extra thread has
no free core to run on, the points past the switch slow down and bend the
curve, whatever the scan itself does.

Timings use medians over repetitions after warmup. They are inherently
machine-dependent and are excluded from byte-determinism guarantees; the
flops columns come from closed forms and are reproducible, and so is
``held_bytes``, the memory a forward call leaves on its tape.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .aggregation import AggregationBlock
from .nn import MultiHeadSelfAttention
from .ssm import SelectiveScan, attention_flops, ssm_flops
from .tensor import Tensor, no_grad


def median_time(fn, reps: int, warmup: int) -> float:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def fit_linear(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least squares y = a + b x; returns (a, b, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    b, a = np.polyfit(x, y, 1)
    pred = a + b * x
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return a, b, 1.0
    return a, b, 1.0 - ss_res / ss_tot


def held_bytes(module, n: int, dim: int = 16) -> int:
    """Bytes one forward call of ``module`` on ``[dim, n]`` tokens leaves
    held: its output and tape, arrays kept only in VJP closures included."""
    x = Tensor(np.random.default_rng(0).normal(size=(dim, n)),
               requires_grad=True)
    tracemalloc.start()
    try:
        out = module(x)  # noqa: F841 -- held while the memory is read
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@dataclass
class BenchRow:
    kind: str
    n: int
    seconds: float
    flops: int


def bench_scan(lengths: list[int], dim: int = 16, d_state: int = 16,
               dt_rank: int = 16, reps: int = 5, warmup: int = 2,
               seed: int = 0) -> list[BenchRow]:
    rng = np.random.default_rng([seed, 1])
    core = SelectiveScan(dim, d_state=d_state, dt_rank=dt_rank, rng=rng)
    rows = []
    for n in lengths:
        x = Tensor(rng.normal(size=(dim, n)))
        with no_grad():
            t = median_time(lambda: core(x), reps, warmup)
        rows.append(BenchRow("scan", n, t, ssm_flops(dim, d_state, dt_rank, n)))
    return rows


def bench_attention(lengths: list[int], dim: int = 16, heads: int = 4,
                    reps: int = 5, warmup: int = 2,
                    seed: int = 0) -> list[BenchRow]:
    rng = np.random.default_rng([seed, 2])
    att = MultiHeadSelfAttention(dim, heads, rng)
    rows = []
    for n in lengths:
        x = Tensor(rng.normal(size=(dim, n)))
        with no_grad():
            t = median_time(lambda: att(x), reps, warmup)
        rows.append(BenchRow("attention", n, t, attention_flops(dim, heads, n)))
    return rows


def bench_block(lengths: list[int], dim: int = 16, d_state: int = 8,
                dt_rank: int = 8, kernel: int = 3, reps: int = 5,
                warmup: int = 2, seed: int = 0) -> list[BenchRow]:
    """Full aggregation block forward over three modality streams."""
    rng = np.random.default_rng([seed, 3])
    block = AggregationBlock(dim, d_state, dt_rank, kernel, rng)
    block.train()
    rows = []
    for n in lengths:
        fs = Tensor(rng.normal(size=(3, dim, n)))    # the three streams
        with no_grad():
            t = median_time(lambda: block(fs), reps, warmup)
        flops = 3 * ssm_flops(dim, d_state, dt_rank, n) \
            + ssm_flops(dim, d_state, dt_rank, 3 * n)
        rows.append(BenchRow("block", n, t, flops))
    return rows
