"""Why scan, not attend.

The aggregation stage exists to mix long concatenated token sequences, and
the scan is what keeps that affordable. The operation-count models say the
scan grows linearly with tokens while attention grows quadratically. The
wall clock agrees, timed on a one-thread BLAS pool: a larger pool can
switch kernels partway through the length range and bend the curves. The
memory one forward call leaves on the tape, which numpy reports to
tracemalloc the same way on any machine, doubles when the tokens double
for both: attention's node keeps only its softmax shift and column sums,
and its backward pass rebuilds the [N, N] exponentials, so attention pays
for long sequences in time, not in held memory.
"""

import os

from trifuse.cli import _THREAD_VARS

# the pool size is read when numpy loads, so set it before importing numpy
for var in _THREAD_VARS:
    os.environ[var] = "1"

import numpy as np

from trifuse.bench import (bench_attention, bench_block, bench_scan,
                           fit_linear, held_bytes)
from trifuse.nn import MultiHeadSelfAttention
from trifuse.ssm import SelectiveScan, attention_flops, ssm_flops

print("operation counts, doubling the token count each row")
print(f"{'tokens':>8} {'scan':>14} {'attention':>14}")
for k in (1024, 2048, 4096, 8192):
    print(f"{k:>8} {ssm_flops(64, 16, 32, k):>14,} "
          f"{attention_flops(64, 4, k):>14,}")

lengths = [128, 256, 512, 1024]
print("\nmeasured forward times (median of 3)")

for label, fn in (("scan", bench_scan), ("block", bench_block),
                  ("attention", bench_attention)):
    rows = fn(lengths, reps=3, warmup=1, seed=0)
    times = " ".join(f"t({r.n})={r.seconds:.2e}s" for r in rows)
    _, _, r2 = fit_linear(np.array(lengths, float),
                          np.array([r.seconds for r in rows]))
    print(f"{label:>10}: {times}  linear fit r2={r2:.4f}")

att = bench_attention([512, 1024], reps=3, warmup=1, seed=0)
print(f"\nattention doubling ratio t(1024)/t(512) = "
      f"{att[1].seconds / att[0].seconds:.2f} (a linear op would give 2)")

print("\nheld tape memory of one forward call, ratio per doubling of tokens"
      " (both linear: attention keeps no [N, N] array)")
for label, module in (
        ("scan", SelectiveScan(16, d_state=16, dt_rank=16,
                               rng=np.random.default_rng(1))),
        ("attention", MultiHeadSelfAttention(16, 4, np.random.default_rng(2)))):
    held = [held_bytes(module, n) for n in lengths]
    ratios = " ".join(f"x{b / a:.2f}" for a, b in zip(held, held[1:]))
    print(f"{label:>10}: {held[-1] / 2**20:.2f} MB at {lengths[-1]} tokens, "
          f"ratios {ratios} (linear gives x2, quadratic x4)")
