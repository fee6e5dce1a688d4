"""Selective state space scan.

The kernel is a diagonal linear recurrence whose coefficients are functions
of the input sequence. Per channel d and state s, with tokens as the last
axis,

    h[d,s,k] = abar[d,s,k] * h[d,s,k-1] + bbarx[d,s,k]
    y[d,k]   = sum_s c[s,k] * h[d,s,k] + skip[d] * x[d,k]

where abar = exp(delta * a) is the zero-order-hold discretization of the
continuous diagonal transition a = -exp(a_log) < 0, and delta, b, c are
produced from the input by small projections. The input path uses the Euler
form bbarx = delta * b * x, as Mamba does.

``SelectiveScan`` computes delta, b and c and hands them, with x, a_log
and skip, to the tensor core's ``selective_scan``: one tape node that
discretizes, sweeps the states once over the tokens, contracts them with
c and adds the skip, and whose VJP runs the adjoint recurrence down the
same sweep in reverse.
``scan_sequential`` builds the same function of the same six operands from
tape primitives and a plain loop over tokens. It is the test oracle only:
the two must agree in value and gradient to near machine precision, and
the test suite holds them to 1e-10.
"""

from __future__ import annotations

import numpy as np

from .nn import Linear, Module
from .tensor import (Param, Tensor, add, concat, exp, mul, narrow, reshape,
                     selective_scan, softplus, stack_shape, tsum)


def scan_sequential(x: Tensor, delta: Tensor, a_log: Tensor, b: Tensor,
                    c: Tensor, skip: Tensor) -> Tensor:
    """Reference scan: tape primitives and an explicit loop over tokens."""
    *lead, d, k = x.shape
    s = b.shape[-2]
    a = mul(exp(a_log), -1.0)                                 # [(L,) d, s]
    delta_col = reshape(delta, (*lead, d, 1, k))
    abar = exp(mul(delta_col, reshape(a, stack_shape(a.shape, x.ndim) + (1,))))
    bbarx = mul(delta_col, mul(reshape(x, (*lead, d, 1, k)),
                               reshape(b, (*lead, 1, s, k))))
    h = None
    ys = []
    for i in range(k):
        a_i = reshape(narrow(abar, -1, i, 1), (*lead, d, s))
        b_i = reshape(narrow(bbarx, -1, i, 1), (*lead, d, s))
        h = b_i if h is None else add(mul(a_i, h), b_i)
        c_i = reshape(narrow(c, -1, i, 1), (*lead, 1, s))
        ys.append(tsum(mul(h, c_i), axis=-1, keepdims=True))
    skip_col = reshape(skip, stack_shape(skip.shape + (1,), x.ndim))
    return add(concat(ys, axis=-1), mul(skip_col, x))


class SelectiveScan(Module):
    """Input-dependent SSM layer over [..., dim, k] column-token sequences.

    Projections follow the selective parameterization: b and c are linear
    in the input, and the step size delta comes from a rank-bottlenecked
    projection through a softplus, with its bias initialized so that the
    initial steps land in [dt_min, dt_max]. Stacked by ``stack_modules``,
    row i of the input's axis 0 runs its own scan.
    """

    def __init__(self, dim: int, d_state: int = 16, dt_rank: int = 32,
                 rng: np.random.Generator | None = None,
                 dt_min: float = 1e-3, dt_max: float = 1e-1):
        rng = rng or np.random.default_rng(0)

        # S4D-real: a_log[d, s] = log(s + 1), so a = -exp(a_log) spans
        # -1 .. -d_state on every channel.
        self.a_log = Param(np.tile(np.log(np.arange(1, d_state + 1)), (dim, 1)))
        self.skip = Param(np.ones(dim))

        self.b_proj = Linear(dim, d_state, rng, bias=False)
        self.c_proj = Linear(dim, d_state, rng, bias=False)
        self.dt_low = Linear(dim, dt_rank, rng, bias=False)
        self.dt_up = Linear(dt_rank, dim, rng)
        dt = np.exp(rng.uniform(np.log(dt_min), np.log(dt_max), size=dim))
        # inverse softplus, so softplus(bias) == dt at initialization
        self.dt_up.bias = Param(dt + np.log(-np.expm1(-dt)))

    def __call__(self, x: Tensor) -> Tensor:
        delta = softplus(self.dt_up(self.dt_low(x)))          # [..., d, k]
        return selective_scan(x, delta, self.a_log, self.b_proj(x),
                              self.c_proj(x), self.skip)


def ssm_flops(dim: int, d_state: int, dt_rank: int, k: int) -> int:
    """Multiply-add count of one selective scan layer on k tokens.

    Every term is linear in k: the recurrence touches each (d, s, k) cell a
    constant number of times and the projections are token-local.
    """
    proj = 2 * dim * d_state * k * 2          # b and c projections
    proj += 2 * dim * dt_rank * k * 2         # delta bottleneck, both ends
    disc = 6 * dim * d_state * k              # delta*a, exp, delta*b*x
    scan = 3 * dim * d_state * k              # multiply, add, output contract
    out = 2 * dim * d_state * k + 2 * dim * k # c-contraction and skip
    return proj + disc + scan + out


def attention_flops(dim: int, heads: int, k: int) -> int:
    """Multiply-add count of one self-attention layer on k tokens.

    The k^2 terms dominate for long sequences, so doubling k roughly
    quadruples the count.
    """
    proj = 8 * dim * dim * k                  # q, k, v, o projections
    scores = 2 * k * k * dim                  # qk^T across heads
    soft = 5 * heads * k * k                  # exp, shift row, sums row
    ctx = 2 * k * k * dim                     # attention-weighted values
    return proj + scores + soft + ctx
