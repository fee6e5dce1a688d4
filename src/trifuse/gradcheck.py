"""Central finite-difference verification of every differentiable op.

The tensor core keeps a registry of op names that claim differentiability
(``trifuse.tensor.DIFFERENTIABLE_OPS``). This module owns a matching table
of check cases. ``run_suite`` walks the registry, so an op registered
without a case here fails the suite loudly; nothing is hand-listed at the
call site. The registry names tape nodes only; the table also holds
cases for module paths built from them (``mhsa``, ``inter_ma``,
``total_loss`` and so on), which the suite runs as well.

A case builds a scalar-valued closure plus the tensors to differentiate
with respect to. The analytic gradient comes from one backward pass, the
reference from central differences with step ``h`` on each coordinate
(or a random subset for expensive composed paths). The error metric is

    max |analytic - numeric| / max(1, |analytic|, |numeric|)

elementwise, which behaves like an absolute tolerance near zero and a
relative one for large gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import losses as L
from . import nn
from . import ssm as S
from . import tensor as T
from .aggregation import (AggregationBlock, Aggregator, AggregationHead,
                          ConvGate, LinearGate)
from .config import RunConfig
from .model import FusionModel
from .prompts import PromptBank
from .tensor import DIFFERENTIABLE_OPS, Tensor, mul, no_grad, tsum

DEFAULT_H = 1e-5
DEFAULT_TOL = 1e-4


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_err < self.tol


@dataclass
class Case:
    build: Callable[[np.random.Generator], tuple[Callable[[], Tensor], Sequence[Tensor]]]
    tol: float = DEFAULT_TOL
    spot: int | None = None  # limit FD to this many coordinates per tensor


#: op name -> Case, filled at import by the two builders at the end of this
#: module, which only define closures: no model is built until a case runs.
#: Tests may add entries (e.g. a deliberately broken case) to exercise the
#: failure path.
CASES: dict[str, Case] = {}


def register_case(name: str, build, tol: float = DEFAULT_TOL,
                  spot: int | None = None) -> None:
    """``build(rng, weigh)`` draws a case's tensors from ``rng`` and returns
    its scalar closure and the tensors to differentiate; ``weigh`` is its own."""
    CASES[name] = Case(build=lambda rng: build(rng, _weights(rng)), tol=tol,
                       spot=spot)


def _coords(t: Tensor, spot: int | None, rng: np.random.Generator) -> np.ndarray:
    n = t.data.size
    if spot is None or spot >= n:
        return np.arange(n)
    return rng.choice(n, size=spot, replace=False)


def check_function(fn: Callable[[], Tensor], wrt: Sequence[Tensor],
                   h: float = DEFAULT_H, spot: int | None = None,
                   rng: np.random.Generator | None = None) -> float:
    """Return the max elementwise gradient error of ``fn`` wrt ``wrt``."""
    rng = rng or np.random.default_rng(0)
    for t in wrt:
        t.zero_grad()
    out = fn()
    if out.size != 1:
        raise ValueError("gradcheck target must be scalar")
    out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for t in wrt]

    worst = 0.0
    with no_grad():
        for t, a in zip(wrt, analytic):
            flat = t.data.reshape(-1)
            aflat = a.reshape(-1)
            for i in _coords(t, spot, rng):
                orig = flat[i]
                flat[i] = orig + h
                fp = float(fn().data.reshape(-1)[0])
                flat[i] = orig - h
                fm = float(fn().data.reshape(-1)[0])
                flat[i] = orig
                num = (fp - fm) / (2.0 * h)
                err = abs(aflat[i] - num) / max(1.0, abs(aflat[i]), abs(num))
                worst = max(worst, err)
    return worst


def run_suite(seed: int = 0, names: Sequence[str] | None = None) -> list[CheckResult]:
    """Check every registered differentiable op (or the named subset).

    Ops present in the registry but lacking a case are reported as failures
    with an infinite error, so coverage gaps cannot pass silently.
    """
    target = sorted(DIFFERENTIABLE_OPS | set(CASES)) if names is None else list(names)
    results = []
    for name in target:
        case = CASES.get(name)
        if case is None:
            results.append(CheckResult(name=name, max_err=float("inf"), tol=DEFAULT_TOL))
            continue
        rng = np.random.default_rng([seed, len(name), sum(map(ord, name))])
        fn, wrt = case.build(rng)
        err = check_function(fn, wrt, spot=case.spot, rng=rng)
        results.append(CheckResult(name=name, max_err=err, tol=case.tol))
    return results


def format_report(results: Sequence[CheckResult]) -> str:
    lines = ["op\tmax_rel_err\ttol\tstatus"]
    for r in sorted(results, key=lambda r: r.name):
        lines.append(f"{r.name}\t{r.max_err:.3e}\t{r.tol:.0e}\t"
                     f"{'ok' if r.ok else 'FAIL'}")
    bad = sum(1 for r in results if not r.ok)
    lines.append(f"# {len(results)} checks, {bad} failures")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# cases: tensor primitives
# ---------------------------------------------------------------------------

def _away_from(x: np.ndarray, pivot: float, gap: float) -> np.ndarray:
    """Nudge values out of a +-gap band around pivot (kink avoidance)."""
    close = np.abs(x - pivot) < gap
    return x + np.where(close, np.sign(x - pivot + 1e-12) * gap, 0.0)


def _pair(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 1)), requires_grad=True)  # broadcast path
    return a, b


def _weights(rng) -> Callable[[Tensor], Tensor]:
    """A case's weighted sum ``t -> sum(t * w)``, one per build: its closure
    runs again at every finite-difference step, so each shape's weights are
    drawn from ``rng`` on first use, reused after, and go with the closure."""
    drawn: dict[tuple[int, ...], np.ndarray] = {}

    def weigh(t: Tensor) -> Tensor:
        w = drawn.get(t.shape)
        if w is None:
            w = drawn[t.shape] = rng.normal(size=t.shape)
        return tsum(mul(t, Tensor(w)))
    return weigh


def _scan_case(scan):
    """A case of ``scan`` on the six operands of three stacked selective
    scans over K = 7 tokens (steps delta > 0, as softplus makes them)."""
    def build(rng, weigh):
        shapes = ((3, 2, 3, 7), (3, 2, 3, 7), (3, 3, 2), (3, 2, 2, 7),
                  (3, 2, 2, 7), (3, 3))
        ops = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        ops[1].data = np.abs(ops[1].data) + 0.1
        return (lambda: weigh(scan(*ops))), ops
    return build


def _build_primitive_cases() -> None:

    def simple(op, positive=False, avoid_zero=False, shape=(3, 4)):
        def build(rng, weigh):
            data = rng.normal(size=shape)
            if positive:
                data = np.abs(data) + 0.5
            if avoid_zero:
                data = _away_from(data, 0.0, 0.05)
            x = Tensor(data, requires_grad=True)
            return (lambda: weigh(op(x))), [x]
        return build

    register_case("neg", simple(T.neg))
    register_case("exp", simple(T.exp))
    register_case("log", simple(T.log, positive=True), tol=1e-6)
    register_case("sqrt", simple(T.sqrt, positive=True), tol=1e-6)
    register_case("softplus", simple(T.softplus), tol=1e-6)
    register_case("relu", simple(T.relu, avoid_zero=True), tol=1e-6)
    register_case("silu", simple(T.silu), tol=1e-6)

    def linear_case(rng, weigh):
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        xb = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        def fn():
            return T.add(weigh(T.linear(w, x, b)),
                         weigh(T.linear(w, xb)))
        return fn, [w, x, xb, b]

    register_case("linear", linear_case, tol=1e-6)

    def mlp_case(rng, weigh):
        """4 -> 8 -> 4 on a batch and, as in the frozen backbone (no hidden
        output kept), with w2 and b2 frozen; the bank's maps stacked [3, 2]."""
        def maps(lead, hidden, grad=True):
            return [Tensor(rng.normal(size=lead + s), requires_grad=grad)
                    for s in ((hidden, 4), (hidden,), (4, hidden), (4,))]
        xb, x, xs = (Tensor(rng.normal(size=s), requires_grad=True)
                     for s in ((2, 4, 3), (4, 5), (3, 1, 4, 2)))
        trained, stacked, frozen = maps((), 8), maps((3, 2), 4), maps((), 8, False)
        calls = [(xb, *trained), (x, *trained[:2], *frozen[2:]), (xs, *stacked)]
        def fn():
            a, b, c = (weigh(T.mlp(*args)) for args in calls)
            return T.add(T.add(a, b), c)
        return fn, [xb, x, xs] + trained + stacked

    register_case("mlp", mlp_case, tol=1e-6)

    def binary(op):
        def build(rng, weigh):
            a, b = _pair(rng)
            return (lambda: weigh(op(a, b))), [a, b]
        return build

    register_case("add", binary(T.add), tol=1e-6)
    register_case("sub", binary(T.sub), tol=1e-6)
    register_case("mul", binary(T.mul), tol=1e-6)

    def matmul_case(rng, weigh):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)  # broadcast batch
        return (lambda: weigh(T.matmul(a, b))), [a, b]

    register_case("matmul", matmul_case, tol=1e-6)

    register_case("sum", simple(lambda x: T.tsum(x, axis=1)), tol=1e-6)
    register_case("mean", simple(lambda x: T.tmean(x, axis=0, keepdims=True)),
                  tol=1e-6)

    def extreme_case(op):
        def build(rng, weigh):
            # distinct values so the argextreme is stable under the FD step
            base = rng.permutation(12).astype(float).reshape(3, 4)
            x = Tensor(base + 0.1 * rng.normal(size=(3, 4)), requires_grad=True)
            return (lambda: weigh(op(x, axis=1))), [x]
        return build

    register_case("max", extreme_case(T.tmax), tol=1e-6)
    register_case("min", extreme_case(T.tmin), tol=1e-6)

    register_case("reshape", simple(lambda x: T.reshape(x, (2, 6))), tol=1e-6)
    register_case("moveaxis", simple(lambda x: T.add(
        T.moveaxis(x, 1, 2), T.moveaxis(x, (0, 2), (2, 1)).reshape(2, 4, 3)),
        shape=(2, 3, 4)), tol=1e-6)

    def concat_case(rng, weigh):
        xs = [Tensor(rng.normal(size=(2, n)), requires_grad=True) for n in (1, 3, 2)]
        # a [2, 1] piece joins a [3, 2, 4] batch, broadcast over its batch axis
        ys = [Tensor(rng.normal(size=s), requires_grad=True) for s in ((2, 1), (3, 2, 4))]
        return (lambda: T.add(weigh(T.concat(xs, axis=1)),
                              weigh(T.concat(ys, axis=-1)))), xs + ys

    register_case("concat", concat_case, tol=1e-6)

    register_case("narrow", simple(lambda x: T.narrow(x, 1, 2, 3), shape=(3, 6)),
                  tol=1e-6)

    def where_case(rng, weigh):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        mask = rng.random((3, 4)) > 0.5
        return (lambda: weigh(T.where_mask(mask, a, b))), [a, b]

    register_case("where", where_case, tol=1e-6)

    def attention_case(rng, weigh):
        qkv = Tensor(rng.normal(size=(2, 18, 5)), requires_grad=True)
        return (lambda: weigh(T.attention(qkv, 2, 3 ** -0.5))), [qkv]

    register_case("attention", attention_case)

    def norm_affine_case(rng, weigh):
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        xb = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        gain = Tensor(rng.normal(size=4) + 1.0, requires_grad=True)
        shift = Tensor(rng.normal(size=4), requires_grad=True)
        def fn():
            y0 = T.norm_affine(x, gain, shift, 1e-5, axis=0)
            y1 = T.norm_affine(x, gain, shift, 1e-5, axis=1)
            yb = T.add(T.norm_affine(xb, gain, shift, 1e-5, axis=-2),
                       T.norm_affine(xb, gain, shift, 1e-5, axis=-1))
            return T.add(weigh(T.add(y0, y1)), weigh(yb))
        return fn, [x, xb, gain, shift]

    register_case("norm_affine", norm_affine_case)

    def dwconv_case(rng, weigh):
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        xb = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        def fn():
            return T.add(weigh(T.dwconv1d(x, k, b)),
                         weigh(T.dwconv1d(xb, k, b)))
        return fn, [x, xb, k, b]

    register_case("dwconv1d", dwconv_case, tol=1e-6)

    register_case("selective_scan", _scan_case(T.selective_scan), tol=1e-6)


def _build_module_cases() -> None:
    """Cases for composite ops living in the other modules."""

    def ln_case(rng, weigh):
        ln = nn.LayerNorm(4)
        ln.gain.data = rng.normal(size=4) + 1.0
        ln.shift.data = rng.normal(size=4)
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        return (lambda: weigh(ln(x))), [x, ln.gain, ln.shift]

    register_case("layer_norm", ln_case)

    def bn_case(rng, weigh):
        bn = nn.BatchNorm(4)
        bn.gain.data = rng.normal(size=4) + 1.0
        bn.shift.data = rng.normal(size=4)
        mean0 = rng.normal(size=4)
        var0 = rng.random(4) + 0.5
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        def fn():
            # pin the running stats: the train call updates them, and the
            # eval output must not depend on state left by earlier calls
            bn.running_mean = mean0.copy()
            bn.running_var = var0.copy()
            bn.train()
            y = bn(x)
            bn.eval()
            bn.running_mean = mean0.copy()
            bn.running_var = var0.copy()
            z = bn(x)
            bn.train()
            return weigh(T.add(y, z))
        return fn, [x, bn.gain, bn.shift]

    register_case("batch_norm", bn_case)

    def applied(make, shape):
        """A case of the module ``make(rng)`` on one input of ``shape``."""
        def build(rng, weigh):
            mod = make(rng)
            x = Tensor(rng.normal(size=shape), requires_grad=True)
            return (lambda: weigh(mod(x))), [x] + mod.params()
        return build

    register_case("mhsa", applied(
        lambda rng: nn.MultiHeadSelfAttention(6, 2, rng), (6, 5)))

    register_case("scan_sequential", _scan_case(S.scan_sequential))
    register_case("ssm_apply", applied(
        lambda rng: S.SelectiveScan(2, d_state=3, dt_rank=2, rng=rng), (2, 4)))

    # the bank's layout: six maps stacked [3, 2], one prompt per stream
    register_case("transfer", applied(lambda rng: nn.stack_modules(
        lambda: nn.Mlp(4, 4, rng), (3, 2)), (3, 1, 4, 2)))

    def bank(rng, dim=4, n_prompts=2, layers=2):
        return PromptBank(dim=dim, n_prompts=n_prompts, layers=layers, rng=rng)

    def residual_fuse_case(rng, weigh):
        pb = bank(rng)
        harvested = Tensor(rng.normal(size=(3, 4, 3 * 2)), requires_grad=True)
        def fn():
            return weigh(pb.residual_fuse(1, harvested))
        return fn, [harvested] + pb.rp.params() + [pb.prompts[1]]

    register_case("residual_fuse", residual_fuse_case)

    def assemble_case(rng, weigh):
        pb = bank(rng)
        f_star = Tensor(rng.normal(size=(3, 4, 3)), requires_grad=True)
        def fn():
            seq = pb.assemble_layer_input(0, f_star, harvested_prev=None)
            return weigh(seq)
        return fn, [f_star] + pb.params()

    register_case("assemble_layer_input", assemble_case)

    def harvest_case(rng, weigh):
        pb = bank(rng)
        x = Tensor(rng.normal(size=(3, 4, 3 + 3 * 2)), requires_grad=True)
        def fn():
            f_star, slots = pb.harvest(x, n_star=3)
            return T.add(weigh(f_star), weigh(slots))
        return fn, [x]

    register_case("harvest", harvest_case, tol=1e-6)

    # a fresh module is in training mode
    register_case("theta", applied(lambda rng: ConvGate(3, kernel=3, rng=rng),
                                   (3, 5)))
    register_case("psi", applied(lambda rng: LinearGate(3, rng=rng), (3, 5)))

    def block(rng, **stages):
        return AggregationBlock(2, d_state=2, dt_rank=2, kernel=3, rng=rng,
                                **stages)

    def streams(rng, dim, n):
        return Tensor(np.stack([rng.normal(size=(dim, n)) for _ in range(3)]),
                      requires_grad=True)

    def intra_case(rng, weigh):
        blk = block(rng, use_inter=False)
        blk.train()
        fs = streams(rng, 2, 3)
        return (lambda: weigh(blk.intra(fs))), [fs] + blk.params()

    register_case("intra_ma", intra_case, spot=60)

    def inter_case(rng, weigh):
        blk = block(rng, use_intra=False)
        blk.train()
        fs = streams(rng, 2, 3)
        return (lambda: weigh(blk.inter(fs))), [fs] + blk.params()

    register_case("inter_ma", inter_case, spot=60)

    def stack_case(rng, weigh):
        dim = 2
        blocks = [AggregationBlock(dim, d_state=2, dt_rank=2, kernel=3, rng=rng)]
        head = AggregationHead(dim, rng)
        agg = Aggregator(blocks, head)
        agg.train()
        tokens = streams(rng, dim, 4)
        def fn():
            cls = T.narrow(tokens, -1, 0, 1)
            return weigh(agg(cls, T.narrow(tokens, -1, 1, 3)))
        return fn, [tokens] + agg.params()

    register_case("ma_stack", stack_case, spot=60)

    def ce_case(rng, weigh):
        logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        labels = rng.integers(0, 4, size=5)
        rows = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        return (lambda: T.add(L.ce_smooth(logits, labels, 0.1), weigh(
            L.ce_smooth(rows, labels, 0.1)))), [logits, rows]

    register_case("ce_smooth", ce_case, tol=1e-6)

    def triplet_case(rng, weigh):
        emb = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        labels = np.array([0, 0, 1, 1, 2, 2])
        rows = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        return (lambda: T.add(L.triplet_batch_hard(emb, labels, 5.0),
                              weigh(L.triplet_batch_hard(
                                  rows, labels, 5.0)))), [emb, rows]

    register_case("triplet_batch_hard", triplet_case)

    def total_loss_case(rng, weigh):
        heads = nn.stack_modules(lambda: nn.Linear(6, 3, rng), (2,))
        feats = Tensor(rng.normal(size=(2, 6, 6)), requires_grad=True)
        labels = np.array([0, 0, 1, 1, 2, 2])
        cfg = RunConfig(lambda_ce=0.25, lambda_tri=1.0, smoothing=0.1, margin=3.0)
        def fn():
            total, _ = L.total_loss(feats, labels, heads, cfg)
            return total
        return fn, [feats] + heads.params()

    register_case("total_loss", total_loss_case)

    def composed_case(rng, weigh):
        cfg = RunConfig(embed_dim=8, layers=2, heads=2, patch=4,
                        image_h=8, image_w=8, channels=1, n_prompts=2,
                        d_state=2, dt_rank=2, ma_blocks=1, num_ids=2,
                        lambda_ce=0.25, lambda_tri=1.0, smoothing=0.1,
                        margin=3.0)
        model = FusionModel(cfg, rng)
        model.train()
        # drawn sample-major, as [3, B, C, H, W] with the stream on axis 0
        images = rng.normal(size=(4, 3, 1, 8, 8)).swapaxes(0, 1)
        labels = np.array([0, 0, 1, 1])
        def fn():
            total, _ = L.total_loss(model.forward_batch(images), labels,
                                    model.heads, cfg)
            return total
        return fn, model.trainable_params()

    register_case("model.composed_path", composed_case, spot=4)


_build_primitive_cases()
_build_module_cases()
