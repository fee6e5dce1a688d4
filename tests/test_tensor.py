"""Autodiff core: op semantics, backward correctness, tape mechanics."""

import gc
import math
import weakref

import numpy as np
import pytest

from trifuse import nn
from trifuse import tensor as T
from trifuse.bench import held_bytes, peak_bytes
from trifuse.gradcheck import check_function
from trifuse.tensor import (NonFiniteError, Param, Tensor, no_grad)


def test_tensor_basics():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert t.dtype == np.float64
    assert not t.requires_grad
    with pytest.raises(NonFiniteError):
        Tensor([[1.0, np.nan]])


def test_param_freeze_contract():
    p = Param(np.ones((2, 3)))
    assert p.requires_grad and not p.frozen
    assert p.grad.shape == (2, 3)
    p.freeze()
    assert p.frozen and not p.requires_grad
    out = T.tsum(T.mul(p, 2.0))
    out.backward()
    # frozen params are pruned from the graph; grad stays all zeros
    assert np.all(p.grad == 0.0)


def test_backward_accumulates_over_reuse():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = T.add(T.mul(x, x), T.mul(x, 2.0))  # x^2 + 2x
    T.tsum(y).backward()
    assert np.allclose(x.grad, [8.0])


def test_backward_diamond_graph():
    x = Tensor(np.array([2.0]), requires_grad=True)
    a = T.mul(x, 3.0)
    b = T.mul(x, 5.0)
    out = T.tsum(T.mul(a, b))  # 15 x^2 -> d/dx = 30 x
    out.backward()
    assert np.allclose(x.grad, [60.0])


def test_scalar_from_an_axis_reduction_backpropagates_through_later_ops():
    # a 0-d intermediate keeps a 0-d gradient, so a mean over the one
    # axis of a vector can feed further ops (a 2-D loss call does this)
    x = Tensor(np.array([1.0, 2.0, 4.0]), requires_grad=True)
    T.add(T.mul(T.tmean(x, axis=-1), 3.0), 1.0).backward()
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        T.mul(x, 2.0).backward()


def test_no_grad_suppresses_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = T.mul(x, 2.0)
    assert not y._parents
    assert not y.requires_grad


def test_second_backward_through_a_released_graph_raises():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = T.mul(x, 3.0)
    out = T.tsum(y)
    out.backward()
    with pytest.raises(RuntimeError, match="released"):
        out.backward()
    with pytest.raises(RuntimeError, match="released"):
        T.tsum(T.mul(y, 2.0)).backward()  # new node on a released one
    assert np.array_equal(x.grad, [3.0, 3.0])  # untouched by the failures


def test_backward_leaves_gradients_on_leaves_only():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    w = Param(np.array([0.5, -1.0]))
    y = T.mul(x, w)
    out = T.tsum(T.exp(y))
    out.backward()
    assert y.grad is None and out.grad is None
    assert not y._parents and not out._parents
    assert np.allclose(x.grad, w.data * np.exp(y.data))
    assert np.allclose(w.grad, x.data * np.exp(y.data))


def test_leaves_fed_by_one_add_own_their_gradients():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    T.tsum(T.add(a, b)).backward()  # add hands one array to both parents
    assert not np.shares_memory(a.grad, b.grad)
    a.grad[0] = 5.0
    assert np.array_equal(b.grad, [1.0, 1.0, 1.0])


def test_a_dropped_intermediate_is_freed_before_backward():
    # the tape keeps what VJPs read, not op outputs: add and sum read no
    # array, so the add's output dies with its tensor
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    w = Param(np.array([0.5, -1.0]))
    y = T.add(x, w)
    gone = weakref.ref(y), weakref.ref(y.data)
    out = T.tsum(y)
    del y
    gc.collect()
    assert gone[0]() is None and gone[1]() is None
    assert out._parents[0].data.size == 0  # the node reads nothing now
    out.backward()
    assert np.array_equal(x.grad, [1.0, 1.0])
    assert np.array_equal(w.grad, [1.0, 1.0])
    with pytest.raises(RuntimeError, match="released"):
        out.backward()


def test_an_untaped_input_is_freed_once_dropped():
    # c needs no gradient, and the add and the sum read no array, so the
    # tape holds nothing of c; the gradient of w (c + w) is c + 2w
    x = Tensor(np.array([0.5, -2.0]))
    w = Param(np.array([1.5, 0.25]))
    c = T.exp(x)
    want = c.data + 2.0 * w.data
    out = T.tsum(T.mul(w, T.add(c, w)))
    gone = weakref.ref(c), weakref.ref(c.data)
    del c
    gc.collect()
    assert gone[0]() is None and gone[1]() is None
    out.backward()
    assert np.array_equal(w.grad, want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_silu_keeps_its_sigmoid_and_output_not_its_input(dtype):
    # the gate product keeps silu's output, so the node keeps that and
    # the sigmoid s: its input dies with its tensor, and the derivative
    # s + out (1 - s) is bitwise s + x s (1 - s)
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(4, 6)) * 3, requires_grad=True, dtype=dtype)
    w = Param(rng.normal(size=(4, 6)), dtype=dtype)
    a = T.add(x, w)
    xa = a.data.copy()
    out = T.silu(a)
    gone = weakref.ref(a), weakref.ref(a.data)
    del a
    gc.collect()
    assert gone[0]() is None and gone[1]() is None
    g = rng.normal(size=(4, 6)).astype(dtype)
    out.backward(g)
    s = T._sigmoid(xa)
    want = g * (s + xa * s * (1.0 - s))
    assert x.grad.dtype == dtype
    assert np.array_equal(x.grad, want) and np.array_equal(w.grad, want)


def test_parents_walk_nodes_down_to_the_leaves():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    w = Param(np.array([0.5, -1.0]))
    y = T.mul(x, w)
    out = T.tsum(y)
    (node,) = out._parents
    assert node.data is y.data  # the output, read while y is alive
    assert node._parents == (x, w)  # a leaf is its own node
    assert not x._parents and not w._parents
    assert y.grad is None  # an intermediate tensor never holds a gradient


def test_broadcasting_unbroadcast():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.ones((3, 1)), requires_grad=True)
    c = Tensor(np.ones(4), requires_grad=True)
    out = T.tsum(T.add(T.add(a, b), c))
    out.backward()
    assert a.grad.shape == (3, 4) and np.all(a.grad == 1.0)
    assert b.grad.shape == (3, 1) and np.all(b.grad == 4.0)
    assert c.grad.shape == (4,) and np.all(c.grad == 3.0)


def test_operator_sugar():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = (x * -1.0 + 3.0) * 0.5 + -1.0  # (3 - x)/2 - 1
    y.sum().backward()
    assert np.allclose(y.data, [-0.5])
    assert np.allclose(x.grad, [-0.5])
    w = Tensor(np.array([[1.0, 2.0]]))
    v = Tensor(np.array([[3.0], [4.0]]))
    z = 1.0 + -2.0 * (w @ v)  # reflected +, reflected *
    assert np.allclose(z.data, [[-21.0]])


def test_matmul_batched_shapes():
    a = Tensor(np.ones((2, 3, 4)))
    b = Tensor(np.ones((4, 5)))
    assert T.matmul(a, b).shape == (2, 3, 5)
    with pytest.raises(ValueError):
        T.matmul(Tensor(np.ones(3)), Tensor(np.ones(3)))


def test_activation_values_match_references():
    x = np.array([-2.0, -0.5, 0.5, 2.0])
    t = Tensor(x)
    assert np.allclose(T.softplus(t).data, np.log1p(np.exp(x)))
    assert np.allclose(T.silu(t).data, x / (1 + np.exp(-x)))
    # mlp's tanh form of gelu, through identity weights and zero biases,
    # stays within 5e-3 of x * Phi(x) on [-3, 3]
    xs = np.linspace(-3, 3, 13)
    phi = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in xs]))
    one, zero = Tensor(np.ones((1, 1))), Tensor(np.zeros(1))
    gelu = T.mlp(Tensor(xs[None]), one, zero, one, zero).data[0]
    assert np.max(np.abs(gelu - xs * phi)) < 5e-3


# -- the fused mlp --------------------------------------------------------
# ``mlp`` is one node for linear -> gelu -> linear. Its output and its five
# gradients must be what that chain computes as three separate nodes, bit
# for bit: ``_unfused`` is the chain on numpy arrays, each node's forward
# and VJP written out op for op.

_GELU_C = math.sqrt(2.0 / math.pi)


def _linear_node(w, x, b):
    wv = w.reshape(T.stack_shape(w.shape, x.ndim))
    out = wv @ x
    bv = T._column(b, out.ndim)
    out += bv

    def vjp(g):
        return (T._unbroadcast(g @ np.swapaxes(x, -1, -2), wv.shape)
                .reshape(w.shape),
                T._unbroadcast(np.swapaxes(wv, -1, -2) @ g, x.shape),
                T._unbroadcast(g, bv.shape).reshape(b.shape))

    return out, vjp


def _gelu_node(x):
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5

    def vjp(g):
        dinner = x * (3.0 * 0.044715)
        dinner *= x
        dinner += 1.0
        dinner *= _GELU_C
        d = t * t
        np.subtract(1.0, d, out=d)
        rest = x * 0.5
        rest *= d
        rest *= dinner
        np.add(t, 1.0, out=d)
        d *= 0.5
        d += rest
        d *= g
        return d

    return out, vjp


def _unfused(x, w1, b1, w2, b2, g):
    """Output and gradients (x, w1, b1, w2, b2) of the three-node chain."""
    pre, first = _linear_node(w1, x, b1)
    h, act = _gelu_node(pre)
    out, second = _linear_node(w2, h, b2)
    gw2, gh, gb2 = second(g)
    gw1, gx, gb1 = first(act(gh))
    return out, (gx, gw1, gb1, gw2, gb2)


#: input shape and lead axes of the stacked maps: a batch through one map,
#: three streams through one map each, and the prompt bank's input
#: broadcast over its maps (the bank has [3, 2]; [3, 3] lets a block end
#: ragged, as three or more blocks of a [3, 2] lead are single lanes or
#: whole rows)
MLP_LAYOUTS = {"batched": ((5, 4, 16), ()), "stacked": ((3, 3, 4, 16), (3,)),
               "bank": ((3, 1, 4, 8), (3, 3))}


@pytest.mark.parametrize("w2_frozen", [False, True], ids=["w2", "w2_frozen"])
@pytest.mark.parametrize("layout", sorted(MLP_LAYOUTS))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_mlp_is_the_unfused_chain_bitwise(monkeypatch, dtype, layout,
                                          w2_frozen):
    shape, lead = MLP_LAYOUTS[layout]
    rng = np.random.default_rng(len(shape))
    arrays = [rng.normal(size=s).astype(dtype)
              for s in (shape, lead + (6, 4), lead + (6,), lead + (4, 6),
                        lead + (4,))]
    lanes = np.broadcast_shapes(shape[:-2], lead)
    # the whole call in one block, then two lanes a block: at least 3
    # blocks, the last one ragged
    for budget in (None, 2 * 6 * shape[-1]):
        if budget:
            monkeypatch.setattr(T, "_CACHE_ELEMS", budget)
        _, blocks = T._lane_blocks(lanes, 6 * shape[-1])
        assert (len(blocks) >= 3 and blocks[-1][1].stop < blocks[0][1].stop
                if budget else len(blocks) == 1), blocks
        tensors = [Tensor(a, requires_grad=not (w2_frozen and i >= 3),
                          dtype=dtype) for i, a in enumerate(arrays)]
        out = T.mlp(*tensors)
        seed = rng.normal(size=out.shape).astype(dtype)
        want, grads = _unfused(*arrays, seed)
        assert out.data.dtype == dtype and np.array_equal(out.data, want)
        with no_grad():
            assert np.array_equal(T.mlp(*tensors).data, want)
        out.backward(seed)
        for i, (t, gr) in enumerate(zip(tensors, grads)):
            if w2_frozen and i >= 3:
                assert t.grad is None
            else:
                assert t.grad.dtype == dtype and np.array_equal(t.grad, gr), i


def test_reductions():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    assert np.allclose(T.tsum(x, axis=0).data, x.data.sum(axis=0))
    assert np.allclose(T.tmean(x, axis=1, keepdims=True).data,
                       x.data.mean(axis=1, keepdims=True))


def test_concat_narrow_round_trip():
    rng = np.random.default_rng(0)
    parts = [Tensor(rng.normal(size=(2, n))) for n in (1, 3, 2)]
    whole = T.concat(parts, axis=1)
    back = [T.narrow(whole, 1, off, n).data
            for off, n in ((0, 1), (1, 3), (4, 2))]
    for p, b in zip(parts, back):
        assert np.array_equal(p.data, b)


def test_concat_axis_counts_from_the_end_and_is_range_checked():
    a, b = Tensor(np.ones((2, 3, 4))), Tensor(np.zeros((3, 1)))
    assert T.concat([a, b], axis=-1).shape == (2, 3, 5)
    for axis in (3, -4):
        with pytest.raises(IndexError):
            T.concat([a, b], axis=axis)


def _softmax_columns(scores: np.ndarray) -> np.ndarray:
    """Key-major softmax of square ``scores [N, N]`` over the N keys (axis
    -2) through the attention op: with k and v the identity, the scores kᵀq
    are q itself and the output v p is p."""
    eye = np.eye(len(scores))
    return T.attention(Tensor(_packed(scores, eye, eye)), 1, 1.0).data


def test_softmax_columns_sum_to_one():
    s = _softmax_columns(np.random.default_rng(1).normal(size=(6, 6)) * 3)
    assert s.shape == (6, 6)
    assert np.allclose(s.sum(axis=-2), 1.0, atol=1e-12)
    assert s.min() > 0


def test_sigmoid_and_softmax_stay_finite_at_extremes():
    x = Tensor(np.array([-800.0, -40.0, 0.0, 40.0, 800.0]), requires_grad=True)
    T.tsum(T.softplus(x)).backward()  # softplus' = sigmoid
    s = x.grad
    assert np.isfinite(s).all()
    assert (s[0], s[2], s[4]) == (0.0, 0.5, 1.0)
    y = T.silu(x).data  # x * sigmoid(x)
    assert np.isfinite(y).all()
    assert (y[0], y[2], y[4]) == (0.0, 0.0, 800.0)
    spread = np.array([1.0, 10.0, 100.0]).repeat(2)  # per query column
    scores = 1e3 + spread * np.random.default_rng(2).normal(size=(6, 6))
    p = _softmax_columns(scores)
    assert np.isfinite(p).all()
    assert np.allclose(p.sum(axis=-2), 1.0, atol=1e-12)


def _gate_grid(dtype) -> np.ndarray:
    edges = [800.0, 40.0, 0.0, 1e-300]  # 1e-300 is ±0 in float32
    normals = np.random.default_rng(3).normal(size=100_000) * 5
    return np.concatenate([edges, np.negative(edges), normals]).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sigmoid_is_bitwise_the_where_formula(dtype):
    x = _gate_grid(dtype)
    e = np.exp(-np.abs(x))
    want = np.where(x >= 0, 1.0, e) / (1.0 + e)
    got = T._sigmoid(x)
    assert got.dtype == dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype, ulps", [(np.float64, 2), (np.float32, 3)])
def test_softplus_is_within_a_few_ulp_of_logaddexp(dtype, ulps):
    # float32 allows 3: numpy's float32 exp and log1p each err by up to
    # about 2 ulp, and logaddexp's own float32 result by up to 1.4
    x = _gate_grid(dtype)
    got = T.softplus(Tensor(x, dtype=dtype)).data
    want = np.logaddexp(0.0, x)
    assert got.dtype == dtype
    assert np.all(np.abs(got - want) <= ulps * np.finfo(dtype).eps * want)
    assert np.array_equal(got[:8], want[:8])  # the edges exactly


def _packed(q, k, v):
    """Lanes q, k and v ``[..., H, d, N]`` as one attention operand
    ``[..., 3Hd, N]``: head 0's q, k and v rows, then head 1's, and so on."""
    lanes = np.stack([q, k, v], axis=-3)  # [..., H, 3, d, N]
    return lanes.reshape(lanes.shape[:-4] + (-1, lanes.shape[-1]))


def _unpacked(qkv, heads):
    """The q, k and v lanes ``[..., H, d, N]`` of a packed operand."""
    lanes = qkv.reshape(qkv.shape[:-2] + (heads, 3, -1, qkv.shape[-1]))
    return lanes[..., 0, :, :], lanes[..., 1, :, :], lanes[..., 2, :, :]


def test_attention_matches_the_unfused_chain():
    rng = np.random.default_rng(4)
    q, k, v, g = (rng.normal(size=(2, 3, 4, 6)) for _ in range(4))
    scale = 0.5
    s = np.swapaxes(q, -1, -2) @ k * scale  # query-major [N, M]
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    ctx = v @ np.swapaxes(p, -1, -2)
    gp = np.swapaxes(g, -1, -2) @ v
    gs = p * (gp - (p * gp).sum(axis=-1, keepdims=True)) * scale
    want = (k @ np.swapaxes(gs, -1, -2), q @ gs, g @ p)  # gq, gk, gv
    # the three heads of a [2, 36, 6] operand are the [2, 3, 4, 6] lanes
    qkv = Tensor(_packed(q, k, v), requires_grad=True)
    got = T.attention(qkv, 3, scale)
    assert got.shape == (2, 12, 6)
    assert np.abs(got.data.reshape(ctx.shape) - ctx).max() < 1e-12
    got.backward(g.reshape(2, 12, 6))
    for gr, ref in zip(_unpacked(qkv.grad, 3), want):
        assert np.abs(gr - ref).max() < 1e-12


def _attention_in_one_go(qkv, heads, g, scale):
    """Output and gq, gk, gv of softmax attention over all lanes at once,
    in the numpy calls the blocked op makes on each block."""
    d, n = qkv.shape[-2] // (3 * heads), qkv.shape[-1]
    lanes = qkv.reshape(-1, 3, d, n)
    sq = np.einsum("lidn,lidn->lin", lanes[:, :2], lanes[:, :2])
    k2 = sq[:, 1].max(axis=-1, keepdims=True)
    k2 *= scale * scale
    shift = sq[:, 0] * k2
    np.sqrt(shift, out=shift)
    buf = np.empty((len(lanes), 3, d + 1, n), dtype=qkv.dtype)
    buf[:, 1:, d] = 1.0
    np.multiply(lanes[:, 0], scale, out=buf[:, 0, :d])
    buf[:, 1:, :d] = lanes[:, 1:]
    np.negative(shift, out=buf[:, 0, d])
    e = np.exp(np.swapaxes(buf[:, 1], -1, -2) @ buf[:, 0])
    acc = buf[:, 2] @ e
    sums = acc[:, d:].copy()
    out = acc[:, :d] / sums
    gd = np.empty_like(acc)
    gn = np.divide(g.reshape(-1, d, n), sums, out=gd[:, :d])
    np.einsum("ldn,ldn->ln", gn, out, out=gd[:, d])
    np.negative(gd[:, d], out=gd[:, d])
    gv = gn @ np.swapaxes(e, -1, -2)
    gz = np.swapaxes(buf[:, 2], -1, -2) @ gd
    gz *= e
    gq = buf[:, 1, :d] @ gz
    gq *= scale
    gk = buf[:, 0, :d] @ np.swapaxes(gz, -1, -2)
    return out, gq, gk, gv


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_blocked_attention_is_bitwise_the_one_go_formula(dtype):
    # N = 64 puts 8 lanes in a block: 20 lanes run as 8 + 8 + 4
    shape = (4, 5, 3, 64)
    assert T._CACHE_ELEMS // 64 ** 2 == 8
    rng = np.random.default_rng(11)
    q0, k0, v0, g = (rng.normal(size=shape).astype(dtype) for _ in range(4))
    want = _attention_in_one_go(_packed(q0, k0, v0), 5, g, 0.3)
    # the 5 heads of a [4, 45, 64] operand are the [4, 5, 3, 64] lanes
    qkv = Tensor(_packed(q0, k0, v0), requires_grad=True, dtype=dtype)
    out = T.attention(qkv, 5, 0.3)
    out.backward(g.reshape(4, 15, 64))
    with no_grad():
        free = T.attention(Tensor(_packed(q0, k0, v0), dtype=dtype), 5, 0.3)
    assert qkv.grad.dtype == dtype
    for got, ref in zip((out.data, *_unpacked(qkv.grad, 5), free.data),
                        want + (want[0],)):
        assert got.dtype == dtype
        assert np.array_equal(got.reshape(shape), ref.reshape(shape))


def test_attention_without_a_tape_builds_no_whole_probability_array():
    # [216, 135, 135] float64 probabilities would be 31.5 MB; one block is
    # one lane, 146 KB, and the output 1.9 MB
    rng = np.random.default_rng(12)
    qkv = Tensor(rng.normal(size=(108, 48, 135)))
    with no_grad():
        peak = peak_bytes(lambda: T.attention(qkv, 2, 8 ** -0.5))
    assert peak < 4e6, peak


def test_attention_gradient_over_several_lane_blocks(monkeypatch):
    # two lanes of [5, 5] per block: 7 lanes run as 2 + 2 + 2 + 1, in the
    # taped pass and in the no-grad passes of the central differences
    monkeypatch.setattr(T, "_CACHE_ELEMS", 2 * 5 * 5)
    rng = np.random.default_rng(13)
    qkv = Tensor(rng.normal(size=(7, 9, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(7, 3, 5)))
    err = check_function(lambda: T.tsum(T.mul(T.attention(qkv, 1, 0.6), w)),
                         [qkv])
    assert err < 1e-8


def _underflow_lanes(big: float, dtype) -> np.ndarray:
    """Two one-head lanes ``[2, 6, 2]`` (d = 2, N = 2). Lane 0's queries
    are (big, 0) against keys (0, big) and (0.1, 0): the scores are 0 and
    0.1·big, but the shift bound ‖q‖·max‖k‖ is big², so every exponential
    of the bound-shifted softmax underflows. Lane 1 is ordinary."""
    rng = np.random.default_rng(15)
    q = np.array([[big, big], [0.0, 0.0]])
    k = np.array([[0.0, 0.1], [big, 0.0]])
    lane0 = np.concatenate([q, k, rng.normal(size=(2, 2))])
    return np.stack([lane0, rng.normal(size=(6, 2))]).astype(dtype)


def _max_shifted_attention(qkv: np.ndarray) -> np.ndarray:
    q, k, v = qkv[:, 0:2], qkv[:, 2:4], qkv[:, 4:6]
    z = np.swapaxes(k, -1, -2) @ q  # key-major scores, scale 1
    e = np.exp(z - z.max(axis=-2, keepdims=True))
    return v @ (e / e.sum(axis=-2, keepdims=True))


@pytest.mark.parametrize("dtype, big, h, tol", [
    (np.float64, 30.0, 1e-6, 1e-8),  # the bound overshoots by 897
    (np.float32, 10.0, 1e-2, 1e-2),  # by 99
])
def test_attention_reruns_underflowed_lanes_with_their_exact_maxima(
        dtype, big, h, tol):
    lanes = _underflow_lanes(big, dtype)
    overshoot = big * big - 0.1 * big
    fi = np.finfo(dtype)
    assert math.exp(-overshoot) < 2 * fi.tiny / fi.eps  # lane 0 reruns
    got = T.attention(Tensor(lanes, dtype=dtype), 1, 1.0).data
    assert got.dtype == dtype and np.isfinite(got).all()
    want = _max_shifted_attention(lanes.astype(np.float64))
    assert np.abs(got - want).max() < (1e-12 if dtype == np.float64 else 1e-5)
    qkv = Tensor(lanes, requires_grad=True, dtype=dtype)
    w = Tensor(np.random.default_rng(16).normal(size=(2, 2, 2)), dtype=dtype)
    err = check_function(lambda: T.tsum(T.mul(T.attention(qkv, 1, 1.0), w)),
                         [qkv], h=h)
    assert err < tol


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_heads_split_inside_attention_bitwise_as_one_head_views(dtype):
    # [2, 3, 36, 7] with 4 heads is [2, 3, 4, 9, 7] with one head each
    rng = np.random.default_rng(14)
    qkv0 = rng.normal(size=(2, 3, 36, 7)).astype(dtype)
    g = rng.normal(size=(2, 3, 12, 7)).astype(dtype)
    qkv = Tensor(qkv0, requires_grad=True, dtype=dtype)
    out = T.attention(qkv, 4, 0.7)
    out.backward(g)
    split = Tensor(qkv0.reshape(2, 3, 4, 9, 7), requires_grad=True, dtype=dtype)
    ref = T.attention(split, 1, 0.7)
    ref.backward(g.reshape(2, 3, 4, 3, 7))
    for got, want in ((out.data, ref.data), (qkv.grad, split.grad)):
        assert got.dtype == dtype
        assert np.array_equal(got, want.reshape(got.shape))


def test_attention_refuses_heads_that_do_not_divide_the_features():
    # the rows must split into q, k and v runs of equal length per head
    for rows, heads in ((18, 4), (18, 0), (8, 1), (12, 3)):
        with pytest.raises(ValueError, match="heads"):
            T.attention(Tensor(np.ones((2, rows, 4))), heads, 1.0)


def test_finite_checks_raise_and_can_be_disabled():
    big = Tensor(np.array([1e308]))
    with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
        T.mul(big, 10.0)
    with T.finite_checks(False), np.errstate(over="ignore"):
        out = T.mul(big, 10.0)
    assert np.isinf(out.data).any()


def test_default_dtype_switch():
    T.set_default_dtype(np.float32)
    try:
        assert Tensor([1.0]).dtype == np.float32
    finally:
        T.set_default_dtype(np.float64)
    assert Tensor([1.0]).dtype == np.float64


# -- the scan -----------------------------------------------------------
# The linear recurrence h_k = a_k h_{k-1} + b_k is evaluated by ``_sweep``
# down axis 0 of token-major arrays; the forward and the adjoint recurrence
# of the one scan op, ``selective_scan``, both run through it, so that op
# carries the gradient check.


def _reference_recurrence(a, b):
    h = np.zeros_like(b)
    acc = np.zeros(a.shape[:-1])
    for k in range(a.shape[-1]):
        acc = a[..., k] * acc + b[..., k]
        h[..., k] = acc
    return h


def _swept(a, b):
    """The recurrence over the last axis of ``a, b [..., K]`` by
    ``_sweep``, on a token-major copy of b."""
    h = T._sweep(np.moveaxis(a, -1, 0)[1:], np.moveaxis(b, -1, 0).copy())
    return np.moveaxis(h, 0, -1)


def test_linear_recurrence_hand_case():
    h = _swept(np.full((1, 1, 3), 0.5), np.ones((1, 1, 3)))
    assert np.allclose(h.ravel(), [1.0, 1.5, 1.75], atol=1e-15)


@pytest.mark.parametrize("shape,k", [
    ((2, 3), 4), ((1, 1), 8), ((4, 2), 64), ((2, 2), 128), ((3, 1), 8),
    ((2, 3), 17), ((2, 2), 5), ((1, 1), 1), ((3,), 4),
])
def test_linear_recurrence_matches_loop(shape, k):
    # lanes ``shape`` over k tokens; the sweep makes the loop's calls
    rng = np.random.default_rng(hash(shape + (k,)) % 2**32)
    a = rng.uniform(0.1, 0.99, size=shape + (k,))
    b = rng.normal(size=shape + (k,))
    assert np.array_equal(_swept(a, b), _reference_recurrence(a, b))


def test_linear_recurrence_does_not_mutate_inputs():
    # the scan's operands and the upstream gradient survive the forward
    # and the VJP, which sweep their own token-major copies in place
    rng = np.random.default_rng(5)
    values = [rng.normal(size=(2, 3, 6)), rng.uniform(0.2, 0.9, (2, 3, 6)),
              rng.normal(size=(3, 4)), rng.normal(size=(2, 4, 6)),
              rng.normal(size=(2, 4, 6)), rng.normal(size=3)]
    g = rng.normal(size=(2, 3, 6))
    before = [v.copy() for v in values + [g]]
    ops = [Tensor(v, requires_grad=True) for v in values]
    T.selective_scan(*ops).backward(g)
    for v, was in zip([t.data for t in ops] + [g], before):
        assert np.array_equal(v, was)


def test_linear_recurrence_gradient_small():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(2, 7)), requires_grad=True)
    delta = Tensor(rng.uniform(0.1, 1.0, size=(2, 7)), requires_grad=True)
    a_log = Tensor(rng.normal(size=(2, 3)) * 0.5, requires_grad=True)
    b = Tensor(rng.normal(size=(3, 7)), requires_grad=True)
    c = Tensor(rng.normal(size=(3, 7)), requires_grad=True)
    skip = Tensor(rng.normal(size=2), requires_grad=True)
    w = rng.normal(size=(2, 7))
    ops = [x, delta, a_log, b, c, skip]
    err = check_function(
        lambda: T.tsum(T.mul(T.selective_scan(*ops), Tensor(w))),
        ops)
    assert err < 1e-8


def test_dwconv_same_padding():
    x = Tensor(np.array([[0.0, 3.0, 0.0]]))
    zero = Tensor(np.zeros(1))
    k_id = Tensor(np.array([[0.0, 1.0, 0.0]]))
    assert np.allclose(T.dwconv1d(x, k_id, zero).data, x.data)
    k_avg = Tensor(np.array([[1.0, 1.0, 1.0]]) / 3.0)
    assert np.allclose(T.dwconv1d(x, k_avg, zero).data, [[1.0, 1.0, 1.0]])
    with pytest.raises(ValueError):
        T.dwconv1d(x, Tensor(np.ones((1, 4))), zero)  # even kernel


def test_dwconv_with_bias_is_the_numpy_formula():
    # kernels [S, D, k] and bias [S, D] stacked on a [S, B, D, N] input
    rng = np.random.default_rng(15)
    s, b, d, n, k = 3, 2, 4, 6, 3
    x0, g = rng.normal(size=(s, b, d, n)), rng.normal(size=(s, b, d, n))
    kern0, bias0 = rng.normal(size=(s, d, k)), rng.normal(size=(s, d))
    x, kern, bias = (Tensor(a, requires_grad=True) for a in (x0, kern0, bias0))
    out = T.dwconv1d(x, kern, bias)
    out.backward(g)

    xp = np.pad(x0, ((0, 0),) * 3 + ((1, 1),))
    taps = np.stack([xp[..., j:j + n] for j in range(k)], axis=-1)
    want = np.einsum("sbdnj,sdj->sbdn", taps, kern0) + bias0[:, None, :, None]
    gp = np.pad(g, ((0, 0),) * 3 + ((1, 1),))
    gx = np.einsum("sbdnj,sdj->sbdn",
                   np.stack([gp[..., k - 1 - j:k - 1 - j + n]
                             for j in range(k)], axis=-1), kern0)
    gk = np.einsum("sbdnj,sbdn->sdj", taps, g)
    for got, ref in ((out.data, want), (x.grad, gx), (kern.grad, gk),
                     (bias.grad, g.sum(axis=(1, 3)))):
        assert got.shape == ref.shape
        assert np.allclose(got, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("source,destination", [
    (1, -1), ((3, 1), (0, 3)), ((0, 2), (2, 1))])
def test_moveaxis_is_numpys_forward_and_back(source, destination):
    rng = np.random.default_rng(16)
    x0 = rng.normal(size=(2, 3, 4, 5))
    x = Tensor(x0, requires_grad=True)
    out = T.moveaxis(x, source, destination)
    want = np.moveaxis(x0, source, destination)
    assert np.array_equal(out.data, want)
    assert out.data.flags.c_contiguous
    g = rng.normal(size=want.shape)
    out.backward(g)
    assert np.array_equal(x.grad, np.moveaxis(g, destination, source))


def test_norm_affine_axis_semantics():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(4, 6)) * 3 + 1)
    gain = Tensor(np.ones(4))
    shift = Tensor(np.zeros(4))
    col = T.norm_affine(x, gain, shift, 1e-5, axis=0).data
    assert np.abs(col.mean(axis=0)).max() < 1e-12
    row_gain = Tensor(np.ones(4))
    row = T.norm_affine(x, row_gain, shift, 1e-5, axis=1).data
    assert np.abs(row.mean(axis=1)).max() < 1e-12


@pytest.mark.parametrize("axis", [-2, -1])
def test_norm_affine_keeps_its_input_not_a_normalised_copy(axis):
    # a caller that keeps x pays for the output and the per-lane mean and
    # inverse std only: 1.14 (axis -2) and 1.02 (axis -1) arrays of x's
    # size, where a node keeping the normalised copy held 2.07 and 2.02
    module = (nn.LayerNorm(16) if axis == -2 else nn.BatchNorm(16)).train()
    n = 1024
    one = 16 * n * np.dtype(np.float64).itemsize
    held = held_bytes(module, n, dim=16)
    assert one <= held < 1.5 * one, held / one


@pytest.mark.parametrize("axis", [-2, -1])
def test_norm_affine_gradients_are_the_whole_array_formula_bitwise(axis):
    # the VJP rebuilds x̂ = (x - mean) * inv with the forward's two passes
    rng = np.random.default_rng(18)
    x0 = rng.normal(size=(3, 2, 5, 7)) * 2 + 1
    g0, s0 = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
    g = rng.normal(size=x0.shape)
    x, gain, shift = (Tensor(v, requires_grad=True) for v in (x0, g0, s0))
    out = T.norm_affine(x, gain, shift, 1e-5, axis)
    out.backward(g)
    xhat = x0 - x0.mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(np.mean(xhat * xhat, axis=axis, keepdims=True) + 1e-5)
    xhat *= inv
    gcol = g0[:, None, :, None]
    assert np.array_equal(out.data, xhat * gcol + s0[:, None, :, None])
    dxhat = g * gcol
    want = inv * (dxhat - dxhat.mean(axis=axis, keepdims=True)
                  - xhat * (dxhat * xhat).mean(axis=axis, keepdims=True))
    assert np.array_equal(x.grad, want)
    assert np.array_equal(gain.grad, (g * xhat).sum(axis=(1, 3)))
    assert np.array_equal(shift.grad, g.sum(axis=(1, 3)))
