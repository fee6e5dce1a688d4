"""Autodiff core: op semantics, backward correctness, tape mechanics."""

import math
import tracemalloc

import numpy as np
import pytest

from trifuse import tensor as T
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
    y = (-x + 3.0) * 0.5 - 1.0  # (3 - x)/2 - 1
    y.sum().backward()
    assert np.allclose(y.data, [-0.5])
    assert np.allclose(x.grad, [-0.5])
    w = Tensor(np.array([[1.0, 2.0]]))
    v = Tensor(np.array([[3.0], [4.0]]))
    z = 1.0 - 2.0 * (w @ v)  # reflected -, reflected *
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
    assert np.allclose(T.relu(t).data, np.maximum(x, 0))
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
#: three streams through one map each, the prompt bank's [3, 2] maps
MLP_LAYOUTS = {"batched": ((4, 4, 16), ()), "stacked": ((3, 2, 4, 16), (3,)),
               "bank": ((3, 1, 4, 8), (3, 2))}


@pytest.mark.parametrize("w2_frozen", [False, True], ids=["w2", "w2_frozen"])
@pytest.mark.parametrize("layout", sorted(MLP_LAYOUTS))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_mlp_is_the_unfused_chain_bitwise(dtype, layout, w2_frozen):
    shape, lead = MLP_LAYOUTS[layout]
    rng = np.random.default_rng(len(shape))
    arrays = [rng.normal(size=s).astype(dtype)
              for s in (shape, lead + (6, 4), lead + (6,), lead + (4, 6),
                        lead + (4,))]
    tensors = [Tensor(a, requires_grad=not (w2_frozen and i >= 3),
                      dtype=dtype) for i, a in enumerate(arrays)]
    out = T.mlp(*tensors)
    seed = rng.normal(size=out.shape).astype(dtype)
    want, grads = _unfused(*arrays, seed)
    assert out.data.dtype == dtype and np.array_equal(out.data, want)
    out.backward(seed)
    for i, (t, gr) in enumerate(zip(tensors, grads)):
        if w2_frozen and i >= 3:
            assert t.grad is None
        else:
            assert t.grad.dtype == dtype and np.array_equal(t.grad, gr), i


def test_reductions_and_argextremes():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    assert np.allclose(T.tsum(x, axis=0).data, x.data.sum(axis=0))
    assert np.allclose(T.tmean(x, axis=1, keepdims=True).data,
                       x.data.mean(axis=1, keepdims=True))
    assert np.allclose(T.tmax(x, axis=1).data, x.data.max(axis=1))
    assert np.allclose(T.tmin(x, axis=0).data, x.data.min(axis=0))


def test_max_ties_route_gradient_to_first():
    x = Tensor(np.array([[1.0, 5.0, 5.0]]), requires_grad=True)
    T.tsum(T.tmax(x, axis=1)).backward()
    assert np.allclose(x.grad, [[0.0, 1.0, 0.0]])


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


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row softmax of ``scores [M, N]`` through ``_attention_probs``: with
    q the identity, the scores qᵀk are k itself."""
    return T._attention_probs(np.empty(scores.shape), np.eye(len(scores)),
                              scores, 1.0)


def test_softmax_rows_sum_to_one():
    s = _softmax_rows(np.random.default_rng(1).normal(size=(4, 6)) * 3)
    assert s.shape == (4, 6)
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)
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
    spread = np.array([[1.0], [10.0], [100.0]])
    scores = 1e3 + spread * np.random.default_rng(2).normal(size=(3, 6))
    p = _softmax_rows(scores)
    assert np.isfinite(p).all()
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)


def test_attention_matches_the_unfused_chain():
    rng = np.random.default_rng(4)
    q, k, v = (Tensor(rng.normal(size=(2, 3, 4, 6))) for _ in range(3))
    scale = 0.5
    s = np.swapaxes(q.data, -1, -2) @ k.data * scale
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    ctx = v.data @ np.swapaxes(p, -1, -2)
    assert np.abs(T.attention(q, k, v, scale).data - ctx).max() < 1e-12
    buf = np.empty_like(p)
    w = T._attention_probs(buf, q.data, k.data, scale)
    assert w is buf
    assert np.abs(w - p).max() < 1e-12
    with pytest.raises(ValueError):
        T.attention(q, k, Tensor(np.ones((2, 3, 4, 5))), scale)


def _attention_in_one_go(q, k, v, g, scale):
    """Output and gq, gk, gv of softmax attention over all lanes at once,
    in the numpy calls the blocked op makes on each block."""
    p = np.swapaxes(q, -1, -2) @ k
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = v @ np.swapaxes(p, -1, -2)
    gv = g @ p
    gs = np.swapaxes(g, -1, -2) @ v
    gs -= (gs * p).sum(axis=-1, keepdims=True)
    gs *= p
    gs *= scale
    return out, k @ np.swapaxes(gs, -1, -2), q @ gs, gv


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_blocked_attention_is_bitwise_the_one_go_formula(dtype):
    # N = 64 puts 8 lanes in a block: 20 lanes run as 8 + 8 + 4
    shape = (4, 5, 3, 64)
    assert T._CACHE_ELEMS // 64 ** 2 == 8
    rng = np.random.default_rng(11)
    q0, k0, v0, g = (rng.normal(size=shape).astype(dtype) for _ in range(4))
    want = _attention_in_one_go(q0, k0, v0, g, 0.3)
    q, k, v = (Tensor(a, requires_grad=True, dtype=dtype) for a in (q0, k0, v0))
    out = T.attention(q, k, v, 0.3)
    out.backward(g)
    with no_grad():
        free = T.attention(*(Tensor(a, dtype=dtype) for a in (q0, k0, v0)),
                           0.3)
    for got, ref in zip((out.data, q.grad, k.grad, v.grad, free.data),
                        want + (want[0],)):
        assert got.dtype == dtype
        assert np.array_equal(got, ref)


def test_attention_without_a_tape_builds_no_whole_probability_array():
    # [216, 135, 135] float64 probabilities would be 31.5 MB; one block is
    # one lane, 146 KB, and the output 1.9 MB
    rng = np.random.default_rng(12)
    q, k, v = (Tensor(rng.normal(size=(108, 2, 8, 135))) for _ in range(3))
    with no_grad():
        tracemalloc.start()
        try:
            T.attention(q, k, v, 8 ** -0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4e6, peak


def test_attention_gradient_over_several_lane_blocks(monkeypatch):
    # two lanes of [5, 5] per block: 7 lanes run as 2 + 2 + 2 + 1, in the
    # taped pass and in the no-grad passes of the central differences
    monkeypatch.setattr(T, "_CACHE_ELEMS", 2 * 5 * 5)
    rng = np.random.default_rng(13)
    ops = [Tensor(rng.normal(size=(7, 3, 5)), requires_grad=True)
           for _ in range(3)]
    w = Tensor(rng.normal(size=(7, 3, 5)))
    err = check_function(lambda: T.tsum(T.mul(T.attention(*ops, 0.6), w)),
                         ops)
    assert err < 1e-8


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
    k_id = Tensor(np.array([[0.0, 1.0, 0.0]]))
    assert np.allclose(T.dwconv1d(x, k_id).data, x.data)
    k_avg = Tensor(np.array([[1.0, 1.0, 1.0]]) / 3.0)
    assert np.allclose(T.dwconv1d(x, k_avg).data, [[1.0, 1.0, 1.0]])
    with pytest.raises(ValueError):
        T.dwconv1d(x, Tensor(np.ones((1, 4))))  # even kernel


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
