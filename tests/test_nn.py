"""Neural blocks: normalization semantics, attention, module traversal."""

import numpy as np
import pytest

from trifuse import nn
from trifuse import tensor as T
from trifuse.bench import held_bytes, peak_bytes
from trifuse.tensor import Param, Tensor


def rng():
    return np.random.default_rng(11)


def test_linear_identity_and_affine():
    lin = nn.Linear(3, 3, rng())
    lin.weight.data = np.eye(3)
    lin.bias.data = np.zeros(3)
    x = np.arange(6.0).reshape(3, 2)
    assert np.allclose(lin(Tensor(x)).data, x)
    lin.weight.data = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0],
                                [0.0, 0.0, 3.0]])
    lin.bias.data = np.array([1.0, 1.0, 1.0])
    got = lin(Tensor(x)).data
    assert np.allclose(got, x * np.array([[1.0], [2.0], [3.0]]) + 1.0)


def test_linear_rejects_wrong_input_dim():
    # an Mlp's first map checks its input the same way
    for mod in (nn.Linear(3, 2, rng()), nn.Mlp(3, 5, rng())):
        with pytest.raises(ValueError, match="expected 3 features, got 4"):
            mod(Tensor(np.ones((4, 5))))


def test_layer_norm_column_statistics():
    ln = nn.LayerNorm(16)
    x = Tensor(np.random.default_rng(0).normal(size=(16, 7)) * 5 + 2)
    y = ln(x).data
    assert np.abs(y.mean(axis=0)).max() < 1e-7
    assert np.abs(y.var(axis=0) - 1.0).max() < 1e-6


def test_batch_norm_train_uses_batch_stats():
    bn = nn.BatchNorm(2)
    x = Tensor(np.array([[1.0, 3.0], [10.0, 10.0]]))
    y = bn(x).data
    assert np.allclose(y[0], [-1.0, 1.0], atol=1e-4)
    assert np.allclose(y[1], [0.0, 0.0], atol=1e-6)  # constant channel


def test_batch_norm_requires_two_tokens_in_train():
    bn = nn.BatchNorm(2)
    with pytest.raises(ValueError):
        bn(Tensor(np.ones((2, 1))))
    bn.eval()
    bn(Tensor(np.ones((2, 1))))  # eval mode is fine with one token


def test_batch_norm_running_stats_and_eval():
    bn = nn.BatchNorm(1, momentum=1.0)
    x = np.array([[1.0, 2.0, 3.0, 4.0]])
    bn(Tensor(x))
    assert np.allclose(bn.running_mean, [2.5])
    assert np.allclose(bn.running_var, [x.var(ddof=1)])
    bn.eval()
    got = bn(Tensor(x)).data
    want = (x - 2.5) / np.sqrt(x.var(ddof=1) + bn.eps)
    assert np.abs(got - want).max() < 1e-5


def test_batch_norm_momentum_blend():
    bn = nn.BatchNorm(1, momentum=0.1)
    bn(Tensor(np.array([[10.0, 10.0]])))
    assert np.allclose(bn.running_mean, [0.9 * 0.0 + 0.1 * 10.0])


def test_depthwise_conv_odd_kernel_only():
    with pytest.raises(ValueError):
        nn.DepthwiseConv1d(2, 4, rng())


def test_mhsa_single_token_is_value_projection():
    att = nn.MultiHeadSelfAttention(8, 2, rng())
    x = Tensor(np.random.default_rng(1).normal(size=(8, 1)))
    got = att(x).data
    # the value rows of each head's run of q, k and v rows
    v = att.wqkv(x).data.reshape(2, 3, 4, 1)[:, 2].reshape(8, 1)
    want = att.wo(Tensor(v)).data
    assert np.allclose(got, want, atol=1e-12)


def test_mhsa_in_projection_holds_the_q_k_v_draws_per_head():
    # init is that of three Linear(dim, dim) maps q, k, v and then wo,
    # drawn in that order, with the three laid out per head
    att = nn.MultiHeadSelfAttention(8, 2, np.random.default_rng(7))
    again = np.random.default_rng(7)
    q, k, v, o = (nn.Linear(8, 8, again) for _ in range(4))
    assert att.wqkv.weight.shape == (24, 8) and att.wqkv.bias.shape == (24,)
    weight = att.wqkv.weight.data.reshape(2, 3, 4, 8)  # [head, qkv, d, in]
    bias = att.wqkv.bias.data.reshape(2, 3, 4)
    for i, m in enumerate((q, k, v)):
        assert np.array_equal(weight[:, i], m.weight.data.reshape(2, 4, 8))
        assert np.array_equal(bias[:, i], m.bias.data.reshape(2, 4))
    assert np.array_equal(att.wo.weight.data, o.weight.data)
    assert [name for name, _ in att.named_params()] == [
        "wqkv.weight", "wqkv.bias", "wo.weight", "wo.bias"]


def test_mhsa_rows_stochastic_and_uniform_inputs():
    att = nn.MultiHeadSelfAttention(8, 4, rng())
    x = Tensor(np.ones((8, 5)))
    qkv = att.wqkv(x).data.reshape(4, 3, 2, 5)  # [head, qkv, d, n]
    qkv[:, 2] = 1.0  # values of ones read the weights' column sums
    sums = T.attention(Tensor(qkv.reshape(24, 5)), 4, 2 ** -0.5).data
    assert np.abs(sums - 1.0).max() < 1e-12
    v = np.arange(40.0).reshape(4, 2, 5)
    qkv[:, 2] = v  # identical tokens weigh every value alike
    mean = T.attention(Tensor(qkv.reshape(24, 5)), 4, 2 ** -0.5).data
    want = v.mean(axis=-1, keepdims=True)
    assert np.abs(mean.reshape(v.shape) - want).max() < 1e-12


def test_mhsa_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        nn.MultiHeadSelfAttention(6, 4, rng())


def _recorded_ops(monkeypatch, run) -> list[str]:
    """The op names of the tape nodes ``run()`` records, in order."""
    ops = []
    from_op = Tensor._from_op.__func__

    def recording(cls, data, parents, vjp, op):
        ops.append(op)
        return from_op(cls, data, parents, vjp, op)

    monkeypatch.setattr(Tensor, "_from_op", classmethod(recording))
    run()
    return ops


def test_attention_and_conv_modules_record_no_shape_nodes(monkeypatch):
    x = Tensor(np.random.default_rng(2).normal(size=(3, 2, 8, 5)))
    att = nn.MultiHeadSelfAttention(8, 2, rng())
    conv = nn.DepthwiseConv1d(8, 3, rng())
    assert _recorded_ops(monkeypatch, lambda: att(x)) == [
        "linear", "attention", "linear"]
    assert _recorded_ops(monkeypatch, lambda: conv(x)) == ["dwconv1d"]


def test_ffn_zero_weights_give_zero():
    ff = nn.FeedForward(4, rng(), ratio=2)
    for p in ff.params():
        p.data[...] = 0.0
    out = ff(Tensor(np.random.default_rng(2).normal(size=(4, 3))))
    assert np.all(out.data == 0.0)


def test_ffn_hidden_ratio():
    ff = nn.FeedForward(6, rng(), ratio=4)
    assert ff.w1.shape == (24, 6)
    assert ff.w2.shape == (6, 24)


def test_mlp_keeps_its_hidden_output_only_for_the_second_weight():
    # the node keeps GELU's derivative, one [hidden, N] array; the hidden
    # output only while w2 needs a gradient, so a frozen w2 (as in the
    # backbone) leaves one [hidden, N] array less held after the forward
    n, hidden = 512, 64
    held = []
    for frozen in (False, True):
        mlp = nn.Mlp(16, hidden, rng())
        if frozen:
            mlp.w2.freeze()
            mlp.b2.freeze()
        held.append(held_bytes(mlp, n, dim=16))
    one_hidden = hidden * n * np.dtype(np.float64).itemsize
    assert abs((held[0] - held[1]) - one_hidden) < 0.05 * one_hidden
    # the derivative, plus the [16, N] output: not the pre-activation and
    # the tanh besides
    assert one_hidden <= held[1] < 2 * one_hidden


def test_mlp_without_a_tape_builds_no_hidden_size_array():
    # one gallery eval chunk's FFN: the [3, 128, 64, 15] hidden arrays are
    # 2.9 MB each; the lane blocks' three buffers are 0.26 MB each and the
    # output 0.74 MB. A trained w2 changes nothing without a tape
    mlp = nn.Mlp(16, 64, rng())
    x = Tensor(rng().normal(size=(3, 128, 16, 15)))
    with T.no_grad():
        peak = peak_bytes(lambda: mlp(x))
    assert mlp.w2.requires_grad and peak < 2e6, peak


def test_module_traversal_and_state_roundtrip():
    class Tiny(nn.Module):
        def __init__(self, r):
            self.lin = nn.Linear(2, 2, r)
            self.stack = [nn.LayerNorm(2), nn.LayerNorm(2)]
            self.by_name = {"a": nn.BatchNorm(2)}

    tiny = Tiny(rng())
    names = [n for n, _ in tiny.named_params()]
    assert "lin.weight" in names and "stack.0.gain" in names
    assert "by_name.a.shift" in names
    buffers = [n for n, _ in tiny.named_buffers()]
    assert "by_name.a.running_mean" in buffers

    state = {k: (v.copy(), f) for k, (v, f) in tiny.state_dict().items()}
    for p in tiny.params():
        p.data[...] = 7.0
    tiny.load_state_dict(state)
    assert not np.any(tiny.lin.weight.data == 7.0)

    with pytest.raises(KeyError):
        tiny.load_state_dict({**state, "bogus": (np.ones(1), False)})
    partial = dict(state)
    partial.pop("lin.weight")
    with pytest.raises(KeyError):
        tiny.load_state_dict(partial)


def test_freeze_cascades_and_counts():
    lin = nn.Linear(3, 4, rng())
    n_all = lin.num_trainable()
    assert n_all == 3 * 4 + 4
    lin.freeze()
    assert lin.num_trainable() == 0
    assert all(p.frozen for p in lin.params())


def test_train_eval_flags_cascade():
    class Holder(nn.Module):
        def __init__(self):
            self.bn = nn.BatchNorm(2)

    h = Holder()
    assert h.bn.training
    h.eval()
    assert not h.bn.training
    h.train()
    assert h.bn.training
