"""Stacked modules: row i of one call equals module i alone, bitwise.

``stack_modules`` gives a module arrays with a leading stream axis; row i
of its input's axis 0 must go through exactly what the module built alone
from row i's arrays computes, in float64, with or without a batch axis
after the stream axis, in train and in eval mode. Batch norm running
statistics of each row must update as the lone module's do.
"""

import numpy as np
import pytest

from conftest import module_row
from trifuse.aggregation import ConvGate, LinearGate
from trifuse.nn import Linear, stack_modules
from trifuse.prompts import PromptMlp
from trifuse.ssm import SelectiveScan
from trifuse.tensor import Tensor

DIM = 4

BUILDERS = {
    "Linear": lambda rng: Linear(DIM, DIM, rng),
    "ConvGate": lambda rng: ConvGate(DIM, 3, rng),
    "LinearGate": lambda rng: LinearGate(DIM, rng),
    "SelectiveScan": lambda rng: SelectiveScan(DIM, 3, 2, rng),
    "PromptMlp": lambda rng: PromptMlp(DIM, rng),
}


def _stacked(build, seed=0):
    rng = np.random.default_rng(seed)
    stacked = stack_modules(lambda: build(rng), (3,))
    # give biases, batch norm affines and running statistics row-distinct
    # values, so that a row mixed up with another shows
    for _, p in stacked.named_params():
        p.data = p.data + rng.normal(scale=0.1, size=p.shape)
    for _, buf in stacked.named_buffers():
        buf += rng.uniform(0.1, 0.5, size=buf.shape)
    return stacked


@pytest.mark.parametrize("batched", [False, True], ids=["3DN", "3BDN"])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_stacked_row_equals_the_module_alone(kind, training, batched):
    build = BUILDERS[kind]
    stacked = _stacked(build).train(training)
    alone = [module_row(stacked, build(np.random.default_rng(9)), i)
             for i in range(3)]
    shape = (3, 2, DIM, 6) if batched else (3, DIM, 6)
    x = Tensor(np.random.default_rng(1).normal(size=shape), requires_grad=True)

    out = stacked(x)
    assert out.shape == shape
    for i, mod in enumerate(alone):
        assert np.array_equal(out.data[i], mod(Tensor(x.data[i])).data), i

    # the stacked buffers (batch norm running statistics) moved row by row
    # exactly as each lone module's did
    bufs = dict(stacked.named_buffers())
    for i, mod in enumerate(alone):
        for name, buf in mod.named_buffers():
            assert np.array_equal(bufs[name][i], buf), (i, name)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_stacked_gradients_match_the_modules_alone(kind):
    build = BUILDERS[kind]
    stacked = _stacked(build, seed=2).train()
    alone = [module_row(stacked, build(np.random.default_rng(9)), i)
             for i in range(3)]
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(3, 2, DIM, 6)), requires_grad=True)
    seed = rng.normal(size=x.shape)
    stacked(x).backward(seed)
    params = dict(stacked.named_params())
    for i, mod in enumerate(alone):
        xi = Tensor(x.data[i], requires_grad=True)
        mod(xi).backward(seed[i])
        assert np.allclose(x.grad[i], xi.grad, rtol=1e-13, atol=1e-15)
        for name, p in mod.named_params():
            assert np.allclose(params[name].grad[i], p.grad,
                               rtol=1e-13, atol=1e-15), (i, name)


def test_stack_builds_in_order_and_keeps_names():
    # row k holds the arrays of the k-th module built, row-major over lead,
    # so the same seed gives the same start as building them one by one
    rng = np.random.default_rng(4)
    alone = [ConvGate(DIM, 3, rng) for _ in range(6)]
    rng = np.random.default_rng(4)
    stacked = stack_modules(lambda: ConvGate(DIM, 3, rng), (3, 2))
    names = [n for n, _ in alone[0].named_params()]
    assert [n for n, _ in stacked.named_params()] == names
    for name, p in stacked.named_params():
        rows = [dict(m.named_params())[name].data for m in alone]
        assert p.shape == (3, 2) + rows[0].shape
        for k, row in enumerate(rows):
            assert np.array_equal(p.data[k // 2, k % 2], row), (name, k)
    assert stacked.norm.running_var.shape == (3, 2, DIM)
