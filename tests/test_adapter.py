"""Parallel adapter branch."""

import numpy as np

from trifuse.adapter import ParallelAdapter
from trifuse.backbone import EncoderLayer
from trifuse.tensor import Tensor


def _zeroed(adapter):
    adapter.w1.data[:] = 0.0
    adapter.b1.data[:] = 0.0
    adapter.w2.data[:] = 0.0
    adapter.b2.data[:] = 0.0
    return adapter


def test_zero_weights_contribute_exactly_nothing():
    rng = np.random.default_rng(0)
    layer = EncoderLayer(6, 2, rng)
    adapter = _zeroed(ParallelAdapter(6, 3, rng))
    x = Tensor(rng.normal(size=(6, 4)))
    assert np.array_equal(layer(x, adapter=adapter).data, layer(x).data)


def test_bottleneck_shapes_and_gradient_flow():
    rng = np.random.default_rng(2)
    adapter = ParallelAdapter(8, 2, rng)
    x = Tensor(rng.normal(size=(8, 5)))
    y = adapter(x)
    assert y.shape == (8, 5)
    assert adapter.w1.shape == (2, 8)
    assert adapter.w2.shape == (8, 2)
    y.sum().backward()
    assert np.abs(adapter.w1.grad).sum() > 0
    assert np.abs(adapter.w2.grad).sum() > 0
