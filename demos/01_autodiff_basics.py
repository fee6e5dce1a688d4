"""A tour of the tape.

Every numeric operation in this package records how to run itself
backwards. This script builds a tiny least squares problem, checks the
tape's gradient against the one you would derive on paper, then shows the
two switches that control recording: frozen parameters and no_grad.
"""

import numpy as np

from trifuse.gradcheck import check_function
from trifuse.tensor import Param, Tensor, add, matmul, mlp, mul, no_grad, tsum

rng = np.random.default_rng(0)

# -- gradients match the pencil-and-paper derivation ------------------------

w = Param(rng.standard_normal((2, 3)))
x = Tensor(rng.standard_normal((3, 1)))
target = Tensor(rng.standard_normal((2, 1)))

residual = add(matmul(w, x), mul(target, -1.0))
loss = tsum(mul(residual, residual))
loss.backward()

by_hand = 2.0 * (w.data @ x.data - target.data) @ x.data.T
print("loss                 ", float(loss.data))
print("max |tape - by hand| ", np.abs(w.grad - by_hand).max())

# -- and match finite differences on something less convenient ---------------

# linear -> gelu -> linear, 3 -> 4 -> 3, applied twice; each application is
# one tape node with a hand-written backward pass
w1 = Param(0.5 * rng.standard_normal((4, 3)))
b1 = Param(0.1 * rng.standard_normal(4))
w2 = Param(0.5 * rng.standard_normal((3, 4)))
b2 = Param(0.1 * rng.standard_normal(3))


def bent_chain():
    return tsum(mlp(mlp(x, w1, b1, w2, b2), w1, b1, w2, b2))


err = check_function(bent_chain, [w1, b1, w2, b2])
print("fd check on an mlp chain, max rel err", f"{err:.2e}")

# -- frozen parameters are constants to the tape -----------------------------

frozen = Param(rng.standard_normal((2, 3)), frozen=True)
out = tsum(matmul(frozen, x))
out.backward()
print("frozen grad is exactly zero:", not frozen.grad.any())

# -- no_grad turns recording off entirely ------------------------------------

with no_grad():
    silent = matmul(w, x)
print("recorded under no_grad:", silent.requires_grad)
