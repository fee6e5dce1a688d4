"""The selective scan, slow way and fast way.

The reference implementation walks the sequence token by token, one tape
op at a time. The fused op lays the states out token-major and sweeps the
sequence once, a whole contiguous row of states per token, with its sums
over states done as matmuls. They are the same function of the same six
operands, and this script measures just how same: to around 1e-15 on a
random layer, whatever the sequence length.
"""

import numpy as np

from trifuse.ssm import SelectiveScan, scan_sequential
from trifuse.tensor import Tensor, selective_scan, softplus, tsum

rng = np.random.default_rng(3)

layer = SelectiveScan(dim=4, d_state=8, dt_rank=4,
                      rng=np.random.default_rng(1))
for k in (1, 7, 64, 300):
    x = Tensor(rng.standard_normal((4, k)))
    ops = (x, softplus(layer.dt_up(layer.dt_low(x))), layer.a_log,
           layer.b_proj(x), layer.c_proj(x), layer.skip)
    gap = np.abs(selective_scan(*ops).data - scan_sequential(*ops).data).max()
    print(f"{k:3d} tokens: max |fast - sequential| = {gap:.3e}")
print("operand shapes at 300 tokens: x", x.shape, "delta", ops[1].shape,
      "a_log", layer.a_log.shape, "b", ops[3].shape, "c", ops[4].shape)

# gradients flow through the scan like through any other op
loss = tsum(layer(x))
loss.backward()
print("grad reaches the step-size projection:",
      float(np.abs(layer.dt_up.weight.grad).max()) > 0)
