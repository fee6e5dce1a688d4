"""The selective scan, slow way and fast way.

The reference implementation walks the sequence token by token, one tape
op at a time. The fused op cuts the tokens into chunks and sweeps all
chunks at once, one position at a time, then links them with a carry. They
are the same function of the same six operands, and this script measures
just how same: to around 1e-15 on a random layer, whatever the chunk size.
"""

import numpy as np

from trifuse.ssm import SelectiveScan, scan_sequential
from trifuse.tensor import Tensor, selective_scan, softplus, tsum

rng = np.random.default_rng(3)

layer = SelectiveScan(dim=4, d_state=8, dt_rank=4,
                      rng=np.random.default_rng(1))
x = Tensor(rng.standard_normal((4, 300)))
ops = (x, softplus(layer.dt_up(layer.dt_low(x))), layer.a_log,
       layer.b_proj(x), layer.c_proj(x), layer.skip)
print("operand shapes: x", x.shape, "delta", ops[1].shape,
      "a_log", layer.a_log.shape, "b", ops[3].shape, "c", ops[4].shape)

slow = scan_sequential(*ops)
for chunk in (1, 7, 64, 4096):
    fast = selective_scan(*ops, chunk=chunk)
    gap = np.abs(fast.data - slow.data).max()
    print(f"chunk {chunk:4d}: max |fast - sequential| = {gap:.3e}")

# gradients flow through the scan like through any other op
loss = tsum(layer(x))
loss.backward()
print("grad reaches the step-size projection:",
      float(np.abs(layer.dt_up.weight.grad).max()) > 0)
