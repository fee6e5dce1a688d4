"""The selective scan, slow way and fast way.

The reference implementation walks the sequence token by token. The fast
path cuts the tokens into chunks and sweeps all chunks at once, one
position at a time, then links them with a carry. They are the same
function, and this script measures just how same: to around 1e-15 on a
random layer, whatever the chunk size.
"""

import numpy as np

from trifuse.ssm import SelectiveScan, scan_fast, scan_sequential
from trifuse.tensor import Tensor, tsum

rng = np.random.default_rng(3)

layer = SelectiveScan(dim=4, d_state=8, dt_rank=4,
                      rng=np.random.default_rng(1))
x = Tensor(rng.standard_normal((4, 300)))
disc = layer.discretize(x)
print("coefficient shapes: abar", disc.abar.shape, "bbarx", disc.bbarx.shape,
      "c", disc.c.shape)

slow = scan_sequential(disc)
for chunk in (1, 7, 64, 4096):
    fast = scan_fast(disc, chunk=chunk)
    gap = np.abs(fast.data - slow.data).max()
    print(f"chunk {chunk:4d}: max |fast - sequential| = {gap:.3e}")

# gradients flow through the scan like through any other op
loss = tsum(scan_fast(layer.discretize(x)))
loss.backward()
print("grad reaches the step-size projection:",
      float(np.abs(layer.dt_up.weight.grad).max()) > 0)
