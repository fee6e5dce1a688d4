"""Where the prompts go.

Each stream's layer input is [tokens, slot n, slot r, slot t]. The slot
belonging to the stream holds its own bank prompt; the other two slots
hold transferred copies of the sibling prompts. This script makes the
routing visible with constant markers, then checks the independence claim:
with the cross maps zeroed, a stream cannot see the other banks at all.

The bank holds every per-stream array stacked, stream on axis 0 in
MODALITIES order (n, r, t): prompts[layer] is [3, D, P], and each map
module (transfers, rp) is one stacked module whose row i serves stream i.
"""

from dataclasses import replace

import numpy as np

from trifuse.config import RunConfig
from trifuse.prompts import PromptBank
from trifuse.tensor import Tensor
from trifuse.train import build_model, build_world

SMALL = replace(RunConfig(), embed_dim=8, layers=2, heads=2, patch=4,
                image_h=8, image_w=8, channels=1, n_prompts=2, d_state=2,
                dt_rank=2, ma_blocks=1, num_ids=4, instances_per_id=3,
                eval_instances_per_id=2, eval_queries_per_id=1,
                latent_dim=4, nuisance_dim=2, num_cams=2)


def zero(mlp):
    """Zero every row of a stacked prompt map, so each one outputs 0."""
    for _, p in mlp.named_params():
        p.data[:] = 0.0


# -- marker round trip -------------------------------------------------------

bank = PromptBank(dim=4, n_prompts=2, layers=2, rng=np.random.default_rng(0))
zero(bank.transfers)
# markers 1, 2, 3 in the prompts of streams n, r, t
bank.prompts[0].data[:] = np.array([1.0, 2.0, 3.0])[:, None, None]

# the three streams run stacked on axis 0, in MODALITIES order; r is row 1
tokens = Tensor(np.zeros((3, 4, 3)))
seq = bank.assemble_layer_input(0, tokens, None)
print("assembled width:", seq.shape[-1], "(3 tokens + 3 slots x 2 prompts)")
print("slot fill values per column of stream r:", seq.data[1, 0, 3:].tolist())
# the harvested slot columns are [3, D, 3 x 2]; r's own slot is columns 2:4
_, slots = bank.harvest(seq, 3)
print("own slot comes back intact:",
      bool((slots.data[1, :, 2:4] == 2.0).all()))

# -- sequence layout inside the full model -----------------------------------

model = build_model(SMALL, seed=0)
model.eval()
world = build_world(SMALL, seed=0)
# a split is one array [3, N, C, H, W], stream on axis 0; keep sample 0
images = world.train_part(SMALL.instances_per_id).images[:, :1]
model.forward_batch(images)
print("\nper-layer sequence lengths (all three streams):", model.last_seq)

# -- independence given the bank ---------------------------------------------

cfg = replace(SMALL, use_pfa=False, use_ma=False)
model = build_model(cfg, seed=0)
model.eval()
zero(model.bank.transfers)
zero(model.bank.rp)

# row 0 of the [F, 3D, B] features is the class token, streams stacked
before = model.forward_batch(images).data[0]
for lay in range(cfg.layers):
    model.bank.prompts[lay].data[1] += 10.0                  # stream r
after = model.forward_batch(images).data[0]
d = cfg.embed_dim
print("stream n unmoved by a scrambled r bank:",
      bool((after[:d] == before[:d]).all()))
print("stream r itself moved:",
      bool((after[d:2 * d] != before[d:2 * d]).any()))

# -- refinement modes differ in parameter cost only where expected -----------

fusion = PromptBank(4, 2, 2, np.random.default_rng(1), mode="fusion")
separation = PromptBank(4, 2, 2, np.random.default_rng(1), mode="separation")


def refiner_params(bank):
    return sum(p.size for p in bank.rp.params())


print("\nrefiner params, fusion vs separation:",
      refiner_params(fusion), "vs", refiner_params(separation))
