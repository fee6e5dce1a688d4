"""Where the prompts go.

Each stream's layer input is [tokens, slot n, slot r, slot t]. The slot
belonging to the stream holds its own bank prompt; the other two slots
hold transferred copies of the sibling prompts. This script makes the
routing visible with constant markers, then checks the independence claim:
with the cross maps zeroed, a stream cannot see the other banks at all.
"""

from dataclasses import replace

import numpy as np

from trifuse.config import RunConfig
from trifuse.prompts import MODALITIES, PromptBank
from trifuse.tensor import Tensor
from trifuse.train import build_model, build_world

SMALL = replace(RunConfig(), embed_dim=8, layers=2, heads=2, patch=4,
                image_h=8, image_w=8, channels=1, n_prompts=2, d_state=2,
                dt_rank=2, ma_blocks=1, num_ids=4, instances_per_id=3,
                eval_instances_per_id=2, eval_queries_per_id=1,
                latent_dim=4, nuisance_dim=2, num_cams=2)


def zero(linear):
    linear.weight.data[:] = 0.0
    if linear.bias is not None:
        linear.bias.data[:] = 0.0


# -- marker round trip -------------------------------------------------------

bank = PromptBank(dim=4, n_prompts=2, layers=2, rng=np.random.default_rng(0))
for tb in bank.transfers.values():
    zero(tb.inner)
    zero(tb.outer)
for value, m in enumerate(MODALITIES, start=1):
    bank.prompts[0][m].data[:] = float(value)

# the three streams run stacked on axis 0, in MODALITIES order; r is row 1
tokens = Tensor(np.zeros((3, 4, 3)))
seq = bank.assemble_layer_input(0, tokens, None)
print("assembled width:", seq.shape[-1], "(3 tokens + 3 slots x 2 prompts)")
print("slot fill values per column of stream r:", seq.data[1, 0, 3:].tolist())
_, groups = bank.harvest(seq, 3)
print("own slot comes back intact:",
      bool((groups[1].data[1] == 2.0).all()))

# -- sequence layout inside the full model -----------------------------------

model = build_model(SMALL, seed=0)
model.eval()
world = build_world(SMALL, seed=0)
sample = world.train_part(SMALL.instances_per_id).samples[0]
model.forward_batch([sample])
print("\nper-layer sequence lengths (all three streams):", model.last_seq)

# -- independence given the bank ---------------------------------------------

cfg = replace(SMALL, use_pfa=False, use_ma=False)
model = build_model(cfg, seed=0)
model.eval()
for tb in model.bank.transfers.values():
    zero(tb.inner)
    zero(tb.outer)
for mlp in model.bank.rp.values():
    zero(mlp.inner)
    zero(mlp.outer)

before, _ = model.forward_batch([sample])
for lay in range(cfg.layers):
    model.bank.prompts[lay]["r"].data += 10.0
after, _ = model.forward_batch([sample])
d = cfg.embed_dim
print("stream n unmoved by a scrambled r bank:",
      bool((after.data[:d] == before.data[:d]).all()))
print("stream r itself moved:",
      bool((after.data[d:2 * d] != before.data[d:2 * d]).any()))

# -- refinement modes differ in parameter cost only where expected -----------

fusion = PromptBank(4, 2, 2, np.random.default_rng(1), mode="fusion")
separation = PromptBank(4, 2, 2, np.random.default_rng(1), mode="separation")


def refiner_params(bank):
    return sum(p.size for key in bank.rp for p in bank.rp[key].params())


print("\nrefiner params, fusion vs separation:",
      refiner_params(fusion), "vs", refiner_params(separation))
