"""Synthetic multi-modal identity data.

Each identity owns a latent vector. An instance of that identity in a
given modality blends the identity latent with instance noise,

    z = sqrt(rho) * z_id + sqrt(1 - rho) * eps,

then renders it through a fixed per-modality linear map into pixel space.
On top of the signal the renderer adds a structured low-rank nuisance term
(shared projection, per-instance coefficients), a fixed per-modality
pattern, and white pixel noise:

    image = W_m z + gain * sigma * (Q_m n) + pattern_m + sigma * eps_pix

The nuisance term is what keeps a frozen random encoder from ranking the
data trivially: it dominates raw pixel distances at moderate gain, yet is
linearly separable from the identity subspace, so a few trained adapters
recover it quickly.

Everything is drawn from ``np.random.default_rng`` seeded with integer
lists, so any sample is reproducible from (seed, part, id, instance) with
no generator state carried between calls. Train and eval parts draw
disjoint instance streams of the same identities.

A split is one array ``images`` ``[3, N, C, H, W]``, the modality on axis
0 in ``MODALITIES`` order as the model stacks its streams, with ``ids``
and ``cams`` ``[N]``; sample i is ``images[:, i]``, rows id-major.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .prompts import MODALITIES

_STRUCTURE = 101
_IDENTITY = 202
_INSTANCE = 303
_TRAIN, _EVAL = 0, 1


@dataclass
class ReidData:
    images: np.ndarray
    ids: np.ndarray
    cams: np.ndarray

    def __len__(self) -> int:
        return self.images.shape[1]


class SyntheticWorld:
    """Fixed rendering maps plus identity latents for one config and seed."""

    def __init__(self, cfg: RunConfig, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.shape = (cfg.channels, cfg.image_h, cfg.image_w)

        pixels = cfg.channels * cfg.image_h * cfg.image_w
        structure = np.random.default_rng([seed, _STRUCTURE])
        self.render = {m: structure.normal(size=(pixels, cfg.latent_dim))
                       / np.sqrt(cfg.latent_dim) for m in MODALITIES}
        self.nuisance = {m: structure.normal(size=(pixels, cfg.nuisance_dim))
                         / np.sqrt(cfg.nuisance_dim) for m in MODALITIES}
        self.pattern = {m: 0.5 * structure.normal(size=pixels)
                        for m in MODALITIES}
        identity = np.random.default_rng([seed, _IDENTITY])
        self.id_latents = identity.normal(size=(cfg.num_ids, cfg.latent_dim))

    def _image(self, mod: str, ident: int, part: int, instance: int) -> np.ndarray:
        cfg = self.cfg
        rng = np.random.default_rng(
            [self.seed, _INSTANCE, part, ident, instance, ord(mod)])
        z = (np.sqrt(cfg.rho) * self.id_latents[ident]
             + np.sqrt(1.0 - cfg.rho) * rng.normal(size=cfg.latent_dim))
        flat = self.render[mod] @ z
        flat = flat + (cfg.nuisance_gain * cfg.sigma
                       * (self.nuisance[mod] @ rng.normal(size=cfg.nuisance_dim)))
        flat = flat + self.pattern[mod]
        flat = flat + cfg.sigma * rng.normal(size=flat.size)
        return flat.reshape(self.shape)

    def _part(self, part: int, instances: range) -> ReidData:
        """Instances ``instances`` of every id, id-major."""
        ids = np.repeat(np.arange(self.cfg.num_ids), len(instances))
        insts = np.tile(instances, self.cfg.num_ids)
        images = np.empty((len(MODALITIES), len(ids)) + self.shape)
        for i, (ident, inst) in enumerate(zip(ids, insts)):
            for r, m in enumerate(MODALITIES):
                images[r, i] = self._image(m, ident, part, inst)
        return ReidData(images=images, ids=ids, cams=insts % self.cfg.num_cams)

    def train_part(self, instances_per_id: int) -> ReidData:
        return self._part(_TRAIN, range(instances_per_id))

    def eval_parts(self, instances_per_id: int,
                   queries_per_id: int) -> tuple[ReidData, ReidData]:
        """Held-out instances of the training identities, split per id into
        queries (each id's first ``queries_per_id`` instances) and gallery
        (the rest). Camera tags keep round-robin order, so a query keeps
        cross-camera positives in the gallery."""
        if queries_per_id >= instances_per_id:
            raise ValueError("need at least one gallery instance per id")
        return (self._part(_EVAL, range(queries_per_id)),
                self._part(_EVAL, range(queries_per_id, instances_per_id)))
