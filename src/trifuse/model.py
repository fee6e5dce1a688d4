"""Three-stream fusion model over a frozen shared encoder.

Each sample is a dict of per-modality images. Every modality runs through
the same frozen backbone; ``RunConfig`` fields choose the trainable surface:

  use_pfa  one parallel adapter per layer, shared across modalities
  use_srp  prompt groups through every layer, refined between layers from
           the previous layer's harvested groups as ``srp_mode`` says
  use_ma   final patch tokens of all modalities aggregated into a fused
           vector by ``ma_blocks`` scan blocks (``ma_intra``, ``ma_inter``)

The class-token feature (three streams stacked) always exists; the fused
feature exists only with ``use_ma``. Identity heads for both live here too
so an optimizer can reach everything trainable through one module.
"""

from __future__ import annotations

import numpy as np

from .adapter import ParallelAdapter
from .aggregation import AggregationBlock, AggregationHead, Aggregator
from .backbone import VisionBackbone
from .config import RunConfig
from .losses import SupervisionHeads
from .nn import Module, locate_non_finite
from .prompts import MODALITIES, PromptBank
from .tensor import (Tensor, concat, finite_checks, narrow, no_grad, reshape,
                     transpose)


class FusionModel(Module):
    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        d = cfg.embed_dim

        self.backbone = VisionBackbone(cfg, rng)
        self.backbone.freeze()

        self.adapters = None
        if cfg.use_pfa:
            hidden = int(round(cfg.pfa_hidden_ratio * d))
            self.adapters = [ParallelAdapter(d, hidden, rng)
                             for _ in range(cfg.layers)]

        self.bank = None
        if cfg.use_srp:
            self.bank = PromptBank(d, cfg.n_prompts, cfg.layers, rng,
                                   mode=cfg.srp_mode)

        self.aggregator = None
        if cfg.use_ma:
            blocks = [AggregationBlock(d, cfg.d_state, cfg.dt_rank,
                                       cfg.conv_kernel, rng,
                                       use_intra=cfg.ma_intra,
                                       use_inter=cfg.ma_inter,
                                       chunk=cfg.scan_chunk)
                      for _ in range(cfg.ma_blocks)]
            self.aggregator = Aggregator(blocks, AggregationHead(d, rng))

        self.heads = SupervisionHeads(3 * d, cfg.num_ids, rng,
                                      with_ma=cfg.use_ma)

        #: per-modality sequence lengths seen at each layer, refreshed on
        #: every forward_batch; handy for asserting sequence surgery
        self.last_seq: dict[str, list[int]] = {}

    # -- forward -------------------------------------------------------

    def _run_stream(self, mod: str, images: np.ndarray) -> Tensor:
        """Images ``[..., C, H, W]`` to final tokens ``[..., D, N]``."""
        x = self.backbone.tokens(images)
        n_star = x.shape[-1]
        harvested = None
        lengths = []
        for i, layer in enumerate(self.backbone.blocks):
            if self.bank is not None:
                x = self.bank.assemble_layer_input(i, mod, x, harvested)
            lengths.append(x.shape[-1])
            adapter = self.adapters[i] if self.adapters is not None else None
            x = layer(x, adapter=adapter)
            if self.bank is not None:
                x, groups = self.bank.harvest(mod, x, n_star)
                harvested = [groups[s] for s in MODALITIES]
        self.last_seq[mod] = lengths
        return self.backbone.norm(x)

    def forward_batch(self, samples: list[dict[str, np.ndarray]]):
        """Class-token and fused features, ``[3D, B]`` each (fused is None
        without ``use_ma``). Each modality's B images run as one stream."""
        tokens = {m: self._run_stream(m, np.stack([s[m] for s in samples]))
                  for m in MODALITIES}
        f_cls = concat([narrow(tokens[m], -1, 0, 1) for m in MODALITIES],
                       axis=-2)
        f_ma = self.aggregator(tokens) if self.aggregator is not None else None
        return _columns(f_cls), None if f_ma is None else _columns(f_ma)

    # -- inference -----------------------------------------------------

    def features(self, samples: list[dict[str, np.ndarray]]) -> np.ndarray:
        """Retrieval embedding, one column per sample.

        The class-token feature, with the fused feature stacked below it
        when aggregation is enabled. The pass runs without per-op finite
        checks or numpy floating-point warnings and checks the returned
        matrix once; if that fails, the pass runs again with per-op checks
        to name the op and module at fault.
        """
        with no_grad(), finite_checks(False), np.errstate(all="ignore"):
            f_cls, f_ma = self.forward_batch(samples)
        if f_ma is None:
            out = f_cls.data.copy()
        else:
            out = np.concatenate([f_cls.data, f_ma.data], axis=0)
        if not np.isfinite(out).all():
            locate_non_finite(self, lambda: self.forward_batch(samples),
                              "eval pass", "non-finite features")
        return out


def _columns(t: Tensor) -> Tensor:
    """Per-sample feature columns ``[B, F, 1]`` as one ``[F, B]`` matrix."""
    return transpose(reshape(t, t.shape[:2]))
