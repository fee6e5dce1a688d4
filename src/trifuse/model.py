"""Three-stream fusion model over a frozen shared encoder.

A batch is one ``[3, B, C, H, W]`` image array, modality on axis 0; the
three streams share the frozen backbone and run through it as one
``[3, B, D, N]`` stack. ``RunConfig`` fields choose the trainable surface:

  use_pfa  one parallel adapter per layer, shared across modalities
  use_srp  prompt groups through every layer, refined between layers from
           the previous layer's harvested groups as ``srp_mode`` says
  use_ma   final patch tokens of all modalities aggregated into a fused
           vector by ``ma_blocks`` scan blocks (``ma_intra``, ``ma_inter``)

The supervised features are one ``[F, 3D, B]`` tensor: the class-token
feature (three streams stacked) and, with ``use_ma``, the fused feature.
Their identity head, a ``Linear`` stacked ``[F]``, lives here too so an
optimizer can reach everything trainable through one module. Each
per-modality map is a stacked module that serves all three streams at once.
"""

from __future__ import annotations

import numpy as np

from .adapter import ParallelAdapter
from .aggregation import AggregationBlock, AggregationHead, Aggregator
from .backbone import VisionBackbone
from .config import RunConfig
from .nn import Linear, Module, locate_non_finite, stack_modules
from .prompts import PromptBank
from .tensor import (Tensor, concat, finite_checks, moveaxis, narrow, no_grad,
                     reshape)

#: Samples times pixels per image in one eval chunk: 8 samples of 64x32,
#: a whole 128-sample split of 16x8
_EVAL_CHUNK_PIXELS = 1 << 14


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
                                       use_inter=cfg.ma_inter)
                      for _ in range(cfg.ma_blocks)]
            self.aggregator = Aggregator(blocks, AggregationHead(d, rng))

        self.heads = stack_modules(lambda: Linear(3 * d, cfg.num_ids, rng),
                                   (2 if cfg.use_ma else 1,))

        #: sequence length seen at each layer (the same for all three
        #: streams), refreshed on every forward_batch
        self.last_seq: list[int] = []

    # -- forward -------------------------------------------------------

    def _run_streams(self, images: np.ndarray) -> Tensor:
        """Images ``[3, ..., C, H, W]`` to final tokens ``[3, ..., D, N]``."""
        x = self.backbone.tokens(images)
        n_star = x.shape[-1]
        harvested = None
        self.last_seq = []
        for i, layer in enumerate(self.backbone.blocks):
            if self.bank is not None:
                x = self.bank.assemble_layer_input(i, x, harvested)
            self.last_seq.append(x.shape[-1])
            adapter = self.adapters[i] if self.adapters is not None else None
            x = layer(x, adapter=adapter)
            if self.bank is not None:
                x, harvested = self.bank.harvest(x, n_star)
        return self.backbone.norm(x)

    def forward_batch(self, images: np.ndarray) -> Tensor:
        """Supervised features ``[F, 3D, B]`` of images ``[3, B, C, H, W]``:
        row 0 the class token, row 1 the fused feature with ``use_ma``. All
        3B images run as one stacked pass."""
        tokens = self._run_streams(images)
        feats = narrow(tokens, -1, 0, 1)
        if self.aggregator is not None:
            feats = concat([feats, self.aggregator(feats, narrow(
                tokens, -1, 1, tokens.shape[-1] - 1))], axis=-1)
        # [3, B, D, F] stream vectors as [F, 3D, B], one column per sample
        return reshape(moveaxis(feats, (3, 1), (0, 3)),
                       (feats.shape[3], -1, feats.shape[1]))

    # -- inference -----------------------------------------------------

    def features(self, images: np.ndarray) -> np.ndarray:
        """Retrieval embedding of ``[3, B, C, H, W]`` images, one per column.

        ``forward_batch``'s rows stacked: the class-token feature, with the
        fused feature below it when aggregation is enabled. The samples run
        in chunks of ``_EVAL_CHUNK_PIXELS // (H * W)`` (at least one), so
        the pass's working memory, every layer's ``[3, B, D, N]`` columns
        and the scans' ``[3, B, S, D]`` state rows, does not grow with the
        split. Every column depends on its own sample only, so the chunks
        give the one-pass matrix bitwise. The pass runs without per-op
        finite checks or numpy floating-point warnings and checks the
        returned matrix once; if that fails, the pass runs again with
        per-op checks to name the op and module at fault.
        """
        _, b, _, h, w = images.shape
        step = max(1, _EVAL_CHUNK_PIXELS // (h * w))
        chunks = [images[:, m:m + step] for m in range(0, b, step)]
        with no_grad(), finite_checks(False), np.errstate(all="ignore"):
            parts = [self.forward_batch(c).data.reshape(-1, c.shape[1])
                     for c in chunks]
        out = np.concatenate(parts, axis=1)
        if not np.isfinite(out).all():
            locate_non_finite(self, lambda: [self.forward_batch(c)
                                             for c in chunks],
                              "eval pass", "non-finite features")
        return out
