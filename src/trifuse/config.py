"""Flat key=value run configuration.

One dataclass holds every knob for the toy experiments. Files are plain
``key = value`` lines; ``#`` starts a comment anywhere on a line, blank
lines are skipped, and unknown keys are rejected rather than ignored so a
typo cannot silently fall back to a default, nor can a key given twice.
Types come from the dataclass field declarations; a value that does not
parse is refused with its file, line and key, and ``RunConfig.validate``
names the key of a value that breaks a rule.
The model, the synthetic world and the loss all read this one object.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

#: the spellings of a boolean value, matched case-insensitively
_BOOLS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
          **dict.fromkeys(("false", "0", "no", "off"), False)}

SRP_MODES = ("fusion", "separation")


@dataclass
class RunConfig:
    # encoder
    embed_dim: int = 64
    layers: int = 4
    heads: int = 4
    patch: int = 8
    image_h: int = 32
    image_w: int = 16
    channels: int = 3
    ffn_ratio: int = 4

    # trainable surface
    use_pfa: bool = True
    use_srp: bool = True
    use_ma: bool = True
    n_prompts: int = 4
    srp_mode: str = "fusion"
    pfa_hidden_ratio: float = 2.0
    d_state: int = 16
    dt_rank: int = 32
    ma_blocks: int = 2
    ma_intra: bool = True
    ma_inter: bool = True
    conv_kernel: int = 3

    # loss
    lambda_ce: float = 0.25
    lambda_tri: float = 1.0
    smoothing: float = 0.1
    margin: float = 0.3

    # optimization
    lr: float = 3.5e-4
    warmup_frac: float = 0.1
    min_lr_frac: float = 0.01
    steps: int = 200
    batch_p: int = 4
    batch_k: int = 4
    eval_every: int = 50

    # synthetic data
    num_ids: int = 16
    instances_per_id: int = 8
    eval_instances_per_id: int = 6
    eval_queries_per_id: int = 2
    rho: float = 0.8
    sigma: float = 0.3
    nuisance_gain: float = 5.0
    latent_dim: int = 12
    nuisance_dim: int = 8
    num_cams: int = 4

    def validate(self) -> None:
        """Raise ``ValueError`` naming the first key that breaks its rule."""
        by_patch = f"must be a positive multiple of patch = {self.patch}"
        # rules run in order and lazily, so a divisor is known to be
        # positive before anything is taken modulo it
        for key, ok, rule in (
            *((key, lambda key=key: getattr(self, key) >= 1,
               "must be at least 1")
              for key in ("embed_dim", "channels", "ffn_ratio", "d_state",
                          "dt_rank", "conv_kernel", "patch", "heads",
                          "instances_per_id", "eval_queries_per_id")),
            *((key, lambda key=key: getattr(self, key) % self.patch == 0
               and getattr(self, key) >= self.patch, by_patch)
              for key in ("image_h", "image_w")),
            ("n_prompts", lambda: self.n_prompts >= self.use_srp,
             "must be at least 1 with use_srp, else at least 0"),
            ("ma_blocks", lambda: self.ma_blocks >= 0, "must be at least 0"),
            ("embed_dim", lambda: self.embed_dim % self.heads == 0,
             f"must be divisible by heads = {self.heads}"),
            ("conv_kernel", lambda: self.conv_kernel % 2 == 1, "must be odd"),
            ("srp_mode", lambda: self.srp_mode in SRP_MODES,
             f"must be one of {SRP_MODES}"),
            ("eval_every", lambda: self.eval_every >= 1, "must be at least 1"),
            ("pfa_hidden_ratio", lambda: not self.use_pfa or round(
                self.pfa_hidden_ratio * self.embed_dim) >= 1,
             f"must give an adapter unit at embed_dim = {self.embed_dim}"),
            ("batch_p", lambda: self.batch_p >= 2, "must be at least 2"),
            ("batch_k", lambda: self.batch_k >= 2, "must be at least 2"),
            ("num_ids", lambda: self.num_ids >= self.batch_p,
             f"must be at least batch_p = {self.batch_p}"),
            ("eval_queries_per_id", lambda: self.eval_queries_per_id
             < self.eval_instances_per_id, "must be less than "
             f"eval_instances_per_id = {self.eval_instances_per_id}"),
            # a query's positives are gallery samples from other cameras
            ("num_cams", lambda: self.num_cams >= 2, "must be at least 2"),
            ("rho", lambda: 0.0 < self.rho <= 1.0, "must be in (0, 1]"),
            ("smoothing", lambda: 0.0 <= self.smoothing < 1.0,
             "must be in [0, 1)"),
        ):
            if not ok():
                raise ValueError(f"{key} = {getattr(self, key)!r}: {rule}")


#: field type -> (parser, what a bad value was expected to be)
_PARSERS = {
    "int": (int, "an int"),
    "float": (float, "a float"),
    "bool": (lambda raw: _BOOLS[raw.lower()], "a boolean"),
    "str": (str, "a string"),
}


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    """Read ``path`` over a copy of ``base`` (or the defaults), validated.

    A malformed line, an unknown or repeated key and a value its field's
    type cannot parse are refused with the file, the line and the key."""
    cfg = RunConfig() if base is None else replace(base)
    # dataclass field types are strings under from __future__ annotations
    types = {f.name: f.type for f in fields(RunConfig)}
    first_on: dict[str, int] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in first_on:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r} "
                                 f"(first on line {first_on[key]})")
            first_on[key] = lineno
            parse, expected = _PARSERS[types[key]]
            try:
                value = parse(raw)
            except (ValueError, KeyError):
                raise ValueError(f"{path}:{lineno}: {key}: expected "
                                 f"{expected}, got {raw!r}") from None
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _config_text(cfg: RunConfig) -> str:
    """The ``key = value`` text of every field, as ``save_config`` writes it;
    ``load_config`` reads it back to an equal config and the same text."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = f"{value:.17g}"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def config_digest(cfg: RunConfig) -> str:
    """sha256 hex digest of the ``config.cfg`` that ``save_config`` writes."""
    return hashlib.sha256(_config_text(cfg).encode()).hexdigest()


def save_config(path: str, cfg: RunConfig) -> None:
    from .dump import write_atomic  # dump imports numpy; config stays light
    write_atomic(path, [_config_text(cfg).encode()])
