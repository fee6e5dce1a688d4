"""Toy training harness on the synthetic identity data.

Determinism is the organizing principle: model init, data, and batch
composition all come from ``np.random.default_rng`` seeded with integer
lists derived from (seed, purpose, step), never from shared generator
state. Two runs with the same config and seed write byte-identical metric
logs, and a run resumed from a checkpoint continues exactly where the
unbroken run would have been, because the sampler for step t depends only
on (seed, t) and the optimizer state rides along in the checkpoint.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .config import RunConfig, config_digest, save_config
from .dump import load_checkpoint, save_checkpoint
from .losses import total_loss
from .model import FusionModel
from .nn import locate_non_finite
from .retrieval import RetrievalResult, evaluate
from .synthetic import ReidData, SyntheticWorld
from .tensor import NonFiniteError, Param, finite_checks

_MODEL_STREAM = 11
_BATCH_STREAM = 17
#: the loss columns of metrics.tsv, after step and lr; a model without
#: aggregation logs nan for the fused feature's terms
_LOSS_COLUMNS = ("total", "ce_cls", "tri_cls", "ce_ma", "tri_ma")


class Adam:
    """Adam over the trainable params among ``named_params``.

    All trainable params are updated as one flat vector: the moments are
    one flat buffer each, updated in place, and ``m`` and ``v`` map each
    param name to its view into them. A step gathers every gradient into
    one flat vector and refuses a non-finite one, leaving params and
    moments untouched.
    """

    def __init__(self, named_params: list[tuple[str, Param]], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.named = [(n, p) for n, p in named_params if p.requires_grad]
        if not self.named:
            raise ValueError("Adam needs at least one trainable param")
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        ends = np.cumsum([p.size for _, p in self.named]).tolist()
        #: (param, start, end) of each param's slice of the flat vectors
        self._slices = [(p, a, b) for (_, p), a, b
                        in zip(self.named, [0] + ends, ends)]
        self._m, self._v, self._g = (
            np.zeros(ends[-1], dtype=self.named[0][1].dtype) for _ in range(3))
        self.m = {n: self._m[a:b].reshape(p.shape)
                  for (n, _), (p, a, b) in zip(self.named, self._slices)}
        self.v = {n: self._v[a:b].reshape(p.shape)
                  for (n, _), (p, a, b) in zip(self.named, self._slices)}

    def zero_grad(self) -> None:
        """Zero the gradients of the params this optimizer updates; frozen
        params keep theirs at zero, since backward never reaches them."""
        for _, p in self.named:
            p.zero_grad()

    def step(self, lr: float) -> None:
        g = np.concatenate([p.grad for _, p in self.named], axis=None,
                           out=self._g)
        if not np.isfinite(g).all():
            bad = [n for n, p in self.named if not np.isfinite(p.grad).all()]
            raise NonFiniteError(f"non-finite gradient in {', '.join(bad)}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        # in place, and bitwise equal to m = b1 * m + (1 - b1) * g
        m, v = self._m, self._v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        # the update keeps the dtype numpy gives it, as lr may be a float64
        # scalar, and is rounded to the param's dtype only by the subtraction
        update = lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        for p, a, b in self._slices:
            p.data -= update[a:b].reshape(p.shape)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name in self.m:
            out[f"adam.m.{name}"] = self.m[name]
            out[f"adam.v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], t: int) -> None:
        self.t = t
        for name in self.m:
            self.m[name][...] = arrays[f"adam.m.{name}"]
            self.v[name][...] = arrays[f"adam.v.{name}"]


def lr_at(step: int, cfg: RunConfig) -> float:
    """Linear warmup then cosine decay to min_lr_frac * lr."""
    warmup = max(1, int(round(cfg.warmup_frac * cfg.steps)))
    if step < warmup:
        return cfg.lr * (step + 1) / warmup
    lo = cfg.lr * cfg.min_lr_frac
    span = max(1, cfg.steps - warmup)
    progress = min(1.0, (step - warmup) / span)
    return lo + 0.5 * (1.0 + np.cos(np.pi * progress)) * (cfg.lr - lo)


def sample_batch(step: int, seed: int, data: ReidData, cfg: RunConfig):
    """P identities, K instances each, from a stateless per-step stream:
    their images ``[3, P*K, C, H, W]`` and their ids ``[P*K]``."""
    rng = np.random.default_rng([seed, _BATCH_STREAM, step])
    unique_ids = np.unique(data.ids)
    if cfg.batch_p > len(unique_ids):
        raise ValueError("batch_p exceeds the number of identities")
    chosen = rng.permutation(unique_ids)[:cfg.batch_p]
    picks = []
    for ident in chosen:
        pool = np.flatnonzero(data.ids == ident)
        replace = len(pool) < cfg.batch_k
        picks.extend(rng.choice(pool, size=cfg.batch_k, replace=replace))
    return data.images[:, picks], data.ids[picks]


def build_model(cfg: RunConfig, seed: int) -> FusionModel:
    cfg.validate()
    return FusionModel(cfg, np.random.default_rng([seed, _MODEL_STREAM]))


def build_world(cfg: RunConfig, seed: int) -> SyntheticWorld:
    cfg.validate()
    return SyntheticWorld(cfg, seed)


def evaluate_model(model: FusionModel, query: ReidData,
                   gallery: ReidData) -> RetrievalResult:
    was_training = model.training
    model.eval()
    q = model.features(query.images)
    g = model.features(gallery.images)
    if was_training:
        model.train()
    return evaluate(q, query.ids, query.cams, g, gallery.ids, gallery.cams)


def _checkpoint_arrays(model: FusionModel, opt: Adam):
    # state_dict covers buffers (batch norm running stats) besides params
    arrays: dict[str, tuple[np.ndarray, bool]] = {}
    for name, (arr, frozen) in model.state_dict().items():
        arrays[f"model.{name}"] = (arr, frozen)
    for name, arr in opt.state_arrays().items():
        arrays[name] = (arr, False)
    return arrays


class RestoreRefused(ValueError):
    """A checkpoint missing, corrupt, or of another seed, config or layout."""


def _restore(model: FusionModel, opt: Adam, directory: str, seed: int,
             cfg: RunConfig) -> int:
    """Load a checkpoint trained with ``seed`` and the config ``cfg``
    (compared by the sha256 of its ``config.cfg`` text); returns its
    step."""
    try:
        arrays, meta = load_checkpoint(directory)
        if meta.get("seed") != seed:
            raise ValueError(f"{directory} was trained with seed "
                             f"{meta.get('seed')}, not seed {seed}")
        digest = config_digest(cfg)
        if meta.get("config_sha256") != digest:
            raise ValueError(f"{directory} was trained with config sha256 "
                             f"{meta.get('config_sha256', '(none recorded)')}, "
                             f"not {digest}")
        model.load_state_dict({name[len("model."):]: entry
                               for name, entry in arrays.items()
                               if name.startswith("model.")})
        opt.load_state_arrays({k: v for k, (v, _) in arrays.items()
                               if k.startswith("adam.")}, int(meta["adam_t"]))
    except (KeyError, OSError, ValueError) as err:
        # a KeyError's str() would quote its message
        raise RestoreRefused(err.args[0] if isinstance(err, KeyError)
                             else err) from err
    return int(meta["step"])


def _open_log(path: str, header: str, keep_through: int):
    """Open a step-keyed TSV log for writing from step ``keep_through`` on.

    The file restarts with ``header`` and keeps the complete rows of steps
    up to ``keep_through`` (none for a fresh run), so rows a crashed run
    wrote past its checkpoint are dropped and a resume into a new
    directory still starts with the header.
    """
    rows = []
    if keep_through and os.path.exists(path):
        with open(path) as fh:
            rows = [line for line in fh.readlines()[1:]
                    if line.endswith("\n")
                    and int(line.split("\t", 1)[0]) <= keep_through]
    fh = open(path, "w")
    fh.write(header)
    fh.writelines(rows)
    return fh


def train(cfg: RunConfig, seed: int, out_dir: str,
          resume_from: str | None = None, quiet: bool = False,
          halt_after: int | None = None) -> dict:
    """Run the training loop; returns final metrics.

    ``halt_after`` stops the loop after that many steps and writes the
    checkpoint there, leaving the rest of the schedule to a later resumed
    call with the same config. The learning rate schedule always spans
    ``cfg.steps``, so a halted-and-resumed run retraces the unbroken one.
    On resume, ``metrics.tsv`` and ``eval.tsv`` in ``out_dir`` keep their
    header and the rows up to the checkpoint step, and gain a header if
    they are new.

    A step runs forward, loss and backward without per-op finite checks,
    then checks the loss and the gradients once before the update. A
    failed check raises NonFiniteError naming the step (numbered like the
    ``step`` column of ``metrics.tsv``) and the op and module path, or the
    params whose gradients are non-finite; that step updates no param,
    logs no row and writes no checkpoint, and the batch norm running
    statistics keep their values from before it.

    The checkpoint records the seed and the sha256 of ``config.cfg``;
    ``resume_from`` raises :class:`RestoreRefused` for one it may not load.
    """
    model = build_model(cfg, seed)
    model.train()
    opt = Adam(model.named_params())
    world = build_world(cfg, seed)
    train_data = world.train_part(cfg.instances_per_id)
    query, gallery = world.eval_parts(cfg.eval_instances_per_id,
                                      cfg.eval_queries_per_id)

    start_step = 0
    if resume_from is not None:
        start_step = _restore(model, opt, resume_from, seed, cfg)
        if not quiet:
            print(f"resumed from {resume_from} at step {start_step}")

    os.makedirs(out_dir, exist_ok=True)
    save_config(os.path.join(out_dir, "config.cfg"), cfg)

    metrics = _open_log(os.path.join(out_dir, "metrics.tsv"),
                        "\t".join(("step", "lr") + _LOSS_COLUMNS) + "\n",
                        start_step)
    evals = _open_log(os.path.join(out_dir, "eval.tsv"),
                      "step\tmap\tcmc1\tcmc5\tqueries\n", start_step)

    def log_eval(step: int) -> RetrievalResult:
        res = evaluate_model(model, query, gallery)
        evals.write(f"{step}\t{res.mean_ap:.17g}\t{res.cmc_at(1):.17g}"
                    f"\t{res.cmc_at(5):.17g}\t{res.num_queries}\n")
        evals.flush()
        if not quiet:
            print(f"step {step} map {res.mean_ap:.4f}")
        return res

    if not start_step:
        log_eval(0)

    buffers = [(m, attr) for m in model.modules() for attr in m._buffer_attrs]
    result = None
    reached = cfg.steps
    try:
        for step in range(start_step, cfg.steps):
            images, labels = sample_batch(step, seed, train_data, cfg)
            opt.zero_grad()
            saved = [getattr(m, attr).copy() for m, attr in buffers]
            # a non-finite value is reported by the checks below, not by
            # numpy warnings on its way through the unchecked pass
            with finite_checks(False), np.errstate(all="ignore"):
                loss, parts = total_loss(model.forward_batch(images), labels,
                                         model.heads, cfg)
                loss.backward()
            lr = lr_at(step, cfg)
            try:
                if not math.isfinite(parts["total"]):
                    raise NonFiniteError("non-finite loss")
                opt.step(lr)
            except NonFiniteError as err:
                # the step's forward and loss replay, folding the batch into
                # the running statistics a second time; both folds are undone
                try:
                    locate_non_finite(model, lambda: total_loss(
                        model.forward_batch(images), labels, model.heads,
                        cfg), f"step {step + 1}", str(err))
                finally:
                    for (m, attr), arr in zip(buffers, saved):
                        setattr(m, attr, arr)
            row = [lr] + [parts.get(k, math.nan) for k in _LOSS_COLUMNS]
            metrics.write(f"{step + 1}\t"
                          + "\t".join(f"{v:.17g}" for v in row) + "\n")
            metrics.flush()
            if (step + 1) % cfg.eval_every == 0 or step + 1 == cfg.steps:
                result = log_eval(step + 1)
            if halt_after is not None and step + 1 >= halt_after:
                reached = step + 1
                break
    finally:
        metrics.close()
        evals.close()

    save_checkpoint(os.path.join(out_dir, "checkpoint"),
                    _checkpoint_arrays(model, opt),
                    {"step": reached, "adam_t": opt.t, "seed": seed,
                     "config_sha256": config_digest(cfg)})
    if result is None:
        result = evaluate_model(model, query, gallery)
    return {"map": result.mean_ap, "cmc1": result.cmc_at(1),
            "trainable": model.num_trainable(), "steps": cfg.steps}
