"""Workloads and the closed-loop session that measures one of them.

A session is what one user at one terminal does with trifuse, one call
after the other: set up (build model, world and splits), train with
``train()``, and evaluate the checkpoint the way ``trifuse eval`` does
(cold) and the way periodic evals during training do (warm passes over an
already built model). Nothing of the training loop is re-implemented
here; two light hooks note when each step starts and capture the
features an eval pass returns, so step times and feature checks come from
the program's own calls.

Every workload runs every phase, so every end-to-end metric exists on
every workload; the workloads differ in input size and in how the run's
seconds are shared between training and evaluation.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
import os
import resource
import statistics
import time

import numpy as np

from trifuse import cli, dump
from trifuse import train as T
from trifuse.config import RunConfig, load_config
from trifuse.model import FusionModel

from spans import Patches, Tracer

#: (name, unit, better) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("train_samples_per_s", "1/s", "higher"),
    ("train_step_p50_ms", "ms", "lower"),
    ("train_step_tail_ms", "ms", "lower"),
    ("train_run_s", "s", "lower"),
    ("eval_samples_per_s", "1/s", "higher"),
    ("eval_cold_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: set-ups at the start, after every train() call and before every cold
#: eval, so that setup_s, their median, sees the machine the other
#: metrics see
SETUP_REPS = 3
#: a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: keys changed from demos/toy.cfg
    overrides: dict
    #: share of the measured seconds given to train() calls
    train_share: float


WORKLOADS = {w.name: w for w in (
    Workload("toy_train",
             "demos/toy.cfg, full surface: dispatch-bound steps of ~5k tiny "
             "ops where tape, finite checks and prompt surgery dominate",
             dict(steps=30, eval_every=30), 0.6),
    Workload("gallery_eval",
             "trifuse eval over 64 queries and 128 gallery samples after a "
             "short train: no-grad passes and retrieval, no tape or "
             "optimizer, so training-only changes leave its eval alone",
             dict(steps=20, eval_every=20, num_ids=32,
                  eval_instances_per_id=6, eval_queries_per_id=2), 0.45),
    Workload("long_seq_train",
             "64x32 images in 4x4 patches, 135-column sequences: attention, "
             "scans and dwconv do the arithmetic and the tape is 17x heavier",
             dict(steps=16, eval_every=16, image_h=64, image_w=32, patch=4),
             0.7),
)}


def resolve(workload: Workload, root: str) -> RunConfig:
    base = load_config(os.path.join(root, "demos", "toy.cfg"))
    return dataclasses.replace(base, **workload.overrides)


class Checks:
    """Correctness checks, counted; a failure is reported, not raised."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


def _read_tsv(path: str) -> tuple[bytes, list[dict[str, str]]]:
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.decode().splitlines()
    header = lines[0].split("\t")
    return raw, [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def _rate(value) -> bool:
    return 0.0 <= float(value) <= 1.0


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns (value, percentile). The value is the order statistic with
    exactly ``TAIL_BEYOND`` samples above it, so it needs at least
    ``TAIL_BEYOND + 1`` samples.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, "
                         f"got {n}")
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Session:
    """One closed-loop session over one workload, traced or not."""

    def __init__(self, workload: Workload, cfg: RunConfig, seed: int,
                 work_dir: str, checks: Checks, tracer: Tracer | None = None):
        self.workload = workload
        self.cfg = cfg
        self.seed = seed
        self.work_dir = work_dir
        self.checks = checks
        self.tracer = tracer
        self.queries = cfg.num_ids * cfg.eval_queries_per_id
        self._step_starts: list[float] = []
        self._features: list[np.ndarray] = []
        self._first_logs: tuple[bytes, bytes] | None = None
        self._final_map: str | None = None
        self.info: dict = {}

    # -- hooks ---------------------------------------------------------

    def _hooks(self, patches: Patches) -> None:
        starts, feats = self._step_starts, self._features

        def sample_batch(fn):
            def hooked(*args, **kwargs):
                starts.append(time.perf_counter())
                return fn(*args, **kwargs)
            return hooked

        def features(fn):
            def hooked(*args, **kwargs):
                out = fn(*args, **kwargs)
                feats.append(out)
                return out
            return hooked
        patches.replace(T, "sample_batch", sample_batch)
        patches.replace(FusionModel, "features", features)

    # -- phases --------------------------------------------------------

    def _setup(self):
        cfg, seed = self.cfg, self.seed
        T.build_model(cfg, seed)
        world = T.build_world(cfg, seed)
        world.train_part(cfg.instances_per_id)
        return world.eval_parts(cfg.eval_instances_per_id,
                                cfg.eval_queries_per_id)

    def _train_once(self, out: str) -> tuple[float, list[float]]:
        self._step_starts.clear()
        t0 = time.perf_counter()
        T.train(self.cfg, self.seed, out, quiet=True)
        wall = time.perf_counter() - t0
        starts = self._step_starts
        # evals only at the start and the end, so consecutive step starts
        # bracket whole steps; the last step ends in the final eval
        steps = [b - a for a, b in zip(starts, starts[1:])]
        self._check_logs(out)
        return wall, steps

    def _check_logs(self, out: str) -> None:
        check, cfg = self.checks, self.cfg
        m_raw, rows = _read_tsv(os.path.join(out, "metrics.tsv"))
        losses = [float(v) for row in rows for k, v in row.items()
                  if k == "total" or k.startswith(("ce_", "tri_"))]
        check(len(rows) == cfg.steps and losses
              and all(math.isfinite(v) for v in losses),
              "every logged loss is finite")
        e_raw, evals = _read_tsv(os.path.join(out, "eval.tsv"))
        check(all(_rate(r["map"]) and _rate(r["cmc1"]) and _rate(r["cmc5"])
                  for r in evals), "logged mAP and CMC lie in [0, 1]")
        check(all(int(r["queries"]) == self.queries for r in evals),
              "logged query count matches the split")
        if self._first_logs is None:
            self._first_logs = (m_raw, e_raw)
            self._final_map = evals[-1]["map"]
        else:
            check((m_raw, e_raw) == self._first_logs,
                  "same-seed runs write byte-identical metrics.tsv, eval.tsv")

    def _cold_eval(self, run_dir: str) -> float:
        """What one `trifuse eval` pays: build, restore, world, one pass."""
        check = self.checks
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["eval", "--seed", str(self.seed),
                             "--out", run_dir])
        wall = time.perf_counter() - t0
        check(code == 0, "trifuse eval exits 0")
        with open(os.path.join(run_dir, "eval_report.csv"), newline="") as fh:
            report = dict(csv.reader(fh))
        check(all(_rate(v) for k, v in report.items()
                  if k == "mAP" or k.startswith("cmc@")),
              "cold eval mAP and CMC lie in [0, 1]")
        check(int(report["queries"]) == self.queries,
              "cold eval query count matches the split")
        check(report["mAP"] == self._final_map,
              "cold eval of the checkpoint reproduces the final train eval")
        return wall

    def _warm_pass(self, model, query, gallery, first: list) -> float:
        check = self.checks
        self._features.clear()
        t0 = time.perf_counter()
        res = T.evaluate_model(model, query, gallery)
        wall = time.perf_counter() - t0
        feats = list(self._features)
        check(len(feats) == 2 and all(np.isfinite(f).all() for f in feats),
              "eval features are finite")
        if not first:
            first.extend(feats)
        else:
            check(len(feats) == len(first) and all(
                np.array_equal(a, b) for a, b in zip(feats, first)),
                "repeated eval passes return identical features")
        check(_rate(res.mean_ap) and all(_rate(c) for c in res.cmc),
              "warm eval mAP and CMC lie in [0, 1]")
        check(res.num_queries == self.queries,
              "warm eval query count matches the split")
        return wall

    def _restored_model(self, run_dir: str):
        """A fresh model restored through the public checkpoint functions."""
        model = T.build_model(self.cfg, self.seed)
        arrays, _ = dump.load_checkpoint(os.path.join(run_dir, "checkpoint"))
        model.load_state_dict({name[len("model."):]: entry
                               for name, entry in arrays.items()
                               if name.startswith("model.")})
        return model

    # -- the session ---------------------------------------------------

    def run(self, seconds: float, at_least: int) -> dict[str, float]:
        """Measure for about ``seconds``; returns the end-to-end metrics.

        Makes at least ``at_least`` train() calls, cold evals and warm
        passes, however long they take; two are needed for the
        same-seed and repeated-pass checks.
        """
        patches = Patches()
        self._hooks(patches)
        tracer = self.tracer
        setup = self._setup
        if tracer is not None:
            from layers import install
            install(patches, tracer)
            setup = tracer.wrapper("bench.setup", enter="setup")(setup)
        try:
            return self._run(seconds, at_least, setup)
        finally:
            patches.restore()

    def _run(self, seconds, at_least, setup) -> dict[str, float]:
        setups = []

        def set_up():
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                parts = setup()
                setups.append(time.perf_counter() - t0)
            return parts

        query, gallery = set_up()
        deadline = time.perf_counter() + seconds
        runs, steps, colds, warms, first = [], [], [], [], []
        ops = {"train": runs, "cold": colds, "warm": warms}
        run_dir = model = None
        # interleaved, so that every metric samples the whole run: train()
        # while its share of the time spent is short, else one cold eval
        # for every two warm passes
        while True:
            spent = sum(runs) + sum(colds) + sum(warms)
            if sum(runs) <= self.workload.train_share * spent:
                kind = "train"
            else:
                kind = "cold" if len(warms) >= 2 * len(colds) else "warm"
            if ops[kind] and time.perf_counter() + ops[kind][-1] > deadline:
                short = [k for k, done in ops.items() if len(done) < at_least]
                if not short:
                    break
                kind = short[0]
            if kind == "train":
                out = os.path.join(self.work_dir, f"run{len(runs)}")
                wall, walls = self._train_once(out)
                runs.append(wall)
                steps += walls
                run_dir = run_dir or out
                set_up()
            elif kind == "cold":
                set_up()
                colds.append(self._cold_eval(run_dir))
            else:
                model = model or self._restored_model(run_dir)
                warms.append(self._warm_pass(model, query, gallery, first))

        batch = self.cfg.batch_p * self.cfg.batch_k
        tail_ms, tail_pct = tail([1e3 * s for s in steps])
        self.info = {"steps": len(steps), "train_calls": len(runs),
                     "cold_evals": len(colds), "warm_passes": len(warms),
                     "tail_percentile": round(tail_pct, 1),
                     "setups": len(setups),
                     "eval_samples": len(query) + len(gallery)}
        return {
            "setup_s": statistics.median(setups),
            "train_samples_per_s": batch * len(steps) / sum(steps),
            "train_step_p50_ms": 1e3 * statistics.median(steps),
            "train_step_tail_ms": tail_ms,
            "train_run_s": statistics.median(runs),
            "eval_samples_per_s": ((len(query) + len(gallery)) * len(warms)
                                   / sum(warms)),
            "eval_cold_s": statistics.median(colds),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
