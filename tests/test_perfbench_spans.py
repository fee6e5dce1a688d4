"""The benchmark's layer table still names real trifuse functions.

``perfbench/run.py`` imports ``perfbench/layers.py`` on every run and wraps
each ``(owner, attr)`` of its span tables, so renaming or deleting a
wrapped method would crash the benchmark. This guard catches that here,
and the checkpoint layout its byte counter reads.
"""

import importlib
import os

import numpy as np

from trifuse.dump import STATE, save_checkpoint

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def test_every_benchmark_span_resolves(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    layers = importlib.import_module("layers")
    spans = layers.MODEL_SPANS + layers.STEP_SPANS + layers.EVAL_SPANS
    assert spans
    missing = [f"{span}: {getattr(owner, '__name__', owner)}.{attr}"
               for span, owner, attr in spans
               if not callable(getattr(owner, attr, None))]
    assert not missing, missing


def test_traced_save_size_is_the_state_file_size(monkeypatch, tmp_path):
    # ``--trace 1`` reports ``dump.bytes_written`` by listing the checkpoint
    # directory, so a checkpoint must stay a directory holding one file
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    layers = importlib.import_module("layers")
    ckpt = str(tmp_path / "checkpoint")
    save_checkpoint(ckpt, {"w": (np.ones((3, 4)), False)}, {"step": 1})
    size = os.path.getsize(os.path.join(ckpt, STATE))
    assert layers._dir_bytes(ckpt) == size
