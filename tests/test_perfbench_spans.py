"""The benchmark's layer table still names real trifuse functions.

``perfbench/run.py`` imports ``perfbench/layers.py`` on every run and wraps
each ``(owner, attr)`` of its span tables, so renaming or deleting a
wrapped method would crash the benchmark. This guard catches that here.
"""

import importlib
import os

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
