"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest perfbench -q
"""

import json
import os
import random
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from trifuse import tensor  # noqa: E402
from trifuse.tensor import Param, add, mul, tsum  # noqa: E402

from spans import Patches, Span, Tracer, self_times, tape_stats  # noqa: E402
from workloads import tail  # noqa: E402


def test_self_time_is_span_minus_child_coverage():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    root = tracer.open("root")       # [0, 10]
    child = tracer.open("child")     # [1, 5]
    tracer.close(tracer.open("grandchild"))  # [2, 4]
    tracer.close(child)
    tracer.close(tracer.open("sibling"))     # [6, 7]
    tracer.close(root)
    assert [s.name for s in tracer.spans] == [
        "root", "child", "grandchild", "sibling"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert self_times(tracer.spans) == [5.0, 2.0, 2.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, -1, "x"), Span("a", 1.0, 0, "x"),
             Span("b", 3.0, 0, "x"), Span("c", 9.0, 0, "x")]
    for span, end in zip(spans, (10.0, 4.0, 6.0, 12.0)):
        span.end = end
    # children cover [1, 6] and, clipped to the parent, [9, 10]
    assert self_times(spans)[0] == 4.0


def test_tape_walk_on_three_op_graph():
    a = Param(np.ones((2, 3)))
    b = Param(np.full((2, 3), 2.0))
    c = mul(a, b)          # reached twice below, counted once
    d = add(c, c)
    e = tsum(d)
    assert tape_stats(e) == (3, c.data.nbytes + d.data.nbytes + e.data.nbytes)
    assert tape_stats(a) == (0, 0)


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 21)]
    random.Random(0).shuffle(values)
    assert tail(values) == (10.0, 50.0)
    value, pct = tail([float(v) for v in range(100)])
    assert (value, pct) == (89.0, 90.0)
    assert sum(v > value for v in range(100)) == 10
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_counters_follow_context_and_snapshot_per_step():
    tracer = Tracer()
    tracer.count("op:add")
    tracer.context = "step"
    tracer.count("op:add", 3)
    tracer.end_step()
    assert tracer.step_counts == [{"op:add": 3}]
    assert tracer.context == "idle"
    assert tracer.counts["idle"]["op:add"] == 1


def test_patches_restore_every_original():
    from layers import install
    from trifuse import train as T
    from trifuse.model import FusionModel

    before = (vars(tensor.Tensor)["_from_op"], T.train, T.sample_batch,
              T.evaluate_model, vars(FusionModel)["forward_batch"])
    patches = Patches()
    install(patches, Tracer())
    assert T.sample_batch is not before[2]
    patches.restore()
    after = (vars(tensor.Tensor)["_from_op"], T.train, T.sample_batch,
             T.evaluate_model, vars(FusionModel)["forward_batch"])
    assert after == before


def test_benchmark_json_matches_the_runner():
    from layers import PER_LAYER
    from workloads import END_TO_END, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == PER_LAYER
