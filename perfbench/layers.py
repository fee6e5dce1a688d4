"""Where the traced run cuts trifuse into layers, and what it reports.

``install`` wraps the public functions and methods listed in the
``*_SPANS`` tables and the tape's node constructor ``Tensor._from_op``.
``layer_metrics`` turns the recorded spans and counters into the
per-layer metrics named in ``PER_LAYER``: self time per train step or per
eval pass, call counts, and machine-independent tape counters.
"""

from __future__ import annotations

import os
from collections import defaultdict

from trifuse import dump
from trifuse import train as T
from trifuse.adapter import ParallelAdapter
from trifuse.aggregation import AggregationBlock, AggregationHead
from trifuse.backbone import EncoderLayer, VisionBackbone
from trifuse.model import FusionModel
from trifuse.nn import FeedForward, MultiHeadSelfAttention
from trifuse.prompts import PromptBank
from trifuse.ssm import SelectiveScan
from trifuse.synthetic import SyntheticWorld
from trifuse.tensor import Tensor

from spans import Patches, Tracer, self_times, tape_stats

#: layers timed inside a train step and inside an eval pass, outermost first
MODEL_SPANS = (
    ("model.forward_batch", FusionModel, "forward_batch"),
    ("backbone.tokens", VisionBackbone, "tokens"),
    ("backbone.encoder_layer", EncoderLayer, "__call__"),
    ("nn.attention", MultiHeadSelfAttention, "__call__"),
    ("nn.ffn", FeedForward, "__call__"),
    ("adapter", ParallelAdapter, "__call__"),
    ("prompts.assemble", PromptBank, "assemble_layer_input"),
    ("prompts.harvest", PromptBank, "harvest"),
    ("aggregation.intra", AggregationBlock, "intra"),
    ("aggregation.inter", AggregationBlock, "inter"),
    ("aggregation.head", AggregationHead, "__call__"),
    ("ssm.scan", SelectiveScan, "__call__"),
)
#: layers only a train step runs
STEP_SPANS = (
    ("losses.total_loss", T, "total_loss"),
    ("tensor.backward", Tensor, "backward"),
    ("train.adam_step", T.Adam, "step"),
    ("train.sample_batch", T, "sample_batch"),
)
#: layers only an eval pass runs
EVAL_SPANS = (
    ("model.features", FusionModel, "features"),
    ("retrieval.evaluate", T, "evaluate"),
)
TOP_OPS = ("add", "matmul", "reshape", "narrow", "mul", "gelu",
           "norm_affine", "concat")
OVERHEAD = (("setup_s", "s", "lower"), ("train_step_p50_ms", "ms", "lower"),
            ("train_run_s", "s", "lower"), ("eval_cold_s", "s", "lower"),
            ("eval_samples_per_s", "1/s", "higher"))


def metric(span: str, kind: str) -> str:
    # a dotless span ("adapter") takes its suffix after a dot
    return f"{span}_{kind}" if "." in span else f"{span}.{kind}"


def _per_layer() -> list[tuple[str, str, str]]:
    rows = [("tensor.ops_per_step", "count", "lower"),
            ("tensor.tape_nodes_per_step", "count", "lower"),
            ("tensor.tape_bytes_per_step", "B", "lower")]
    rows += [(f"tensor.op.{op}", "count", "lower") for op in TOP_OPS]
    for span, _, _ in MODEL_SPANS + STEP_SPANS:
        rows += [(metric(span, "ms"), "ms", "lower"),
                 (metric(span, "calls"), "count", "lower")]
    rows.append(("ssm.scan_tokens", "count", "lower"))
    rows += [(metric(span, "ms"), "ms", "lower") for span, _, _ in EVAL_SPANS]
    rows += [("eval." + metric(span, "ms"), "ms", "lower")
             for span, _, _ in MODEL_SPANS]
    rows.append(("eval.tensor.ops_per_pass", "count", "lower"))
    rows += [("dump.save_ms", "ms", "lower"),
             ("dump.bytes_written", "B", "lower"),
             ("dump.load_ms", "ms", "lower"),
             ("synthetic.world_ms", "ms", "lower")]
    rows += [(f"trace.overhead.{name}", unit, better)
             for name, unit, better in OVERHEAD]
    return rows


#: (name, unit, better) of every metric a traced run reports
PER_LAYER = _per_layer()


def _dir_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, f))
               for f in os.listdir(directory))


def install(patches: Patches, tracer: Tracer) -> None:
    """Wrap every layer boundary; ``patches.restore()`` undoes it."""
    wrap = tracer.wrapper
    for span, owner, attr in MODEL_SPANS + STEP_SPANS + EVAL_SPANS:
        kwargs = {}
        if span == "ssm.scan":
            kwargs["after"] = lambda a, r: tracer.count("tokens:ssm.scan",
                                                        a[1].shape[1])
        elif span == "losses.total_loss":
            kwargs["after"] = lambda a, r: _count_tape(tracer, r[0])
        elif span == "train.adam_step":
            kwargs["after"] = lambda a, r: tracer.end_step()
        elif span == "train.sample_batch":
            kwargs.update(enter="step", stay=True)
        patches.replace(owner, attr, wrap(span, **kwargs))
    patches.replace(T, "evaluate_model",
                    wrap("train.evaluate_model", enter="eval",
                         after=lambda a, r: tracer.end_pass()))
    patches.replace(T, "save_checkpoint", wrap(
        "dump.save",
        after=lambda a, r: tracer.count("bytes:dump.save", _dir_bytes(a[0]))))
    for owner in (T, dump):
        patches.replace(owner, "load_checkpoint", wrap("dump.load"))
    for attr in ("__init__", "train_part", "eval_parts"):
        patches.replace(SyntheticWorld, attr, wrap("synthetic.world"))

    def make(bound):
        def _from_op(cls, data, parents, vjp, op):
            tracer.counts[tracer.context]["op:" + op] += 1
            return bound(data, parents, vjp, op)
        return classmethod(_from_op)
    patches.replace(Tensor, "_from_op", make)


def _count_tape(tracer: Tracer, loss) -> None:
    nodes, nbytes = tape_stats(loss)
    tracer.count("tape_nodes", nodes)
    tracer.count("tape_bytes", nbytes)


def counters_repeat(tracer: Tracer) -> bool:
    """Every step, and every eval pass, recorded the same counters."""
    return all(len({tuple(sorted(c.items())) for c in snaps}) <= 1
               for snaps in (tracer.step_counts, tracer.pass_counts))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics, except the overheads, from one traced session."""
    ms: dict[tuple[str, str], float] = defaultdict(float)
    span_calls: dict[str, int] = defaultdict(int)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        ms[span.context, span.name] += 1e3 * own
        span_calls[span.name] += 1
    steps, passes = len(tracer.step_counts), len(tracer.pass_counts)
    step = tracer.step_counts[0]
    first_pass = tracer.pass_counts[0]

    out = {
        "tensor.ops_per_step": sum(v for k, v in step.items()
                                   if k.startswith("op:")),
        "tensor.tape_nodes_per_step": step.get("tape_nodes", 0),
        "tensor.tape_bytes_per_step": step.get("tape_bytes", 0),
    }
    for op in TOP_OPS:
        out[f"tensor.op.{op}"] = step.get("op:" + op, 0)
    for span, _, _ in MODEL_SPANS + STEP_SPANS:
        out[metric(span, "ms")] = ms["step", span] / steps
        out[metric(span, "calls")] = step.get("calls:" + span, 0)
    out["ssm.scan_tokens"] = step.get("tokens:ssm.scan", 0)
    for span, _, _ in EVAL_SPANS:
        out[metric(span, "ms")] = ms["eval", span] / passes
    for span, _, _ in MODEL_SPANS:
        out["eval." + metric(span, "ms")] = ms["eval", span] / passes
    out["eval.tensor.ops_per_pass"] = sum(
        v for k, v in first_pass.items() if k.startswith("op:"))

    def per_call(span: str) -> float:
        total = sum(v for (_, name), v in ms.items() if name == span)
        return total / max(1, span_calls[span])
    saved = sum(c["bytes:dump.save"] for c in tracer.counts.values())
    out["dump.save_ms"] = per_call("dump.save")
    out["dump.bytes_written"] = saved / max(1, span_calls["dump.save"])
    out["dump.load_ms"] = per_call("dump.load")
    out["synthetic.world_ms"] = (ms["setup", "synthetic.world"]
                                 / span_calls["bench.setup"])
    return out
