"""Spans and counters recorded from outside trifuse.

The traced run replaces public functions and methods at trifuse's layer
boundaries with thin wrappers (``Patches``) and records one span per call
(``Tracer``). Nothing inside trifuse changes; every original is put back
by ``Patches.restore``. Spans stay in memory until the run ends.

Each span carries the *context* it was opened in: ``setup`` (the
benchmark's own set-up calls), ``step`` (from ``sample_batch`` entry until
``Adam.step`` returns), ``eval`` (inside ``evaluate_model``) or ``idle``.
Per-step and per-pass layer numbers are sums over one context divided by
the number of steps or passes seen in it.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Patches:
    """Attribute replacements that can all be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, bool, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(current value)``."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._saved.append((owner, attr, own, original))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class Span:
    __slots__ = ("name", "start", "end", "parent", "context")

    def __init__(self, name: str, start: float, parent: int, context: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.context = context


class Tracer:
    """Span tree plus per-context counters for one traced session."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.context = "idle"
        #: context -> counter key -> count; keys are "op:<name>",
        #: "calls:<span>", "tokens:<span>", "bytes:<span>", "tape_nodes"
        #: and "tape_bytes"
        self.counts: dict[str, Counter] = defaultdict(Counter)
        #: per-step and per-pass counter snapshots, for the repeat check
        self.step_counts: list[dict] = []
        self.pass_counts: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent, self.context))
        self.counts[self.context]["calls:" + name] += 1
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.context][key] += n

    def end_step(self) -> None:
        self.step_counts.append(dict(self.counts["step"]))
        self.counts["step"].clear()
        self.context = "idle"

    def end_pass(self) -> None:
        self.pass_counts.append(dict(self.counts["eval"]))
        self.counts["eval"].clear()

    def wrapper(self, name: str, enter: str | None = None, stay: bool = False,
                after=None):
        """Factory for ``Patches.replace``: time each call as span ``name``.

        ``enter`` switches the context for the call; the previous one comes
        back afterwards unless ``stay``. ``after(args, result)`` runs once
        the span is closed, so its own cost lands outside every span.
        """
        tracer = self

        def make(fn):
            def traced(*args, **kwargs):
                prev = tracer.context
                if enter is not None:
                    tracer.context = enter
                index = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(index)
                    if enter is not None and not stay:
                        tracer.context = prev
                if after is not None:
                    after(args, result)
                return result
            return traced
        return make


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def tape_stats(root) -> tuple[int, int]:
    """Recorded op outputs reachable from ``root`` and their data bytes.

    Walks ``_parents`` back from the loss. A node is a tensor that an op
    recorded on the tape (it has parents); leaves such as params are not
    nodes. Each node counts once however many paths reach it.
    """
    seen: set[int] = set()
    nodes = 0
    nbytes = 0
    stack = [root]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._parents:
            nodes += 1
            nbytes += t.data.nbytes
            stack.extend(t._parents)
    return nodes, nbytes
