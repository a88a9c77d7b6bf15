"""In-memory span recording, self-time arithmetic and percentile rules.

The benchmark times each layer from outside the program: it opens a
span around every call it makes into a layer's public functions (and
around public methods it wraps at runtime, see ``harness.py``).  Spans
stay in memory and are written once, at the end of a run, as
``repro-trace/v2`` JSONL so ``python -m repro.obs.schema`` can check
them.

A span's *self time* is its duration minus the union of its children's
intervals (clipped to the span), so overlapping children are never
counted twice and the self times of one operation's spans add up to the
operation's wall time exactly.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: The trace schema the written file declares (checked by repro.obs.schema).
TRACE_SCHEMA = "repro-trace/v2"


class Span:
    """One timed call: ``op`` is the id of the operation's root span."""

    __slots__ = ("id", "parent", "name", "op", "depth", "start", "end", "attrs")

    def __init__(
        self,
        span_id: int,
        parent: Optional[int],
        name: str,
        op: int,
        depth: int,
        start: float,
        attrs: Dict[str, Any],
    ) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.op = op
        self.depth = depth
        self.start = start
        self.end = start
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans; a disabled recorder records nothing.

    Spans opened while no span is open start a new operation; every span
    opened inside it shares that operation's id.
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self.origin = clock()
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        span = self._record(name, self.clock(), parent, attrs)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-finished span (e.g. one the server timed)."""
        span = self._record(name, start, parent, attrs)
        span.end = end
        return span

    def _record(
        self, name: str, start: float, parent: Optional[Span], attrs
    ) -> Span:
        span_id = len(self.spans) + 1
        span = Span(
            span_id,
            parent.id if parent else None,
            name,
            parent.op if parent else span_id,
            parent.depth + 1 if parent else 0,
            start,
            attrs,
        )
        self.spans.append(span)
        return span

    def write_jsonl(self, path: str, **meta: Any) -> None:
        """Write every span as ``repro-trace/v2`` JSONL (parents first)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"type": "meta", "schema": TRACE_SCHEMA, **meta})
                + "\n"
            )
            for span in self.spans:
                record = {
                    "type": "span",
                    "id": span.id,
                    "parent": span.parent,
                    "name": span.name,
                    "depth": span.depth,
                    "start": span.start - self.origin,
                    "end": span.end - self.origin,
                    "attrs": {"op": span.op, **span.attrs},
                }
                handle.write(json.dumps(record) + "\n")


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ())
        ]
        result[span.id] = span.duration - union_length(clipped)
    return result


def layer_rows(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total and median self time in ms.

    The self time of an operation's root span — the part of the
    operation no layer call covers — is reported as its own row,
    ``<root name>.residual``.
    """
    own = self_times(spans)
    grouped: Dict[str, List[float]] = {}
    for span in spans:
        name = span.name if span.parent is not None else f"{span.name}.residual"
        grouped.setdefault(name, []).append(own[span.id] * 1e3)
    return {
        name: {
            "count": len(values),
            "total_ms": sum(values),
            "median_ms": median(values),
        }
        for name, values in sorted(grouped.items())
    }


def unaccounted_ms(spans: Sequence[Span]) -> float:
    """Largest gap, over operations, between wall time and summed self time.

    Zero up to float rounding whenever every child lies inside its
    parent: the layers' self times plus the residual row then account
    for each operation's wall time.
    """
    own = self_times(spans)
    by_op: Dict[int, float] = {}
    roots = {}
    for span in spans:
        by_op[span.op] = by_op.get(span.op, 0.0) + own[span.id]
        if span.parent is None:
            roots[span.id] = span.duration
    return max(
        (abs(roots[op] - total) * 1e3 for op, total in by_op.items()),
        default=0.0,
    )


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    middle = n // 2
    if n % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def median_of_groups(values: Sequence[float], keys: Sequence[Any]) -> float:
    """Median over groups (values sharing a key) of each group's median.

    The typical latency of a mix of operation kinds whose costs differ.
    When a few kinds in fixed shares make latency multimodal, the plain
    median of an even mix lies between two modes — at the slowest value
    of one kind and the fastest of the next, two extreme order statistics
    as unsteady as a maximum — while each kind's median is steady.
    """
    groups: Dict[Any, List[float]] = {}
    for value, key in zip(values, keys):
        groups.setdefault(key, []).append(value)
    return median([median(group) for group in groups.values()])


def nearest_rank(ordered: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile of sorted data, and its 1-based rank."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], rank


def p95_or_max(values: Sequence[float]) -> float:
    """The 95th percentile when at least 10 samples lie beyond it (200 or
    more samples), else the maximum."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    value, rank = nearest_rank(ordered, 95.0)
    if len(ordered) - rank >= 10:
        return value
    return ordered[-1]
