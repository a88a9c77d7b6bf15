"""Host pace: timings scaled to how fast this machine runs right now.

On a shared host, neighbours slow every process on the machine by up to
half, in phases lasting from sub-second flips to minutes; CPU time
slows with wall time, so it is no way out.  A run therefore times a
fixed reference — interpreter and numpy work that calls nothing of the
program — while the program idles, and reports each timing scaled to
the pace at which the reference takes ``NOMINAL_S``.  Two ways:

- ``paced``: samples right before and right after one timed region, for
  work in this process.  The samples meet the same phase of the host as
  the region between them.
- ``RunPace``: samples spread over a whole run, for a server's work in
  another process, which the client can only sample while the server
  idles (beside a busy server on two cores its sample is disturbed).
  Their interquartile mean tracks the share of time the host spent in
  each phase and drops a sample that caught a brief stall.

A change to the program cannot move the reference, so it moves paced
timings exactly as it moves measured ones; a slow phase of the host
moves both and mostly cancels.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, List

import numpy as np

from spans import median

#: Seconds one reference pass takes at nominal pace (a quiet 2-core box).
NOMINAL_S = 0.0025

#: Reference passes per sample; a sample is their median.
PASSES = 5

#: Gap between the samples ``RunPace.sample`` takes in a row.
SPACING_S = 0.1

_TABLE = np.arange(4096, dtype=np.int64)


def _reference_pass() -> None:
    """Fixed work shaped like the program's: a Python loop over players
    with dict and list traffic, and numpy gathers over small arrays."""
    counts = {}
    order: List[int] = []
    for i in range(6000):
        key = (i * 7919) % 97
        counts[key] = counts.get(key, 0) + 1
        order.append(key)
    index = np.asarray(order, dtype=np.int64)
    for _ in range(20):
        np.bincount(_TABLE[index] % 16, minlength=16).argmin()


def reference_seconds() -> float:
    """Median time of PASSES reference passes, in seconds."""
    times = []
    for _ in range(PASSES):
        start = time.perf_counter()
        _reference_pass()
        times.append(time.perf_counter() - start)
    return median(times)


class RunPace:
    """Reference samples spread over a whole run; they pace its timings."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, count: int) -> None:
        """Take ``count`` samples, SPACING_S apart."""
        for index in range(count):
            if index:
                time.sleep(SPACING_S)
            self.samples.append(reference_seconds())

    @property
    def factor(self) -> float:
        """How much faster than this run the nominal pace is."""
        ordered = sorted(self.samples)
        quarter = len(ordered) // 4
        middle = ordered[quarter:len(ordered) - quarter]
        return NOMINAL_S / (sum(middle) / len(middle))


class Paced:
    """A timed region's measured seconds and its two reference samples."""

    def __init__(self) -> None:
        self.measured = 0.0
        self.before = self.after = NOMINAL_S

    @property
    def seconds(self) -> float:
        return self.measured * NOMINAL_S / ((self.before + self.after) / 2.0)


@contextmanager
def paced(rec) -> Iterator[Paced]:
    """Time the body; ``.seconds`` is valid once it has finished.

    Each reference sample is a ``pace.reference`` span of ``rec``, so a
    traced run attributes it rather than leave it unexplained.
    """
    def sample() -> float:
        with rec.span("pace.reference"):
            return reference_seconds()

    result = Paced()
    result.before = sample()
    start = time.perf_counter()
    try:
        yield result
    finally:
        result.measured = time.perf_counter() - start
        result.after = sample()
