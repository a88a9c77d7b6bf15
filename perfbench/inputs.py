"""Seeded input generation, done by the benchmark outside any timed region.

Every generator takes the workload seed plus a purpose tag, so two
streams drawn from one seed never share random numbers and the same
seed always yields the same inputs.  The program under test only ever
receives what these functions return.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np

#: Smallest assignment cost drawn; keeps the PoA bound finite.
COST_LOW = 0.05


def rng_for(seed: int, purpose: str) -> random.Random:
    """A ``random.Random`` private to one (seed, purpose) pair."""
    return random.Random(f"{seed}/{purpose}")


def barabasi_albert_edges(
    num_nodes: int, edges_per_node: int, rng: random.Random
) -> List[Tuple[int, int]]:
    """Edge list of a Barabási–Albert graph on nodes ``0..num_nodes-1``.

    A clique over the first ``m + 1`` nodes, then each new node attaches
    to ``m`` distinct existing nodes drawn proportionally to degree.
    """
    m = edges_per_node
    edges: List[Tuple[int, int]] = []
    endpoints: List[int] = []
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            edges.append((u, v))
            endpoints.extend((u, v))
    draw = rng.randrange
    for u in range(m + 1, num_nodes):
        targets = set()
        while len(targets) < m:
            targets.add(endpoints[draw(len(endpoints))])
        for v in sorted(targets):
            edges.append((u, v))
            endpoints.extend((u, v))
    return edges


def uniform_costs(num_nodes: int, num_classes: int, seed: int) -> np.ndarray:
    """An ``n x k`` matrix of assignment costs, uniform in [COST_LOW, 1)."""
    generator = np.random.default_rng([seed, num_nodes, num_classes])
    return generator.uniform(COST_LOW, 1.0, size=(num_nodes, num_classes))


def stratified_alphas(
    rng: random.Random, count: int, low: float = 0.2, high: float = 0.8
) -> List[float]:
    """``count`` fresh uniform draws of α, the i-th from the i-th of
    ``count`` equal-width strata of [low, high)."""
    width = (high - low) / count
    return [
        round(low + width * (i + rng.random()), 6) for i in range(count)
    ]


def poisson_schedule(
    rate: float, count: int, rng: random.Random
) -> List[float]:
    """Due times (seconds from the step start) of ``count`` Poisson arrivals."""
    due: List[float] = []
    now = 0.0
    for _ in range(count):
        now += rng.expovariate(rate)
        due.append(now)
    return due
