"""The one-pass elimination plan must match a per-player oracle.

:func:`repro.core.strategy_elimination.build_elimination_plan` derives
every ``VR_v`` bound, the ``n x k`` validity mask and the fixed classes
from one pass over ``cost.dense()``.  This module keeps the per-player
reference inline: one ``cost.row`` per player, its minimum plus
``((1 − α)/α)·W_v``, then ``np.flatnonzero`` of the rows within the bound.
Hypothesis compares the two across every cost provider, on instances
with ``n = 0``, ``k = 1``, isolated players and classes sitting exactly
at ``VR_v + tol``; ``valid_regions`` must be bit-equal and the valid
and fixed classes equal.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dynamics
from repro.core.instance import RMGPInstance
from repro.core.strategy_elimination import build_elimination_plan
from repro.graph import SocialGraph

from .conftest import COST_PROVIDERS, cost_provider


def oracle_plan(
    instance: RMGPInstance,
) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray]:
    """Per-player reference: ``(valid_classes, fixed_class, valid_regions)``."""
    ratio = (1.0 - instance.alpha) / instance.alpha
    valid_classes: List[np.ndarray] = []
    fixed = np.full(instance.n, -1, dtype=np.int64)
    regions = np.empty(instance.n, dtype=np.float64)
    for player in range(instance.n):
        row = instance.cost.row(player)
        bound = row.min() + ratio * instance.half_strength[player]
        regions[player] = bound
        valid = np.flatnonzero(row <= bound + dynamics.DEVIATION_TOLERANCE)
        valid_classes.append(valid)
        if len(valid) == 1:
            fixed[player] = int(valid[0])
    return valid_classes, fixed, regions


def assert_plan_matches_oracle(instance: RMGPInstance) -> None:
    plan = build_elimination_plan(instance)
    valid_classes, fixed, regions = oracle_plan(instance)
    assert plan.valid_regions.tobytes() == regions.tobytes()
    np.testing.assert_array_equal(plan.fixed_class, fixed)
    assert plan.fixed_class.dtype == fixed.dtype
    assert len(plan.valid_classes) == len(valid_classes)
    for got, want in zip(plan.valid_classes, valid_classes):
        np.testing.assert_array_equal(got, want)
    assert plan.strategies_remaining() == sum(len(v) for v in valid_classes)
    assert plan.num_fixed == int((fixed >= 0).sum())


@st.composite
def plan_instances(draw, max_players: int = 10, max_classes: int = 4):
    """Small instances over every provider, with isolated players."""
    n = draw(st.integers(0, max_players))
    k = draw(st.integers(1, max_classes))
    alpha = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.95]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = (
        draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        if pairs
        else []
    )
    graph = SocialGraph(range(n))
    for u, v in chosen:
        graph.add_edge(u, v, draw(st.floats(0.1, 5.0)))
    # Few distinct values, so rows tie and bounds land on class costs.
    values = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 10.0))
    matrix = np.array(
        draw(st.lists(values, min_size=n * k, max_size=n * k)), dtype=np.float64
    ).reshape(n, k)
    other = np.array(
        draw(st.lists(values, min_size=n * k, max_size=n * k)), dtype=np.float64
    ).reshape(n, k)
    provider = cost_provider(draw(st.sampled_from(COST_PROVIDERS)), matrix, other)
    return RMGPInstance(graph, list(range(k)), provider, alpha=alpha)


@settings(max_examples=200, deadline=None)
@given(plan_instances())
def test_plan_matches_per_player_oracle(instance):
    assert_plan_matches_oracle(instance)


def test_empty_instance():
    instance = RMGPInstance(SocialGraph(), [0, 1], np.empty((0, 2)), alpha=0.5)
    assert_plan_matches_oracle(instance)
    assert build_elimination_plan(instance).valid_classes == []


def test_single_class_fixes_everyone():
    graph = SocialGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0)])
    instance = RMGPInstance(graph, ["p"], np.ones((3, 1)), alpha=0.5)
    assert_plan_matches_oracle(instance)
    assert build_elimination_plan(instance).num_fixed == 3


def test_isolated_players_keep_only_their_cheapest_classes():
    graph = SocialGraph(range(3))
    cost = np.array([[0.2, 0.7], [0.4, 0.4], [0.9, 0.1]])
    instance = RMGPInstance(graph, [0, 1], cost, alpha=0.5)
    assert_plan_matches_oracle(instance)
    plan = build_elimination_plan(instance)
    assert plan.fixed_class.tolist() == [0, -1, 1]


def test_class_exactly_at_the_bound_plus_tolerance_is_kept():
    """``c(v, p) == VR_v + tol`` is valid; one ulp above it is pruned."""
    graph = SocialGraph.from_edges([(0, 1, 1.0)])
    # alpha = 0.5: ratio 1, W_v = 0.5, so VR_v = 0.25 + 0.5 = 0.75.
    edge = 0.75 + dynamics.DEVIATION_TOLERANCE
    cost = np.array([[0.25, edge, np.nextafter(edge, 1.0)], [0.25, 0.5, 2.0]])
    instance = RMGPInstance(graph, [0, 1, 2], cost, alpha=0.5)
    assert_plan_matches_oracle(instance)
    plan = build_elimination_plan(instance)
    assert plan.valid_regions[0] == 0.75
    assert plan.valid_classes[0].tolist() == [0, 1]
    assert plan.valid_classes[1].tolist() == [0, 1]
