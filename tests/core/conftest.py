"""Shared fixtures and instance factories for core tests."""

from __future__ import annotations

import random
from typing import Optional

import numpy as np
import pytest

from repro.core import RMGPInstance
from repro.core.costs import CombinedCost, FunctionCost, MatrixCost, ScaledCost
from repro.graph import SocialGraph, erdos_renyi

#: Names accepted by :func:`cost_provider`, one per provider class.
COST_PROVIDERS = ("matrix", "scaled", "function", "combined")


def random_instance(
    num_players: int = 20,
    num_classes: int = 4,
    alpha: float = 0.5,
    edge_probability: float = 0.2,
    seed: int = 0,
) -> RMGPInstance:
    """A reproducible random RMGP instance for tests."""
    graph = erdos_renyi(num_players, edge_probability, random.Random(seed))
    cost = np.random.default_rng(seed).uniform(0.0, 1.0, (num_players, num_classes))
    return RMGPInstance(graph, list(range(num_classes)), cost, alpha=alpha)


def cost_provider(name: str, matrix: np.ndarray, other: np.ndarray):
    """The named provider over ``matrix`` (``other`` is combined's second term)."""
    n, k = matrix.shape
    if name == "matrix":
        return MatrixCost(matrix)
    if name == "scaled":
        return ScaledCost(MatrixCost(matrix), 0.37)
    if name == "function":
        return FunctionCost(lambda v: matrix[v], n, k)
    return CombinedCost(
        [MatrixCost(matrix), FunctionCost(lambda v: other[v], n, k)],
        [0.6, 1.7],
    )


def tiny_instance(seed: int = 0, alpha: float = 0.5) -> RMGPInstance:
    """Small enough for exact branch-and-bound comparisons."""
    return random_instance(
        num_players=8, num_classes=3, alpha=alpha, edge_probability=0.4, seed=seed
    )


@pytest.fixture
def instance() -> RMGPInstance:
    return random_instance()


@pytest.fixture
def line_instance() -> RMGPInstance:
    """Three players on a path, two classes, hand-checkable numbers."""
    graph = SocialGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)])
    cost = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    return RMGPInstance(graph, ["a", "b"], cost, alpha=0.5)
