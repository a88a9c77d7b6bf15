"""The vectorized Nash certificate must agree with a per-player oracle.

:func:`repro.core.equilibrium.equilibrium_report` prices every player's
strategies in one ``|V| x k`` table built by
:func:`repro.core.global_table.build_global_table` — the same formula
RMGP_gt starts from.  So that the certificate stays an *independent*
check of the solvers, this module keeps the scalar reference inline:
one :func:`~repro.core.objective.player_strategy_costs` call per player
(Figure 3 lines 7-10, ``np.subtract.at`` refunds), then argmin and
regret.  Hypothesis compares the two on small random instances with
isolated players, (effectively) zero-weight edges and ``k = 1``; on
solver outputs, random assignments and perturbed solver outputs; and
across every cost provider.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import partition
from repro.core.equilibrium import EQUILIBRIUM_TOLERANCE, equilibrium_report
from repro.core.instance import RMGPInstance
from repro.core.objective import player_strategy_costs
from repro.graph import SocialGraph

from .conftest import COST_PROVIDERS, cost_provider

#: The graph rejects non-positive weights; the smallest positive double
#: stands in for a zero-weight edge, since its ½·w refund rounds to 0.
TINY_WEIGHT = 5e-324


def oracle_report(
    instance: RMGPInstance, assignment: np.ndarray, tolerance: float
) -> Tuple[bool, float, List[int], List[float]]:
    """Per-player reference: ``(is_nash, max_regret, unstable, regrets)``."""
    max_regret = 0.0
    unstable: List[int] = []
    regrets: List[float] = []
    for player in range(instance.n):
        costs = player_strategy_costs(instance, assignment, player)
        regret = float(costs[int(assignment[player])] - costs.min())
        regrets.append(regret)
        if regret > max_regret:
            max_regret = regret
        if regret > tolerance:
            unstable.append(player)
    return not unstable, max_regret, unstable, regrets


@st.composite
def oracle_instances(draw, max_players: int = 10, max_classes: int = 4):
    """Small instances: isolated players, near-zero weights, ``k = 1``."""
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
        weight = draw(st.one_of(st.just(TINY_WEIGHT), st.floats(0.1, 5.0)))
        graph.add_edge(u, v, weight)
    values = st.floats(0.0, 10.0)
    matrix = np.array(
        draw(st.lists(values, min_size=n * k, max_size=n * k)), dtype=np.float64
    ).reshape(n, k)
    other = np.array(
        draw(st.lists(values, min_size=n * k, max_size=n * k)), dtype=np.float64
    ).reshape(n, k)
    name = draw(st.sampled_from(COST_PROVIDERS))
    provider = cost_provider(name, matrix, other)
    return RMGPInstance(graph, list(range(k)), provider, alpha=alpha)


@st.composite
def certified_pairs(draw):
    """An instance with a solver output, a random or a perturbed assignment."""
    instance = draw(oracle_instances())
    n, k = instance.n, instance.k
    kind = draw(st.sampled_from(["solver", "random", "perturbed"]))
    if kind == "random":
        assignment = np.array(
            draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
            dtype=np.int64,
        )
    else:
        solver = draw(st.sampled_from(["b", "gt", "vec"]))
        assignment = partition(
            instance, solver=solver, seed=draw(st.integers(0, 5))
        ).assignment.copy()
        if kind == "perturbed" and n:
            players = draw(
                st.lists(st.integers(0, n - 1), min_size=1, max_size=3)
            )
            for player in players:
                assignment[player] = draw(st.integers(0, k - 1))
    return instance, assignment


@settings(max_examples=300, deadline=None)
@given(
    certified_pairs(),
    st.sampled_from([EQUILIBRIUM_TOLERANCE, 1e-3, 0.5]),
)
def test_vectorized_report_matches_scalar_oracle(pair, tolerance):
    instance, assignment = pair
    is_nash, max_regret, unstable, regrets = oracle_report(
        instance, assignment, tolerance
    )
    # Exactly at the tolerance the two summation orders may disagree in
    # the last ulp; such boundary cases decide nothing about the rewrite.
    assume(all(abs(r - tolerance) > 1e-12 for r in regrets))
    report = equilibrium_report(instance, assignment, tolerance)
    assert report.is_equilibrium == is_nash
    assert report.unstable_players == unstable
    assert abs(report.max_regret - max_regret) <= 1e-12
    assert isinstance(report.max_regret, float)
    assert all(isinstance(p, int) for p in report.unstable_players)


def test_oracle_sees_unstable_players():
    """The property above is not vacuous: perturbations do break Nash."""
    graph = SocialGraph.from_edges([(0, 1, 10.0), (1, 2, 10.0)])
    matrix = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    for name in COST_PROVIDERS:
        instance = RMGPInstance(
            graph, ["a", "b"], cost_provider(name, matrix, matrix), alpha=0.5
        )
        assignment = np.array([0, 1, 0])
        expected = oracle_report(instance, assignment, EQUILIBRIUM_TOLERANCE)
        report = equilibrium_report(instance, assignment)
        assert not report.is_equilibrium
        assert report.unstable_players == expected[2]
        assert 1 in report.unstable_players
        assert abs(report.max_regret - expected[1]) <= 1e-12
