"""Nash-equilibrium verification and quality bounds (Section 2.2, Theorem 2).

Provides the certificates the tests and benchmarks rely on:

* :func:`is_nash_equilibrium` / :func:`equilibrium_report` — check that no
  player can strictly improve by deviating unilaterally.
* :func:`price_of_stability_bound` — the constant 2 of Theorem 2.
* :func:`price_of_anarchy_bound` — the instance-dependent PoA bound
  ``1 + ((1−α)/α) · (deg_avg · w_avg) / (2 · c_avg)``.
* :func:`round_bound` — Lemma 2's ``max{C*, W*}`` bound on the number of
  rounds under integer scaling.

Each check is a whole-array reduction costing O(k·|V|+|E|), no more than
one best-response round (Lemma 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.global_table import build_global_table
from repro.core.instance import RMGPInstance
from repro.core.normalization import average_min_cost

#: Strictness margin for "can improve"; matches the solvers' deviation rule.
EQUILIBRIUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of checking every player's best response.

    ``max_regret`` is the largest unilateral improvement available to any
    player (0 at an exact equilibrium); ``unstable_players`` lists players
    with regret above tolerance.
    """

    is_equilibrium: bool
    max_regret: float
    unstable_players: List[int]

    def __str__(self) -> str:
        if self.is_equilibrium:
            return "Nash equilibrium (max regret {:.2e})".format(self.max_regret)
        return (
            f"not an equilibrium: {len(self.unstable_players)} unstable "
            f"players, max regret {self.max_regret:.6g}"
        )


def equilibrium_report(
    instance: RMGPInstance,
    assignment: np.ndarray,
    tolerance: float = EQUILIBRIUM_TOLERANCE,
) -> EquilibriumReport:
    """Check the Nash condition for every player.

    One O(k·|V|+|E|) pass: the ``|V| x k`` strategy-cost table of
    :func:`~repro.core.global_table.build_global_table`, then each
    player's regret is his current entry minus his row minimum.
    """
    instance.validate_assignment(assignment)
    if instance.n == 0:
        return EquilibriumReport(
            is_equilibrium=True, max_regret=0.0, unstable_players=[]
        )
    table = build_global_table(instance, assignment)
    current = table[np.arange(instance.n), np.asarray(assignment)]
    regrets = current - table.min(axis=1)
    unstable = np.flatnonzero(regrets > tolerance).tolist()
    return EquilibriumReport(
        is_equilibrium=not unstable,
        max_regret=max(0.0, float(regrets.max())),
        unstable_players=unstable,
    )


def is_nash_equilibrium(
    instance: RMGPInstance,
    assignment: np.ndarray,
    tolerance: float = EQUILIBRIUM_TOLERANCE,
) -> bool:
    """True when no player can strictly improve by more than ``tolerance``."""
    return equilibrium_report(instance, assignment, tolerance).is_equilibrium


def price_of_stability_bound() -> float:
    """Theorem 2: the best equilibrium costs at most twice the optimum."""
    return 2.0


def price_of_anarchy_bound(instance: RMGPInstance) -> float:
    """Theorem 2's PoA bound for this instance.

    ``PoA ≤ 1 + ((1 − α)/α) · (deg_avg · w_avg) / (2 · c_avg)`` where
    ``c_avg`` is the average minimum per-user assignment cost.  Returns
    ``inf`` when ``c_avg`` is zero (some player has a free class — the
    multiplicative bound is vacuous there).
    """
    deg_avg = instance.graph.average_degree()
    w_avg = instance.graph.average_edge_weight()
    if instance.n == 0:
        return 1.0
    c_avg = average_min_cost(instance)
    if c_avg <= 0:
        return float("inf")
    alpha = instance.alpha
    return 1.0 + ((1.0 - alpha) / alpha) * (deg_avg * w_avg) / (2.0 * c_avg)


def round_bound(instance: RMGPInstance, scale: float) -> float:
    """Lemma 2's bound ``max{C*, W*}`` on best-response rounds.

    ``scale`` is the multiplicative factor ``d`` making ``d · Φ(S)``
    integral.  ``C* = d · Σ_v max_p c(v, p)`` (worst total assignment
    cost) and ``W* = (d/2) · Σ_e w_e`` (all edges cut).
    """
    worst_assignment = float(instance.cost.dense().max(axis=1).sum())
    c_star = scale * worst_assignment
    w_star = 0.5 * scale * instance.graph.total_edge_weight()
    return max(c_star, w_star)


def anarchy_gap(
    instance: RMGPInstance,
    equilibrium_value: float,
    optimal_value: float,
) -> Tuple[float, float]:
    """Measured ratio vs Theorem 2's bound, as ``(ratio, bound)``.

    ``ratio = equilibrium_value / optimal_value`` must not exceed the
    PoA bound; tests assert this against brute-force optima.
    """
    if optimal_value <= 0:
        return (1.0 if equilibrium_value <= 0 else float("inf"),
                price_of_anarchy_bound(instance))
    return equilibrium_value / optimal_value, price_of_anarchy_bound(instance)
