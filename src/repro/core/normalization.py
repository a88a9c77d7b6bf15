"""RMGP_N — cost normalization (Section 3.3).

When assignment costs (e.g. distances in meters) and edge weights live on
wildly different scales, one term of Equation 1 dominates and the
partition degenerates.  RMGP_N rescales the assignment cost by a constant

    C_N = SC_v / (2 · AC_v)

chosen so that at ``α = 0.5`` the two *average per-user* cost components
are comparable.  ``AC_v`` and ``SC_v`` are only known after solving, so
the paper proposes two a-priori estimates:

* **optimistic** — every user joins his cheapest class
  (``AC_v = dist_min``) and only a ``1/√k`` fraction of his friends end
  up elsewhere:  ``C_N = deg_avg · w_avg / (2 · dist_min · √k)``.
* **pessimistic** — every user pays his *median* class cost
  (``AC_v = dist_med``) and friends scatter uniformly over the ``k``
  classes, leaving a ``(k−1)/k`` fraction elsewhere:
  ``C_N = deg_avg · (k−1) · w_avg / (2 · dist_med · k)``.

Normalization is a pure rescaling of the cost provider, so every game
property (exact potential, convergence, PoS/PoA) carries over.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from repro.core.costs import ScaledCost
from repro.core.instance import RMGPInstance
from repro.errors import ConfigurationError

NORMALIZATION_METHODS = ("optimistic", "pessimistic")


@dataclass(frozen=True)
class NormalizationEstimate:
    """The ingredients and value of one ``C_N`` estimate."""

    method: str
    cn: float
    deg_avg: float
    w_avg: float
    k: int
    avg_min_cost: float
    avg_median_cost: float

    def __str__(self) -> str:
        return f"C_N[{self.method}]={self.cn:.6g}"


def average_min_cost(instance: RMGPInstance) -> float:
    """``dist_min``: mean over users of their cheapest class cost."""
    if instance.n == 0:
        return 0.0
    return float(np.mean(instance.cost.dense().min(axis=1)))


def average_median_cost(instance: RMGPInstance) -> float:
    """``dist_med``: mean over users of their median class cost."""
    if instance.n == 0:
        return 0.0
    # dense() is a fresh copy, so the median may partition it in place.
    dense = instance.cost.dense()
    return float(np.mean(np.median(dense, axis=1, overwrite_input=True)))


def estimate_cn(instance: RMGPInstance, method: str) -> NormalizationEstimate:
    """Estimate the normalization constant with either heuristic."""
    if method not in NORMALIZATION_METHODS:
        raise ConfigurationError(
            f"unknown normalization method {method!r}; "
            f"expected one of {NORMALIZATION_METHODS}"
        )
    deg_avg = instance.graph.average_degree()
    w_avg = instance.graph.average_edge_weight()
    k = instance.k
    avg_min = average_min_cost(instance)
    avg_med = average_median_cost(instance)

    if method == "optimistic":
        denominator = 2.0 * avg_min * sqrt(k)
        numerator = deg_avg * w_avg
    else:
        denominator = 2.0 * avg_med * k
        numerator = deg_avg * (k - 1) * w_avg

    if denominator <= 0 or numerator <= 0:
        # Degenerate inputs (no edges, zero costs, k=1): scaling by 1
        # leaves the instance untouched rather than dividing by zero.
        cn = 1.0
    else:
        cn = numerator / denominator
    return NormalizationEstimate(
        method=method,
        cn=cn,
        deg_avg=deg_avg,
        w_avg=w_avg,
        k=k,
        avg_min_cost=avg_min,
        avg_median_cost=avg_med,
    )


def normalize(
    instance: RMGPInstance, method: str = "pessimistic"
) -> "tuple[RMGPInstance, NormalizationEstimate]":
    """Return ``(normalized instance, estimate)`` for Equation 7.

    The returned instance shares the graph and classes; only its cost
    provider is wrapped in a :class:`~repro.core.costs.ScaledCost` with
    factor ``C_N``.
    """
    estimate = estimate_cn(instance, method)
    scaled = instance.with_cost(ScaledCost(instance.cost, estimate.cn))
    return scaled, estimate


def normalize_with_constant(
    instance: RMGPInstance, cn: float
) -> RMGPInstance:
    """Rescale assignment costs by an explicit, pre-computed ``C_N``."""
    if cn <= 0:
        raise ConfigurationError(f"C_N must be positive, got {cn}")
    return instance.with_cost(ScaledCost(instance.cost, cn))


def exact_cn(instance: RMGPInstance, assignment: np.ndarray) -> float:
    """The *a posteriori* ``C_N = SC_v / (2 · AC_v)`` of a solved game.

    Useful to judge how close the heuristics came; not usable up front
    because it "requires AC_v and SC_v, which can only be obtained after
    solving the problem" (Section 3.3).
    """
    from repro.core.objective import assignment_cost_sum, social_cost_sum

    instance.validate_assignment(assignment)
    if instance.n == 0:
        return 1.0
    ac = assignment_cost_sum(instance, assignment) / instance.n
    # SC_v is the per-user crossing weight: each crossing edge contributes
    # to both endpoints, hence the factor 2 over the cut weight.
    sc = 2.0 * social_cost_sum(instance, assignment) / instance.n
    if ac <= 0:
        return 1.0
    return sc / (2.0 * ac)
