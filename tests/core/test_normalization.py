"""Unit tests for RMGP_N normalization (Section 3.3)."""

from math import sqrt

import numpy as np
import pytest

from repro.core import (
    RMGPInstance,
    average_median_cost,
    average_min_cost,
    estimate_cn,
    exact_cn,
    normalize,
    normalize_with_constant,
    objective,
    solve_baseline,
)
from repro.errors import ConfigurationError
from repro.graph import SocialGraph

from tests.core.conftest import COST_PROVIDERS, cost_provider, random_instance


def scaled_instance(scale: float, seed: int = 0) -> RMGPInstance:
    """Random instance whose assignment costs are multiplied by scale."""
    base = random_instance(seed=seed)
    matrix = base.cost.dense() * scale
    return RMGPInstance(base.graph, base.classes, matrix, alpha=base.alpha)


class TestDistanceStatistics:
    def test_average_min_cost(self):
        graph = SocialGraph.from_edges([(0, 1, 1.0)])
        cost = np.array([[1.0, 3.0], [5.0, 2.0]])
        instance = RMGPInstance(graph, ["a", "b"], cost)
        assert average_min_cost(instance) == pytest.approx((1.0 + 2.0) / 2)

    def test_average_median_cost(self):
        graph = SocialGraph.from_edges([(0, 1, 1.0)])
        cost = np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
        instance = RMGPInstance(graph, ["a", "b", "c"], cost)
        assert average_median_cost(instance) == pytest.approx((3.0 + 4.0) / 2)


class TestEstimates:
    def test_optimistic_formula(self, instance):
        est = estimate_cn(instance, "optimistic")
        expected = (est.deg_avg * est.w_avg) / (
            2.0 * est.avg_min_cost * sqrt(instance.k)
        )
        assert est.cn == pytest.approx(expected)

    def test_pessimistic_formula(self, instance):
        est = estimate_cn(instance, "pessimistic")
        expected = (est.deg_avg * (instance.k - 1) * est.w_avg) / (
            2.0 * est.avg_median_cost * instance.k
        )
        assert est.cn == pytest.approx(expected)

    def test_unknown_method_rejected(self, instance):
        with pytest.raises(ConfigurationError):
            estimate_cn(instance, "bogus")

    def test_degenerate_no_edges(self):
        instance = random_instance(edge_probability=0.0, seed=1)
        est = estimate_cn(instance, "pessimistic")
        assert est.cn == 1.0  # falls back to the identity scaling

    def test_cn_scales_inversely_with_costs(self):
        """Doubling all distances halves C_N (the space contracts back)."""
        small = estimate_cn(scaled_instance(1.0), "pessimistic").cn
        big = estimate_cn(scaled_instance(2.0), "pessimistic").cn
        assert big == pytest.approx(small / 2.0)


class TestNormalize:
    def test_returns_scaled_instance(self, instance):
        normalized, est = normalize(instance, "pessimistic")
        assert normalized.cost.cost(0, 0) == pytest.approx(
            est.cn * instance.cost.cost(0, 0)
        )
        assert normalized.alpha == instance.alpha
        assert normalized.graph is instance.graph

    def test_normalization_balances_components(self):
        """After pessimistic normalization the two cost scales are close.

        We check the *potential* scale: normalized total assignment cost
        and social cost of the solved game are within a modest factor,
        whereas raw they differ by the cost scale (x100 here).
        """
        raw = scaled_instance(100.0, seed=3)
        result_raw = solve_baseline(raw, init="closest", order="given")
        value_raw = objective(raw, result_raw.assignment)
        ratio_raw = value_raw.assignment_cost / max(value_raw.social_cost, 1e-9)

        normalized, _ = normalize(raw, "pessimistic")
        result_norm = solve_baseline(normalized, init="closest", order="given")
        value_norm = objective(normalized, result_norm.assignment)
        ratio_norm = value_norm.assignment_cost / max(value_norm.social_cost, 1e-9)

        assert ratio_raw > 10 * ratio_norm

    def test_scaling_invariance_of_solution(self):
        """Normalizing fully compensates a uniform rescale of the costs.

        An instance with costs c and one with costs 100c normalize to the
        same effective game, so deterministic dynamics coincide.
        """
        a, _ = normalize(scaled_instance(1.0, seed=4), "pessimistic")
        b, _ = normalize(scaled_instance(100.0, seed=4), "pessimistic")
        result_a = solve_baseline(a, init="closest", order="given")
        result_b = solve_baseline(b, init="closest", order="given")
        np.testing.assert_array_equal(result_a.assignment, result_b.assignment)

    def test_normalize_with_constant(self, instance):
        scaled = normalize_with_constant(instance, 3.0)
        assert scaled.cost.cost(1, 1) == pytest.approx(3 * instance.cost.cost(1, 1))

    @pytest.mark.parametrize("cn", [0.0, -2.0])
    def test_normalize_with_bad_constant(self, instance, cn):
        with pytest.raises(ConfigurationError):
            normalize_with_constant(instance, cn)


class TestExactCN:
    def test_definition(self, instance):
        result = solve_baseline(instance, seed=0)
        value = objective(instance, result.assignment)
        ac = value.assignment_cost / instance.n
        sc = 2.0 * value.social_cost / instance.n
        assert exact_cn(instance, result.assignment) == pytest.approx(
            sc / (2.0 * ac)
        )

    def test_zero_assignment_cost(self):
        graph = SocialGraph.from_edges([(0, 1, 1.0)])
        instance = RMGPInstance(graph, ["a"], np.zeros((2, 1)))
        assert exact_cn(instance, np.zeros(2, dtype=np.int64)) == 1.0


def per_row_estimate(instance: RMGPInstance, method: str):
    """Reference RMGP_N estimate: one ``cost.row`` reduction per user."""
    avg_min = float(
        np.mean([instance.cost.row(v).min() for v in range(instance.n)])
    )
    avg_med = float(
        np.mean([np.median(instance.cost.row(v)) for v in range(instance.n)])
    )
    deg_avg = instance.graph.average_degree()
    w_avg = instance.graph.average_edge_weight()
    k = instance.k
    if method == "optimistic":
        cn = (deg_avg * w_avg) / (2.0 * avg_min * sqrt(k))
    else:
        cn = (deg_avg * (k - 1) * w_avg) / (2.0 * avg_med * k)
    return cn, avg_min, avg_med


def provider_instance(provider: str, k: int, seed: int) -> RMGPInstance:
    """A 300-user instance with costs up to 1000 from the named provider."""
    base = random_instance(
        num_players=300, num_classes=k, edge_probability=0.03, seed=seed
    )
    matrix = base.cost.dense() * 1000.0
    other = np.random.default_rng(seed + 1).uniform(0.0, 50.0, matrix.shape)
    cost = cost_provider(provider, matrix, other)
    return RMGPInstance(base.graph, base.classes, cost, alpha=base.alpha)


class TestBitIdentity:
    """The whole-table reductions equal the per-row formula exactly.

    ``C_N`` scales every normalized instance, so a last-ulp change here
    would move assignments and their hashes: compare with ``==``.
    """

    @pytest.mark.parametrize("provider", COST_PROVIDERS)
    @pytest.mark.parametrize("k", [2, 3, 15, 16])
    @pytest.mark.parametrize("method", ["optimistic", "pessimistic"])
    def test_estimate_matches_per_row_formula(self, provider, k, method):
        instance = provider_instance(provider, k, seed=k)
        est = estimate_cn(instance, method)
        cn, avg_min, avg_med = per_row_estimate(instance, method)
        assert est.avg_min_cost == avg_min
        assert est.avg_median_cost == avg_med
        assert est.cn == cn

    @pytest.mark.parametrize("provider", COST_PROVIDERS)
    def test_single_class_statistics(self, provider):
        instance = provider_instance(provider, 1, seed=5)
        _, avg_min, avg_med = per_row_estimate(instance, "pessimistic")
        assert average_min_cost(instance) == avg_min
        assert average_median_cost(instance) == avg_med
        # k = 1 zeroes the pessimistic numerator: identity scaling.
        assert estimate_cn(instance, "pessimistic").cn == 1.0
