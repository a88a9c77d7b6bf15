"""Unit tests for equilibrium verification and the Theorem 2 bounds."""

import numpy as np
import pytest

from repro.baselines import solve_exact
from repro.core import (
    RMGPInstance,
    equilibrium_report,
    estimate_cn,
    is_nash_equilibrium,
    price_of_anarchy_bound,
    price_of_stability_bound,
    round_bound,
    solve_baseline,
)
from repro.core.equilibrium import anarchy_gap
from repro.core.normalization import NORMALIZATION_METHODS
from repro.graph import SocialGraph

from tests.core.conftest import tiny_instance


class TestReport:
    def test_equilibrium_detected(self, instance):
        result = solve_baseline(instance, seed=0)
        report = equilibrium_report(instance, result.assignment)
        assert report.is_equilibrium
        assert report.max_regret <= 1e-9
        assert report.unstable_players == []
        assert "Nash" in str(report)

    def test_non_equilibrium_detected(self):
        # Two friends with opposite preferences but a dominating edge:
        # both in different classes is unstable.
        graph = SocialGraph.from_edges([(0, 1, 10.0)])
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        instance = RMGPInstance(graph, ["a", "b"], cost, alpha=0.5)
        split = np.array([0, 1])
        report = equilibrium_report(instance, split)
        assert not report.is_equilibrium
        assert report.max_regret > 0
        assert report.unstable_players  # at least one wants to move
        assert "not an equilibrium" in str(report)

    def test_is_nash_wrapper(self, instance):
        result = solve_baseline(instance, seed=1)
        assert is_nash_equilibrium(instance, result.assignment)
        broken = result.assignment.copy()
        # Perturb a player with friends to break the equilibrium, if any
        # non-trivial alternative exists.
        degrees = instance.degrees()
        player = int(degrees.argmax())
        broken[player] = (broken[player] + 1) % instance.k
        # Not guaranteed unstable, but the report must still be valid.
        report = equilibrium_report(instance, broken)
        assert isinstance(report.is_equilibrium, bool)


class TestBounds:
    def test_pos_constant(self):
        assert price_of_stability_bound() == 2.0

    def test_poa_formula(self, instance):
        bound = price_of_anarchy_bound(instance)
        deg_avg = instance.graph.average_degree()
        w_avg = instance.graph.average_edge_weight()
        c_avg = float(
            np.mean([instance.cost.row(v).min() for v in range(instance.n)])
        )
        expected = 1.0 + ((1 - instance.alpha) / instance.alpha) * (
            deg_avg * w_avg
        ) / (2 * c_avg)
        assert bound == pytest.approx(expected)

    def test_poa_infinite_when_free_class(self):
        graph = SocialGraph.from_edges([(0, 1, 1.0)])
        cost = np.zeros((2, 2))
        instance = RMGPInstance(graph, ["a", "b"], cost)
        assert price_of_anarchy_bound(instance) == float("inf")

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_every_equilibrium_within_poa_bound(self, seed):
        """Theorem 2: any Nash equilibrium is within the PoA bound of OPT."""
        instance = tiny_instance(seed=seed)
        optimal = solve_exact(instance).value.total
        equilibrium = solve_baseline(instance, seed=seed).value.total
        ratio, bound = anarchy_gap(instance, equilibrium, optimal)
        assert ratio <= bound + 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_pos_bound_via_opt_warm_start(self, seed):
        """Dynamics warm-started at OPT reach an equilibrium <= 2*OPT.

        Proof sketch (from the paper's inequality (5)): best responses
        only lower Phi, Phi(OPT) <= C(OPT), and C <= 2*Phi, hence the
        reached equilibrium costs at most 2*OPT — the PoS bound.
        """
        instance = tiny_instance(seed=seed)
        exact = solve_exact(instance)
        optimal = exact.value.total
        reached = solve_baseline(
            instance, warm_start=exact.assignment, seed=seed
        )
        assert reached.value.total <= 2.0 * optimal + 1e-9

    def test_round_bound_formula(self, instance):
        bound = round_bound(instance, scale=10.0)
        worst_assignment = sum(
            instance.cost.row(v).max() for v in range(instance.n)
        )
        c_star = 10.0 * worst_assignment
        w_star = 5.0 * instance.graph.total_edge_weight()
        assert bound == pytest.approx(max(c_star, w_star))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rounds_far_below_lemma2_bound(self, seed):
        """Observed rounds are well under the (loose) Lemma 2 ceiling."""
        instance = tiny_instance(seed=seed)
        result = solve_baseline(instance, seed=seed, track_potential=True)
        # Costs are floats; a scale of 1e6 makes an integer-ish potential.
        assert result.num_rounds <= round_bound(instance, scale=1e6)


class TestEdgeCasePins:
    """Degenerate inputs whose outputs the whole-table certifier keeps."""

    def test_empty_instance(self):
        instance = RMGPInstance(
            SocialGraph.from_edges([]), ["a", "b"], np.zeros((0, 2))
        )
        report = equilibrium_report(instance, np.zeros(0, dtype=np.int64))
        assert report.is_equilibrium
        assert report.max_regret == 0.0
        assert report.unstable_players == []
        assert price_of_anarchy_bound(instance) == 1.0
        assert round_bound(instance, 10.0) == 0.0
        for method in NORMALIZATION_METHODS:
            assert estimate_cn(instance, method).cn == 1

    def test_edgeless_unit_costs(self):
        graph = SocialGraph(range(3))
        instance = RMGPInstance(graph, ["a", "b"], np.ones((3, 2)))
        report = equilibrium_report(instance, np.array([0, 1, 0]))
        assert report.is_equilibrium
        assert report.max_regret == 0.0
        assert price_of_anarchy_bound(instance) == 1.0
        assert round_bound(instance, 10.0) == 30.0

    def test_regret_equal_to_tolerance_is_stable(self):
        """Only a regret strictly above the tolerance marks a player."""
        graph = SocialGraph(range(2))
        cost = np.array([[0.0, 0.5], [0.0, 0.5]])
        instance = RMGPInstance(graph, ["a", "b"], cost, alpha=0.5)
        assignment = np.array([1, 0])  # player 0 regrets exactly 0.25
        at = equilibrium_report(instance, assignment, tolerance=0.25)
        assert at.is_equilibrium
        assert at.max_regret == 0.25
        below = equilibrium_report(instance, assignment, tolerance=0.125)
        assert below.unstable_players == [0]
