"""The paper presets must keep their trajectories on the shared engines.

RMGP_is and RMGP_all run on the batched color-group engine
(:func:`repro.core.vectorized.run_batched`); RMGP_b and RMGP_se run
their sequential sweep on a precomputed dense base cost matrix.  This
module keeps each preset's former round inline as an oracle:

* RMGP_is — per-player best responses of each group's dirty members
  (one :func:`~repro.core.objective.player_strategy_costs` each),
  committed after the whole group was evaluated;
* RMGP_all — the pruned global table with per-friend refund updates,
  examining only unhappy players;
* RMGP_se — the sequential sweep over a ``+inf``-filled scratch row
  holding ``α·c + maxSC`` on the valid classes;
* RMGP_b — the sequential sweep on ``player_strategy_costs``.

Hypothesis draws three instance families, several α, every ``init`` and
``order`` and fixed seeds; each solver must match its oracle on the
assignment, the per-round deviations and ``num_rounds``.  The identity
classes of the default options (``is`` ≡ ``all`` ≡ ``vec`` and
``se`` ≡ ``gt``) are pinned as plain tests.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import partition
from repro.core import dynamics
from repro.core.instance import RMGPInstance
from repro.core.objective import player_strategy_costs
from repro.core.vectorized import groups_from_coloring
from repro.graph import barabasi_albert, erdos_renyi, planted_partition

from .test_elimination_plan_oracle import oracle_plan

Trajectory = Tuple[np.ndarray, List[int]]


def _family(name: str, n: int, seed: int):
    rng = random.Random(seed)
    if name == "erdos_renyi":
        return erdos_renyi(n, 0.15, rng)
    if name == "barabasi_albert":
        return barabasi_albert(n, 2, rng)
    size = n // 4
    graph, _ = planted_partition([size] * 4, 0.5, 0.05, rng)
    return graph


def make_instance(family: str, n: int, k: int, alpha: float, seed: int):
    graph = _family(family, n, seed)
    cost = np.random.default_rng(seed).uniform(
        0.0, 1.0, (len(graph.nodes()), k)
    )
    return RMGPInstance(graph, list(range(k)), cost, alpha=alpha)


def _best_class(instance, assignment, player) -> int:
    costs = player_strategy_costs(instance, assignment, player)
    current = int(assignment[player])
    best = int(costs.argmin())
    if costs[best] < costs[current] - dynamics.DEVIATION_TOLERANCE:
        return best
    return current


def oracle_is(instance, init, order, seed) -> Trajectory:
    rng = random.Random(seed)
    groups = groups_from_coloring(instance)
    rank = {
        p: i for i, p in enumerate(dynamics.player_order(instance, order, rng))
    }
    groups = [sorted(group, key=rank.__getitem__) for group in groups]
    assignment = dynamics.initial_assignment(instance, init, rng)
    dirty = np.ones(instance.n, dtype=bool)
    history: List[int] = []
    while True:
        deviations = 0
        for group in groups:
            pending = [p for p in group if dirty[p]]
            dirty[pending] = False
            moves = [(p, _best_class(instance, assignment, p)) for p in pending]
            for player, best in moves:
                if best != int(assignment[player]):
                    assignment[player] = best
                    dirty[instance.neighbor_indices[player]] = True
                    deviations += 1
        history.append(deviations)
        if deviations == 0:
            return assignment, history


def oracle_all(instance, init, order, seed) -> Trajectory:
    rng = random.Random(seed)
    valid_classes, fixed_class, _ = oracle_plan(instance)
    assignment = dynamics.initial_assignment(instance, init, rng)
    fixed = fixed_class >= 0
    assignment[fixed] = fixed_class[fixed]
    rank = {
        p: i for i, p in enumerate(dynamics.player_order(instance, order, rng))
    }
    groups = [
        sorted((p for p in group if not fixed[p]), key=rank.__getitem__)
        for group in groups_from_coloring(instance)
    ]
    alpha = instance.alpha
    half = (1.0 - alpha) * 0.5
    tol = dynamics.DEVIATION_TOLERANCE
    table = np.full((instance.n, instance.k), np.inf)
    for player in range(instance.n):
        valid = valid_classes[player]
        table[player, valid] = (
            alpha * instance.cost.row(player)[valid]
            + instance.max_social_cost[player]
        )
        idx = instance.neighbor_indices[player]
        np.subtract.at(
            table[player], assignment[idx],
            half * instance.neighbor_weights[player],
        )
    happy = table[np.arange(instance.n), assignment] <= table.min(axis=1) + tol
    happy[fixed] = True
    history: List[int] = []
    while True:
        deviations = 0
        for group in groups:
            for player in group:
                if happy[player]:
                    continue
                happy[player] = True
                current = int(assignment[player])
                best = int(table[player].argmin())
                if table[player, best] >= table[player, current] - tol:
                    continue
                assignment[player] = best
                deviations += 1
                friends = instance.neighbor_indices[player]
                for friend, weight in zip(
                    friends, instance.neighbor_weights[player]
                ):
                    table[friend, best] -= half * weight
                    table[friend, current] += half * weight
                    if not fixed[friend]:
                        happy[friend] = (
                            table[friend, assignment[friend]]
                            <= table[friend].min() + tol
                        )
        history.append(deviations)
        if deviations == 0:
            return assignment, history


def _sequential(instance, assignment, sweep, costs_of, fixed) -> List[int]:
    dirty = np.ones(instance.n, dtype=bool)
    dirty[fixed] = False
    history: List[int] = []
    while True:
        deviations = 0
        for player in sweep:
            if not dirty[player]:
                continue
            dirty[player] = False
            costs = costs_of(player)
            current = int(assignment[player])
            best = int(costs.argmin())
            if best != current and (
                costs[best] < costs[current] - dynamics.DEVIATION_TOLERANCE
            ):
                assignment[player] = best
                deviations += 1
                idx = instance.neighbor_indices[player]
                dirty[idx] = ~fixed[idx]
        history.append(deviations)
        if deviations == 0:
            return history


def oracle_se(instance, init, order, seed) -> Trajectory:
    rng = random.Random(seed)
    valid_classes, fixed_class, _ = oracle_plan(instance)
    assignment = dynamics.initial_assignment(instance, init, rng)
    fixed = fixed_class >= 0
    assignment[fixed] = fixed_class[fixed]
    sweep = [
        p for p in dynamics.player_order(instance, order, rng) if not fixed[p]
    ]

    def costs_of(player):
        valid = valid_classes[player]
        scratch = np.full(instance.k, np.inf)
        scratch[valid] = (
            instance.alpha * instance.cost.row(player)[valid]
            + instance.max_social_cost[player]
        )
        idx = instance.neighbor_indices[player]
        refund = (1.0 - instance.alpha) * 0.5 * instance.neighbor_weights[player]
        np.subtract.at(scratch, assignment[idx], refund)
        return scratch

    return assignment, _sequential(instance, assignment, sweep, costs_of, fixed)


def oracle_b(instance, init, order, seed) -> Trajectory:
    rng = random.Random(seed)
    assignment = dynamics.initial_assignment(instance, init, rng)
    sweep = dynamics.player_order(instance, order, rng)
    history = _sequential(
        instance, assignment, sweep,
        lambda player: player_strategy_costs(instance, assignment, player),
        np.zeros(instance.n, dtype=bool),
    )
    return assignment, history


ORACLES = {"b": oracle_b, "se": oracle_se, "is": oracle_is, "all": oracle_all}
FAMILIES = ("erdos_renyi", "barabasi_albert", "planted_partition")


def assert_matches(result, trajectory: Trajectory) -> None:
    assignment, history = trajectory
    np.testing.assert_array_equal(result.assignment, assignment)
    assert [r.deviations for r in result.rounds[1:]] == history
    assert result.num_rounds == len(history)
    assert result.converged


@pytest.mark.parametrize("preset", sorted(ORACLES))
@settings(max_examples=50, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.sampled_from([12, 24, 40]),
    k=st.integers(2, 5),
    alpha=st.sampled_from([0.2, 0.4, 0.5, 0.6, 0.8]),
    init=st.sampled_from(dynamics.INIT_METHODS),
    order=st.sampled_from(dynamics.ORDER_METHODS),
    seed=st.integers(0, 7),
)
def test_preset_matches_its_former_round(
    preset, family, n, k, alpha, init, order, seed
):
    instance = make_instance(family, n, k, alpha, seed)
    result = partition(
        instance, solver=preset, init=init, order=order, seed=seed
    )
    assert_matches(result, ORACLES[preset](instance, init, order, seed))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
def test_is_all_vec_share_one_trajectory(family, alpha):
    instance = make_instance(family, 60, 6, alpha, seed=3)
    runs = [partition(instance, solver=s, seed=3) for s in ("is", "all", "vec")]
    for other in runs[1:]:
        np.testing.assert_array_equal(other.assignment, runs[0].assignment)
        assert other.num_rounds == runs[0].num_rounds
        assert other.value == runs[0].value


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
def test_se_and_gt_share_one_trajectory(family, alpha):
    instance = make_instance(family, 60, 6, alpha, seed=3)
    se, gt = (partition(instance, solver=s, seed=3) for s in ("se", "gt"))
    np.testing.assert_array_equal(se.assignment, gt.assignment)
    assert se.num_rounds == gt.num_rounds
    assert se.value == gt.value
