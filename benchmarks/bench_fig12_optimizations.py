"""Figure 12: the optimizations (se, is, gt, all) in the centralized game.

(a) running time vs k, (b) vs alpha, (c) per-round decomposition.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    gowalla_dataset,
    run_fig12_per_round,
    run_fig12_vs_alpha,
    run_fig12_vs_k,
)
from repro.bench.harness import full_scale
from repro.bench.workloads import instance_for
from repro.core import (
    solve_all,
    solve_baseline,
    solve_global_table,
    solve_independent_sets,
    solve_strategy_elimination,
)
from repro.core.normalization import normalize


@pytest.fixture(scope="module")
def fig12_instance():
    dataset = gowalla_dataset(seed=0)
    instance = instance_for(dataset, num_events=32, seed=0)
    normalized, _ = normalize(instance, "pessimistic")
    return normalized


def test_fig12_baseline_speed(benchmark, fig12_instance):
    result = benchmark(
        lambda: solve_baseline(fig12_instance, init="closest", order="degree", seed=0)
    )
    assert result.converged


def test_fig12_se_speed(benchmark, fig12_instance):
    result = benchmark(lambda: solve_strategy_elimination(fig12_instance, seed=0))
    assert result.converged


def test_fig12_is_speed(benchmark, fig12_instance):
    result = benchmark(lambda: solve_independent_sets(fig12_instance, seed=0))
    assert result.converged


def test_fig12_gt_speed(benchmark, fig12_instance):
    result = benchmark(lambda: solve_global_table(fig12_instance, seed=0))
    assert result.converged


def test_fig12_all_speed(benchmark, fig12_instance):
    result = benchmark(lambda: solve_all(fig12_instance, seed=0))
    assert result.converged


def test_fig12a_table(benchmark, emit):
    table = benchmark.pedantic(lambda: run_fig12_vs_k(seed=0), rounds=1, iterations=1)
    emit(table)
    # The paper's headline is that gt is the best single optimization.
    # Here b+i+o runs the sequential table engine under gt's defaults
    # (the same trajectory, pinned in tests/core/test_preset_identity.py),
    # so the two columns time one computation and are not compared.
    # RMGP_all pays fixed round-0 overheads (coloring, valid regions,
    # batch construction) that only amortize once k/|V| grow, so it is
    # asserted at the sweep's largest k at paper scale.
    if full_scale():
        largest = max(table.rows, key=lambda r: r["k"])
        assert largest["RMGP_all_ms"] < largest["RMGP_b+i+o_ms"], largest


def test_fig12b_table(benchmark, emit):
    table = benchmark.pedantic(
        lambda: run_fig12_vs_alpha(seed=0), rounds=1, iterations=1
    )
    emit(table)
    assert len(table.rows) >= 3


def test_fig12c_per_round(benchmark, emit):
    table = benchmark.pedantic(
        lambda: run_fig12_per_round(seed=0), rounds=1, iterations=1
    )
    emit(table)
    gt = [row.get("RMGP_gt_ms") for row in table.rows if row.get("RMGP_gt_ms")]
    # gt's per-round cost decays: the last best-response round is cheaper
    # than the first one (only unhappy users are examined).
    if len(gt) > 2:
        assert gt[-1] <= gt[1] * 1.5
