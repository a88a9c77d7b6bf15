"""The paper's contribution: the RMGP game and its algorithm variants."""

from repro.core.analysis import (
    ClassProfile,
    ConvergenceReport,
    DeviationEvent,
    assignment_diff,
    class_profiles,
    convergence_report,
    potential_trace,
    quality_summary,
)
from repro.core.baseline import solve_baseline
from repro.core.capacitated import (
    capacity_violations,
    is_capacitated_equilibrium,
    solve_capacitated,
    solve_with_minimums,
)
from repro.core.combined import solve_all
from repro.core.costs import (
    CombinedCost,
    CostProvider,
    FunctionCost,
    MatrixCost,
    ScaledCost,
    as_cost_provider,
)
from repro.core.dynamics import initial_assignment, player_order
from repro.core.equilibrium import (
    EquilibriumReport,
    anarchy_gap,
    equilibrium_report,
    is_nash_equilibrium,
    price_of_anarchy_bound,
    price_of_stability_bound,
    round_bound,
)
from repro.core.game import SOLVERS, RMGPGame
from repro.core.global_table import (
    build_global_table,
    happiness,
    solve_global_table,
)
from repro.core.independent_sets import solve_independent_sets
from repro.core.instance import RMGPInstance
from repro.core.normalization import (
    NormalizationEstimate,
    average_median_cost,
    average_min_cost,
    estimate_cn,
    exact_cn,
    normalize,
    normalize_with_constant,
)
from repro.core.objective import (
    ObjectiveValue,
    assignment_cost_sum,
    best_response,
    objective,
    player_cost,
    player_strategy_costs,
    potential,
    social_cost_sum,
    total_player_cost,
)
from repro.core.incremental import IncrementalRMGP
from repro.core.priority import solve_max_gain
from repro.core.result import PartitionResult, RoundStats, make_result
from repro.core.serialize import load_assignment, load_labels, save_result
from repro.core.simultaneous import solve_simultaneous
from repro.core.strategy_elimination import (
    EliminationPlan,
    build_elimination_plan,
    solve_strategy_elimination,
)
from repro.core.vectorized import groups_from_coloring, solve_vectorized

__all__ = [
    "ClassProfile",
    "CombinedCost",
    "ConvergenceReport",
    "DeviationEvent",
    "assignment_diff",
    "class_profiles",
    "convergence_report",
    "potential_trace",
    "quality_summary",
    "CostProvider",
    "EliminationPlan",
    "EquilibriumReport",
    "FunctionCost",
    "IncrementalRMGP",
    "MatrixCost",
    "NormalizationEstimate",
    "ObjectiveValue",
    "PartitionResult",
    "RMGPGame",
    "RMGPInstance",
    "RoundStats",
    "SOLVERS",
    "ScaledCost",
    "anarchy_gap",
    "as_cost_provider",
    "assignment_cost_sum",
    "average_median_cost",
    "average_min_cost",
    "best_response",
    "build_elimination_plan",
    "build_global_table",
    "capacity_violations",
    "is_capacitated_equilibrium",
    "equilibrium_report",
    "estimate_cn",
    "exact_cn",
    "groups_from_coloring",
    "happiness",
    "initial_assignment",
    "is_nash_equilibrium",
    "load_assignment",
    "load_labels",
    "make_result",
    "save_result",
    "normalize",
    "normalize_with_constant",
    "objective",
    "player_cost",
    "player_order",
    "player_strategy_costs",
    "potential",
    "price_of_anarchy_bound",
    "price_of_stability_bound",
    "round_bound",
    "social_cost_sum",
    "solve_all",
    "solve_baseline",
    "solve_capacitated",
    "solve_global_table",
    "solve_max_gain",
    "solve_with_minimums",
    "solve_simultaneous",
    "solve_vectorized",
    "solve_independent_sets",
    "solve_strategy_elimination",
    "total_player_cost",
]
