"""RMGP_all — all three optimizations composed (Section 6.3).

"The proposed optimizations are orthogonal and can be applied in any
combination" (Section 4); RMGP_all applies all of them on the batched
color-group engine of :mod:`repro.core.vectorized`:

* **strategy elimination** — each player's strategy space is reduced to
  ``S'_v`` (pruned classes cost ``+inf`` in the batch base costs), and
  single-strategy players are fixed up front and leave the groups;
* **global table** — only players whose costs may have changed are
  examined: the dirty frontier marks exactly the players a table update
  would touch, and recomputing an examined player's costs is the same
  O(deg) work the table's refund updates pay;
* **independent strategies** — rounds sweep color groups, each group's
  dirty members evaluated as one batch (the group structure is also what
  the decentralized game of Section 5 distributes across slaves).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import dynamics
from repro.core.instance import RMGPInstance
from repro.core.result import PartitionResult
from repro.core.strategy_elimination import (
    EliminationPlan,
    build_elimination_plan,
)
from repro.core.vectorized import draw_order, groups_from_coloring, run_batched
from repro.obs.recorder import Recorder, active_recorder
from repro.runtime.budget import RuntimeBudget


def _solve_all(
    instance: RMGPInstance,
    init: str = "closest",
    order: str = "degree",
    seed: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
    coloring: Optional[Dict] = None,
    plan: Optional[EliminationPlan] = None,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
) -> PartitionResult:
    """Run RMGP_all on ``instance``.

    Round 0 covers valid-region computation, initial assignment,
    ordering and batch construction, matching the paper's accounting of
    the expensive initialization step (Figure 12(c)).  The checkpoint
    stores the groups, as RMGP_vec's does; the elimination plan is
    deterministic and rebuilt on resume.
    """
    rec = active_recorder(recorder)
    rng = random.Random(seed)
    clock = dynamics.RoundClock()
    if plan is None:
        with rec.span("build_plan"):
            plan = build_elimination_plan(instance)
    fixed = plan.fixed_class >= 0

    def start() -> Tuple[List[List[int]], np.ndarray]:
        assignment = dynamics.initial_assignment(
            instance, init, rng, warm_start
        )
        assignment[fixed] = plan.fixed_class[fixed]
        groups = groups_from_coloring(instance, coloring)
        draw_order(instance, order, rng)
        groups = [[p for p in group if not fixed[p]] for group in groups]
        return [g for g in groups if g], assignment

    run = run_batched(
        instance, "RMGP_all", start, rng, clock, rec,
        max_rounds=max_rounds,
        valid=plan.valid,
        fixed=fixed,
        budget=budget,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )
    return run.result(
        instance,
        {
            "num_fixed": plan.num_fixed,
            "num_groups": len(run.groups),
            "strategies_remaining": plan.strategies_remaining(),
        },
    )


# Legacy entry point(s), consolidated in repro.compat (removal: 2.0).
from repro.compat import solve_all  # noqa: E402
