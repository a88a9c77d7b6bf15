"""RMGP_se — pruning by strategy elimination (Section 4.1).

For each player ``v`` the *valid region* bounds the assignment cost of
any strategy he could ever follow:

    VR_v = c(v, s_min) + ((1 − α)/α) · W_v

where ``s_min`` is his cheapest class and ``W_v = Σ_f ½·w(v, f)``.  Any
class whose assignment cost exceeds ``VR_v`` can never beat ``s_min``
even if *all* friends joined it, so it is pruned from ``S_v``.  A player
left with a single valid strategy is assigned directly and removed from
the game.  Best responses are never pruned, so convergence and quality
guarantees carry over unchanged.

The plan is one pass over the dense cost matrix (a row minimum, the
bound, an ``n x k`` validity mask).  Rounds run on the sequential engine
(:func:`repro.core.global_table.run_sequential`) over a global table
whose pruned entries are ``+inf``; fixed players never enter the sweep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np

from repro.core import dynamics
from repro.core.global_table import run_sequential
from repro.core.instance import RMGPInstance
from repro.core.result import PartitionResult
from repro.obs.recorder import Recorder, active_recorder
from repro.runtime.budget import RuntimeBudget


@dataclass
class EliminationPlan:
    """Pre-computed reduced strategy spaces for one instance.

    Attributes
    ----------
    valid:
        ``n x k`` boolean mask of ``S'_v`` (row ``v``, column ``p``).
    fixed_class:
        Per player, the forced class when ``|S'_v| == 1``, else ``-1``.
    valid_regions:
        The ``VR_v`` bound per player.
    """

    valid: np.ndarray
    fixed_class: np.ndarray
    valid_regions: np.ndarray

    @cached_property
    def valid_classes(self) -> List[np.ndarray]:
        """Per player, a sorted int array of the classes in ``S'_v``."""
        if not len(self.valid):
            return []
        _, classes = np.nonzero(self.valid)
        return np.split(classes, np.cumsum(self.valid.sum(axis=1))[:-1])

    @property
    def num_fixed(self) -> int:
        """Players removed from the game entirely."""
        return int((self.fixed_class >= 0).sum())

    def strategies_remaining(self) -> int:
        """Total size of all reduced strategy spaces."""
        return int(self.valid.sum())


def build_elimination_plan(instance: RMGPInstance) -> EliminationPlan:
    """Compute ``VR_v`` and ``S'_v`` for every player (initialization step)."""
    alpha = instance.alpha
    ratio = (1.0 - alpha) / alpha
    costs = instance.cost.dense()
    regions = costs.min(axis=1) + ratio * instance.half_strength
    # Keep classes whose best case (all friends co-located) can still
    # match the worst case of the cheapest class.
    valid = costs <= (regions + dynamics.DEVIATION_TOLERANCE)[:, None]
    fixed = np.where(valid.sum(axis=1) == 1, valid.argmax(axis=1), -1)
    return EliminationPlan(valid, fixed.astype(np.int64), regions)


def _solve_strategy_elimination(
    instance: RMGPInstance,
    init: str = "closest",
    order: str = "degree",
    seed: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
    plan: Optional[EliminationPlan] = None,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
) -> PartitionResult:
    """Run RMGP_se: Figure 3 dynamics over reduced strategy spaces.

    ``plan`` may be supplied to reuse a pre-computed
    :class:`EliminationPlan` across repeated queries on the same
    instance; by default it is built first (and its time is charged to
    round 0, as in Figure 12(c)).  Checkpoints do not serialize the plan
    — it is a pure, deterministic function of the instance and is
    rebuilt on resume.
    """
    rec = active_recorder(recorder)
    rng = random.Random(seed)
    clock = dynamics.RoundClock()
    if plan is None:
        with rec.span("build_plan"):
            plan = build_elimination_plan(instance)
    return run_sequential(
        instance, "RMGP_se", rng, clock, rec, init, order,
        warm_start=warm_start,
        max_rounds=max_rounds,
        plan=plan,
        extra={
            "num_fixed": plan.num_fixed,
            "strategies_remaining": plan.strategies_remaining(),
            "strategies_total": instance.n * instance.k,
        },
        budget=budget,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )


# Legacy entry point(s), consolidated in repro.compat (removal: 2.0).
from repro.compat import solve_strategy_elimination  # noqa: E402
