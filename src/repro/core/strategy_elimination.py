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
bound, an ``n x k`` validity mask).  Rounds follow RMGP_b's sequential
frontier schedule (:func:`repro.core.baseline.best_response_round`) on a
base cost matrix whose pruned entries are ``+inf``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np

from repro.core import dynamics
from repro.core.baseline import best_response_round
from repro.core.instance import RMGPInstance
from repro.core.objective import (
    potential,
    strategy_cost_base,
    strategy_refunds,
)
from repro.core.result import PartitionResult, RoundStats, make_result
from repro.obs.recorder import Recorder, active_recorder
from repro.runtime.budget import RuntimeBudget
from repro.runtime.checkpoint import SolveCheckpoint, rounds_to_payload
from repro.runtime.executor import SolveRuntime, load_resume


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
    instance; by default it is built during round 0 (and its time is
    charged there, as in Figure 12(c)).  Checkpoints do not serialize
    the plan — it is a pure, deterministic function of the instance and
    is rebuilt on resume.
    """
    rec = active_recorder(recorder)
    rng = random.Random(seed)
    clock = dynamics.RoundClock()

    runtime = SolveRuntime.create(
        budget=budget,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        recorder=rec,
    )
    restored = load_resume(resume_from, instance, "RMGP_se", rec)
    with rec.span("solve", solver="RMGP_se", n=instance.n, k=instance.k):
        if plan is None:
            with rec.span("build_plan"):
                plan = build_elimination_plan(instance)
        # Fixed players are assigned immediately and leave the game.
        fixed_mask = plan.fixed_class >= 0
        base = strategy_cost_base(instance)
        base[~plan.valid] = np.inf
        refunds = strategy_refunds(instance)
        if restored is not None:
            assignment = restored.assignment
            sweep = [int(p) for p in restored.state["sweep"]]
            active = dynamics.ActiveSet(instance.n, dirty=restored.frontier)
            if restored.rng_state is not None:
                rng.setstate(restored.rng_state)
            rounds: List[RoundStats] = restored.restored_rounds()
            round_index = restored.round_index
        else:
            with rec.span("round", round=0, phase="init") as init_span:
                assignment = dynamics.initial_assignment(
                    instance, init, rng, warm_start
                )
                assignment[fixed_mask] = plan.fixed_class[fixed_mask]
                sweep = [
                    p
                    for p in dynamics.player_order(instance, order, rng)
                    if not fixed_mask[p]
                ]
                # Frontier scheduling over the free players only: fixed
                # players never move, so they never need re-examination, and
                # a mover's clean neighbors are re-marked exactly as in
                # RMGP_b — the move sequence is identical to the full sweep.
                active = dynamics.ActiveSet(instance.n)
                active.flags[fixed_mask] = False
                if init_span is not None:
                    init_span.attrs["num_fixed"] = plan.num_fixed
            rounds = [
                RoundStats(round_index=0, deviations=0, seconds=clock.lap())
            ]
            round_index = 0

        def make_checkpoint() -> SolveCheckpoint:
            return SolveCheckpoint(
                solver="RMGP_se",
                round_index=round_index,
                assignment=assignment.copy(),
                frontier=active.flags.copy(),
                rng_state=rng.getstate(),
                rounds=rounds_to_payload(rounds),
                state={"sweep": [int(p) for p in sweep]},
                fingerprint=SolveCheckpoint.fingerprint_of(instance),
            )

        converged = False
        while not converged:
            if runtime is not None and runtime.check(round_index + 1):
                break
            round_index += 1
            dynamics.check_round_budget(round_index, max_rounds, "RMGP_se")
            with rec.span("round", round=round_index) as round_span:
                deviations, examined = best_response_round(
                    instance, assignment, sweep, active, base, refunds,
                    fixed_mask,
                )
            rec.round_end(
                round_span, "RMGP_se", round_index,
                deviations=deviations,
                examined=examined,
                # Only the reduced strategy spaces are scanned (Eq. 3 on
                # |S'_v| classes, amortized as the mean reduced size).
                cost_evaluations=(
                    examined * plan.strategies_remaining() // max(instance.n, 1)
                ),
                frontier_fn=active.count,
                potential_fn=lambda: potential(instance, assignment),
            )
            rounds.append(
                RoundStats(
                    round_index=round_index,
                    deviations=deviations,
                    seconds=clock.lap(),
                    players_examined=examined,
                )
            )
            converged = deviations == 0
            if runtime is not None and not converged:
                runtime.note_round(round_index, make_checkpoint)
        if runtime is not None:
            runtime.finalize(make_checkpoint)

    extra = {
        "num_fixed": plan.num_fixed,
        "strategies_remaining": plan.strategies_remaining(),
        "strategies_total": instance.n * instance.k,
    }
    if not converged:
        extra["remaining_frontier"] = active.count()
    return make_result(
        solver="RMGP_se",
        instance=instance,
        assignment=assignment,
        rounds=rounds,
        converged=converged,
        wall_seconds=clock.total(),
        extra=extra,
        stop_reason=runtime.stop_reason if runtime is not None else None,
    )


# Legacy entry point(s), consolidated in repro.compat (removal: 2.0).
from repro.compat import solve_strategy_elimination  # noqa: E402
