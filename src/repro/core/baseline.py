"""RMGP_b — the baseline best-response algorithm (Figure 3).

Each round sweeps the *frontier* of players whose costs may have changed
and replaces each one's strategy with the class minimizing his Equation 3
cost against the *current* strategies of all other players; the algorithm
stops at the first round with no deviation, which by Theorem 1 is a pure
Nash equilibrium.  Round 1 examines everyone; afterwards only players
marked dirty by a friend's move are examined (see
:class:`repro.core.dynamics.ActiveSet` — the move sequence is provably
identical to the full sweep's).

The two heuristics evaluated in Section 6.3 are exposed as parameters:
``init="closest"`` is the ``+i`` variant and ``order="degree"`` adds the
``+o`` variant.
"""

from __future__ import annotations

import random
from typing import List, Optional, Union

import numpy as np

from repro.core import dynamics
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


def _solve_baseline(
    instance: RMGPInstance,
    init: str = "random",
    order: str = "random",
    seed: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
    reshuffle_each_round: bool = False,
    track_potential: bool = False,
    solver_name: Optional[str] = None,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from: Union[None, str, SolveCheckpoint] = None,
) -> PartitionResult:
    """Run RMGP_b on ``instance``.

    Parameters
    ----------
    init:
        ``"random"`` (Figure 3 line 2) or ``"closest"`` (minimum
        assignment cost, the ``+i`` heuristic).
    order:
        Player sweep order per round: ``"random"``, ``"given"`` or
        ``"degree"`` (the ``+o`` heuristic).
    seed:
        Seeds both initialization and ordering randomness.
    warm_start:
        Previous solution used as the seed assignment (overrides
        ``init``), supporting the paper's repeated-execution scenario.
    reshuffle_each_round:
        When ``order="random"``, draw a fresh permutation every round
        instead of reusing the first one.
    track_potential:
        Record ``Φ(S)`` after every round (used by analysis and tests;
        costs one extra objective evaluation per round).
    recorder:
        Telemetry sink; ``None`` uses the ambient recorder (a no-op
        unless inside :func:`repro.obs.recording`).
    budget:
        Optional :class:`~repro.runtime.budget.RuntimeBudget` checked at
        every round boundary; on a trip the solve returns its current
        (valid, anytime) assignment with ``stop_reason`` set instead of
        raising.
    checkpoint_every / checkpoint_path:
        Write a resumable :class:`~repro.runtime.checkpoint.SolveCheckpoint`
        to ``checkpoint_path`` every N completed rounds and at any
        interrupt point.
    resume_from:
        A checkpoint (path or object) to continue from; the resumed
        trajectory is byte-identical to the uninterrupted run.

    Returns
    -------
    PartitionResult
        With one :class:`RoundStats` for initialization (round 0) and one
        per best-response round.
    """
    rec = active_recorder(recorder)
    rng = random.Random(seed)
    clock = dynamics.RoundClock()

    name = solver_name or _variant_name(init, order)
    runtime = SolveRuntime.create(
        budget=budget,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        recorder=rec,
    )
    restored = load_resume(resume_from, instance, name, rec)
    with rec.span("solve", solver=name, n=instance.n, k=instance.k):
        base = strategy_cost_base(instance)
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
            with rec.span("round", round=0, phase="init"):
                assignment = dynamics.initial_assignment(
                    instance, init, rng, warm_start
                )
                sweep = dynamics.player_order(instance, order, rng)
            rounds = [
                RoundStats(
                    round_index=0,
                    deviations=0,
                    seconds=clock.lap(),
                    potential=(
                        potential(instance, assignment)
                        if track_potential
                        else None
                    ),
                )
            ]
            active = dynamics.ActiveSet(instance.n)
            round_index = 0

        def make_checkpoint() -> SolveCheckpoint:
            return SolveCheckpoint(
                solver=name,
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
            dynamics.check_round_budget(round_index, max_rounds, name)
            if reshuffle_each_round and order == "random":
                sweep = dynamics.player_order(instance, order, rng)
            with rec.span("round", round=round_index) as round_span:
                deviations, examined = best_response_round(
                    instance, assignment, sweep, active, base, refunds
                )
            rec.round_end(
                round_span, name, round_index,
                deviations=deviations,
                examined=examined,
                cost_evaluations=examined * instance.k,
                frontier_fn=active.count,
                potential_fn=lambda: potential(instance, assignment),
            )
            rounds.append(
                RoundStats(
                    round_index=round_index,
                    deviations=deviations,
                    seconds=clock.lap(),
                    potential=(
                        potential(instance, assignment)
                        if track_potential
                        else None
                    ),
                    players_examined=examined,
                )
            )
            converged = deviations == 0
            if runtime is not None and not converged:
                runtime.note_round(round_index, make_checkpoint)
        if runtime is not None:
            runtime.finalize(make_checkpoint)

    extra = {"init": init, "order": order}
    if not converged:
        extra["remaining_frontier"] = active.count()
    return make_result(
        solver=name,
        instance=instance,
        assignment=assignment,
        rounds=rounds,
        converged=converged,
        wall_seconds=clock.total(),
        extra=extra,
        stop_reason=runtime.stop_reason if runtime is not None else None,
    )


def best_response_round(
    instance: RMGPInstance,
    assignment: np.ndarray,
    sweep: List[int],
    active: dynamics.ActiveSet,
    base: np.ndarray,
    refunds: np.ndarray,
    fixed: Optional[np.ndarray] = None,
) -> tuple:
    """One frontier round of Figure 3 lines 5-13.

    Mutates ``assignment`` in place so later players in the sweep see the
    up-to-date strategies of earlier ones (sequential best response).
    Only dirty players are examined; a mover marks its CSR neighbor
    slice dirty (some of whom sit later in this very sweep, exactly as
    the full sweep would reach them), except the ``fixed`` players, who
    never move.  An examined player's costs are his row of ``base``
    (:func:`~repro.core.objective.strategy_cost_base`, ``+inf`` on
    pruned classes) minus his friends' ``refunds`` — the arithmetic of
    :func:`~repro.core.objective.player_strategy_costs`.  Returns
    ``(deviations, examined)``.
    """
    deviations = 0
    examined = 0
    tol = dynamics.DEVIATION_TOLERANCE
    flags = active.flags
    indptr = instance.indptr.tolist()
    indices = instance.indices
    for player in sweep:
        if not flags[player]:
            continue
        flags[player] = False
        examined += 1
        costs = base[player].copy()
        lo, hi = indptr[player], indptr[player + 1]
        friends = indices[lo:hi]
        np.subtract.at(costs, assignment[friends], refunds[lo:hi])
        current = int(assignment[player])
        best = int(costs.argmin())
        if best != current and costs[best] < costs[current] - tol:
            assignment[player] = best
            deviations += 1
            if fixed is None:
                flags[friends] = True
            else:
                flags[friends] = ~fixed[friends]
    return deviations, examined


def _variant_name(init: str, order: str) -> str:
    """Paper-style variant name: RMGP_b, RMGP_b+i, RMGP_b+i+o."""
    name = "RMGP_b"
    if init == "closest":
        name += "+i"
    if order == "degree":
        name += "+o"
    return name


# Legacy entry point(s), consolidated in repro.compat (removal: 2.0).
from repro.compat import solve_baseline  # noqa: E402
