"""Capacity-constrained RMGP — events with limited seats.

The paper's related work points at LAGP "assuming that events have
minimum and maximum participation constraints" (Section 2.1, [16]) and
leaves the combination with the game-theoretic framework open.  This
module adds both sides: *maximum* capacities inside the dynamics
(:func:`solve_capacitated`) and *minimum* participation via the
cancel-and-resolve loop of :func:`solve_with_minimums`.  The maximum
side works as follows:

* A class ``p`` with capacity ``cap_p`` can hold at most that many
  players; a player may deviate to ``p`` only while it has a free seat
  (or by improving within his current class).
* Every permitted deviation still strictly decreases the exact potential
  ``Φ`` — capacities only *restrict* the move set, they never create new
  moves — so best-response dynamics still terminate, now at a
  *capacitated equilibrium*: no player can improve by moving to a class
  with spare capacity.

Note the solution concept is weaker than an unconstrained Nash
equilibrium: profitable *swaps* between two players in full classes are
not explored (doing so is a different game).  :func:`capacity_violations`
and the equilibrium check below make the guarantee testable.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import dynamics
from repro.core.instance import RMGPInstance
from repro.core.objective import player_strategy_costs, potential
from repro.core.result import PartitionResult, RoundStats, make_result
from repro.errors import ConfigurationError, DataError
from repro.obs.recorder import Recorder, active_recorder
from repro.runtime.budget import RuntimeBudget
from repro.runtime.checkpoint import SolveCheckpoint, rounds_to_payload
from repro.runtime.executor import SolveRuntime, load_resume


def validate_capacities(
    instance: RMGPInstance, capacities: Sequence[int]
) -> np.ndarray:
    """Check shape and total feasibility; returns an int array."""
    caps = np.asarray(list(capacities), dtype=np.int64)
    if caps.shape != (instance.k,):
        raise ConfigurationError(
            f"need one capacity per class ({instance.k}), got {caps.shape}"
        )
    if (caps < 0).any():
        raise ConfigurationError("capacities must be non-negative")
    if caps.sum() < instance.n:
        raise ConfigurationError(
            f"total capacity {int(caps.sum())} cannot seat {instance.n} players"
        )
    return caps


def feasible_initial_assignment(
    instance: RMGPInstance,
    capacities: np.ndarray,
    rng: random.Random,
    init: str = "closest",
) -> np.ndarray:
    """Feasible start: players claim cheap seats greedily.

    With ``init="closest"`` players are processed in random order and
    take the cheapest class with a free seat; ``init="random"`` takes a
    random free class.
    """
    assignment = np.full(instance.n, -1, dtype=np.int64)
    load = np.zeros(instance.k, dtype=np.int64)
    order = list(range(instance.n))
    rng.shuffle(order)
    for player in order:
        if init == "closest":
            row = instance.cost.row(player)
            for klass in np.argsort(row, kind="stable"):
                if load[klass] < capacities[klass]:
                    assignment[player] = int(klass)
                    load[klass] += 1
                    break
        else:
            free = np.flatnonzero(load < capacities)
            klass = int(free[rng.randrange(len(free))])
            assignment[player] = klass
            load[klass] += 1
    return assignment


def _solve_capacitated(
    instance: RMGPInstance,
    capacities: Sequence[int],
    init: str = "closest",
    order: str = "degree",
    seed: Optional[int] = None,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
    _checkpoint_solver: str = "RMGP_cap",
    _extra_state: Optional[dict] = None,
) -> PartitionResult:
    """Best-response dynamics under per-class maximum capacities.

    Every round sweeps all ``n`` players — deliberately *not* the dirty
    frontier of the other solvers: seat availability is global state, so
    a "clean" player's best response can change when someone else frees
    a seat in a class he wants.  ``players_examined == n`` is therefore
    the true per-round work, not an unexamined assumption.

    ``_checkpoint_solver``/``_extra_state`` are internal hooks for
    :func:`solve_with_minimums`, which labels the checkpoints of its
    current stage as ``RMGP_minpart`` and rides its outer loop state
    (canceled classes, stage counters) along in them.
    """
    caps = validate_capacities(instance, capacities)
    rec = active_recorder(recorder)
    rng = random.Random(seed)
    clock = dynamics.RoundClock()

    runtime = SolveRuntime.create(
        budget=budget,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        recorder=rec,
    )
    restored = load_resume(
        resume_from, instance, _checkpoint_solver, rec,
        state_keys=("capacities", "sweep"),
    )
    with rec.span("solve", solver="RMGP_cap", n=instance.n, k=instance.k):
        if restored is not None:
            stored_caps = np.asarray(
                restored.state["capacities"], dtype=np.int64
            )
            if not np.array_equal(stored_caps, caps):
                raise DataError(
                    "checkpoint was taken under different capacities "
                    f"({stored_caps.tolist()} vs {caps.tolist()})"
                )
            assignment = restored.assignment
            load = np.bincount(assignment, minlength=instance.k)
            sweep = [int(p) for p in restored.state["sweep"]]
            if restored.rng_state is not None:
                rng.setstate(restored.rng_state)
            rounds: List[RoundStats] = restored.restored_rounds()
            round_index = restored.round_index
        else:
            with rec.span("round", round=0, phase="init"):
                assignment = feasible_initial_assignment(
                    instance, caps, rng, init
                )
                load = np.bincount(assignment, minlength=instance.k)
                sweep = dynamics.player_order(instance, order, rng)
            rounds = [RoundStats(0, 0, clock.lap())]
            round_index = 0

        def make_checkpoint() -> SolveCheckpoint:
            state = {
                "sweep": [int(p) for p in sweep],
                "capacities": caps.copy(),
            }
            if _extra_state:
                state.update(_extra_state)
            return SolveCheckpoint(
                solver=_checkpoint_solver,
                round_index=round_index,
                assignment=assignment.copy(),
                frontier=np.zeros(0, dtype=bool),
                rng_state=rng.getstate(),
                rounds=rounds_to_payload(rounds),
                state=state,
                fingerprint=SolveCheckpoint.fingerprint_of(instance),
            )

        tol = dynamics.DEVIATION_TOLERANCE
        converged = False
        while not converged:
            if runtime is not None and runtime.check(round_index + 1):
                break
            round_index += 1
            dynamics.check_round_budget(round_index, max_rounds, "RMGP_cap")
            deviations = 0
            with rec.span("round", round=round_index) as round_span:
                for player in sweep:
                    costs = player_strategy_costs(
                        instance, assignment, player
                    )
                    current = int(assignment[player])
                    # Only classes with a free seat (or the current one)
                    # are open.
                    open_classes = (load < caps) | (
                        np.arange(instance.k) == current
                    )
                    costs[~open_classes] = np.inf
                    best = int(costs.argmin())
                    if best != current and costs[best] < costs[current] - tol:
                        assignment[player] = best
                        load[current] -= 1
                        load[best] += 1
                        deviations += 1
            rec.round_end(
                round_span, "RMGP_cap", round_index,
                deviations=deviations,
                examined=instance.n,
                cost_evaluations=instance.n * instance.k,
                potential_fn=lambda: potential(instance, assignment),
            )
            rounds.append(
                RoundStats(
                    round_index=round_index,
                    deviations=deviations,
                    seconds=clock.lap(),
                    players_examined=instance.n,
                )
            )
            converged = deviations == 0
            if runtime is not None and not converged:
                runtime.note_round(round_index, make_checkpoint)
        if runtime is not None:
            runtime.finalize(make_checkpoint)

    return make_result(
        solver="RMGP_cap",
        instance=instance,
        assignment=assignment,
        rounds=rounds,
        converged=converged,
        wall_seconds=clock.total(),
        extra={
            "capacities": caps.tolist(),
            "loads": np.bincount(assignment, minlength=instance.k).tolist(),
        },
        stop_reason=runtime.stop_reason if runtime is not None else None,
    )


def _solve_with_minimums(
    instance: RMGPInstance,
    min_participants: int,
    capacities: Optional[Sequence[int]] = None,
    init: str = "closest",
    order: str = "degree",
    seed: Optional[int] = None,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
) -> PartitionResult:
    """RMGP with *minimum* participation: undersubscribed events cancel.

    The related work the paper cites ([16], Section 2.1) studies LAGP
    where "events that cannot reach the minimum number of participants
    are canceled".  This solver composes that semantics with the game:

    1. solve (optionally under maximum ``capacities``),
    2. cancel the non-empty class with the fewest attendees if it has
       fewer than ``min_participants``,
    3. re-solve over the surviving classes, and repeat.

    Terminates after at most ``k − 1`` cancellations.  The result's
    assignment is over the *original* class indices; canceled classes end
    up empty, and ``extra["canceled"]`` lists them in cancellation order.

    The returned result's ``wall_seconds`` covers the *entire*
    cancel-and-resolve loop and ``extra["rounds_total"]`` sums the rounds
    of every re-solve; ``rounds`` (the per-round stats) describe the
    final re-solve only.

    Real-time semantics: the ``budget`` spans the whole cancel-and-
    resolve composition (each stage polls it at its round boundaries),
    and checkpoints are written by the *current stage* with the outer
    loop state riding along — resuming restarts mid-stage exactly where
    the interrupt landed.
    """
    if min_participants < 0:
        raise ConfigurationError("min_participants must be non-negative")
    if capacities is not None:
        caps = validate_capacities(instance, capacities)
    else:
        caps = np.full(instance.k, instance.n, dtype=np.int64)

    rec = active_recorder(recorder)
    loop_clock = dynamics.RoundClock()
    restored = load_resume(
        resume_from, instance, "RMGP_minpart", rec,
        state_keys=(
            "minpart_active", "minpart_canceled", "minpart_rounds_total"
        ),
    )
    if restored is not None:
        active = np.asarray(
            restored.state["minpart_active"], dtype=bool
        ).copy()
        canceled = [int(klass) for klass in restored.state["minpart_canceled"]]
        rounds_total = int(restored.state["minpart_rounds_total"])
    else:
        active = np.ones(instance.k, dtype=bool)
        canceled = []
        rounds_total = 0
    stage_resume = restored
    clock_rng_seed = seed
    with rec.span(
        "solve", solver="RMGP_minpart", n=instance.n, k=instance.k
    ):
        while True:
            effective = caps.copy()
            effective[~active] = 0
            if int(effective.sum()) < instance.n:
                raise ConfigurationError(
                    "cancellations left too few seats for the players; "
                    "lower min_participants or raise capacities"
                )
            result = _solve_capacitated(
                instance, effective, init=init, order=order,
                seed=clock_rng_seed, recorder=rec,
                budget=budget,
                checkpoint_every=checkpoint_every,
                checkpoint_path=checkpoint_path,
                resume_from=stage_resume,
                _checkpoint_solver="RMGP_minpart",
                _extra_state={
                    "minpart_active": active.copy(),
                    "minpart_canceled": list(canceled),
                    "minpart_rounds_total": rounds_total,
                },
            )
            stage_resume = None
            rounds_total += result.num_rounds
            if result.stop_reason in ("deadline", "cancelled"):
                # Budget tripped mid-stage: degrade gracefully with the
                # stage's current (valid, capacity-feasible) assignment.
                result.extra["canceled"] = canceled
                result.extra["rounds_total"] = rounds_total
                result.solver = "RMGP_minpart"
                result.wall_seconds = loop_clock.total()
                return result
            loads = np.bincount(result.assignment, minlength=instance.k)
            under = [
                klass
                for klass in range(instance.k)
                if active[klass] and 0 < loads[klass] < min_participants
            ]
            if not under:
                result.extra["canceled"] = canceled
                result.extra["rounds_total"] = rounds_total
                result.solver = "RMGP_minpart"
                # The per-solve timer only saw the final re-solve; the
                # contract says wall_seconds covers the whole call.
                result.wall_seconds = loop_clock.total()
                return result
            # Cancel the weakest event first, as organizers would.
            weakest = min(under, key=lambda klass: loads[klass])
            active[weakest] = False
            canceled.append(weakest)
            rec.event(
                "class_canceled", klass=weakest, load=int(loads[weakest])
            )
            rec.count("class.cancellations", 1, solver="RMGP_minpart")


def capacity_violations(
    assignment: np.ndarray, capacities: Sequence[int]
) -> Dict[int, int]:
    """Overloaded classes: class index -> players above capacity."""
    caps = np.asarray(list(capacities), dtype=np.int64)
    load = np.bincount(np.asarray(assignment), minlength=len(caps))
    return {
        int(klass): int(load[klass] - caps[klass])
        for klass in range(len(caps))
        if load[klass] > caps[klass]
    }


def is_capacitated_equilibrium(
    instance: RMGPInstance,
    assignment: np.ndarray,
    capacities: Sequence[int],
    tolerance: float = 1e-9,
) -> bool:
    """No player can improve by moving to a class with a free seat."""
    caps = validate_capacities(instance, capacities)
    assignment = np.asarray(assignment)
    load = np.bincount(assignment, minlength=instance.k)
    if capacity_violations(assignment, caps):
        return False
    for player in range(instance.n):
        costs = player_strategy_costs(instance, assignment, player)
        current = int(assignment[player])
        open_classes = (load < caps) | (np.arange(instance.k) == current)
        costs[~open_classes] = np.inf
        if costs.min() < costs[current] - tolerance:
            return False
    return True


# Legacy entry point(s), consolidated in repro.compat (removal: 2.0).
from repro.compat import solve_capacitated, solve_with_minimums  # noqa: E402
