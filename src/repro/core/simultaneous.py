"""Simultaneous (synchronous) best-response dynamics — a cautionary ablation.

Section 4.2 warns that sequential updates are "a fundamental requirement
in best response dynamics: if multiple players change strategies
simultaneously their decisions may be based on 'outdated' information and
there is the chance that the overall potential function increases."
RMGP_is sidesteps this with independent sets; this module implements the
naive synchronous dynamics the warning is about, so the effect can be
measured (see ``benchmarks/bench_ablations.py``):

* :func:`solve_simultaneous` — every player moves at once.  May
  oscillate (e.g. two friends swapping classes forever); terminates on a
  fixed point, a detected cycle, or the round budget, and reports whether
  the potential ever increased.
* ``damping`` — each deviating player actually moves only with
  probability ``damping``; for ``damping < 1`` oscillations break with
  probability 1 and the dynamics converge in practice.
"""

from __future__ import annotations

import random
from typing import List, Optional

import numpy as np

from repro.core import dynamics
from repro.core.instance import RMGPInstance
from repro.core.objective import player_strategy_costs, potential
from repro.core.result import PartitionResult, RoundStats, make_result
from repro.obs.recorder import Recorder, active_recorder
from repro.parallel.engine import engine_scope, make_engine
from repro.runtime.budget import RuntimeBudget
from repro.runtime.checkpoint import SolveCheckpoint, rounds_to_payload
from repro.runtime.executor import SolveRuntime, load_resume


def _solve_simultaneous(
    instance: RMGPInstance,
    init: str = "closest",
    seed: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
    max_rounds: int = 200,
    damping: float = 1.0,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
) -> PartitionResult:
    """Synchronous best-response dynamics.

    Unlike every other solver in this package, **convergence is not
    guaranteed** for ``damping=1.0``; the result's ``converged`` flag and
    ``extra`` diagnostics (``potential_increases``, ``cycle_detected``)
    tell what happened.  This exists to validate the paper's argument
    for sequential/independent-set updates, not for production use.

    ``players_examined`` is genuinely ``n`` every round here: synchronous
    dynamics best-respond against a full snapshot, so every player is
    re-evaluated each round — it is not a full-sweep *assumption*, it is
    the algorithm.

    Because Φ is *not* monotone here, an interrupted solve reports the
    **best assignment by Φ seen so far** (round 0 included) rather than
    the current state — that is the strongest anytime guarantee the
    synchronous ablation can offer.  The checkpoint still stores the
    current state, so a resume replays the exact trajectory.
    """
    if not 0.0 < damping <= 1.0:
        from repro.errors import ConfigurationError

        raise ConfigurationError(f"damping must be in (0, 1], got {damping}")
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
        resume_from, instance, "RMGP_sync", rec,
        state_keys=(
            "seen", "potential_increases", "last_potential",
            "best_assignment", "best_potential",
        ),
    )
    engine = None
    backend_info = {}
    if backend is not None or workers is not None:
        # Synchronous dynamics best-respond against a frozen snapshot, so
        # the whole population parallelizes trivially; the serial rng
        # draws (deviators in player order) stay with the master.
        engine, backend_info = make_engine(
            instance,
            backend=backend,
            workers=workers,
            recorder=rec,
            tol=dynamics.DEVIATION_TOLERANCE,
        )
    all_players = np.arange(instance.n, dtype=np.int64)
    with engine_scope(engine), rec.span(
        "solve", solver="RMGP_sync", n=instance.n, k=instance.k,
        damping=damping,
    ):
        if restored is not None:
            assignment = restored.assignment
            rounds: List[RoundStats] = restored.restored_rounds()
            seen_states = {
                bytes.fromhex(state) for state in restored.state["seen"]
            }
            potential_increases = int(restored.state["potential_increases"])
            last_potential = float(restored.state["last_potential"])
            best_assignment = restored.state["best_assignment"]
            best_potential = float(restored.state["best_potential"])
            if restored.rng_state is not None:
                rng.setstate(restored.rng_state)
            completed_round = restored.round_index
        else:
            with rec.span("round", round=0, phase="init"):
                assignment = dynamics.initial_assignment(
                    instance, init, rng, warm_start
                )
            rounds = [
                RoundStats(
                    0, 0, clock.lap(),
                    potential=potential(instance, assignment),
                )
            ]
            seen_states = {assignment.tobytes()}
            potential_increases = 0
            last_potential = rounds[0].potential or 0.0
            best_assignment = assignment.copy()
            best_potential = last_potential
            completed_round = 0
        cycle_detected = False
        converged = False

        def make_checkpoint() -> SolveCheckpoint:
            return SolveCheckpoint(
                solver="RMGP_sync",
                round_index=completed_round,
                assignment=assignment.copy(),
                frontier=np.zeros(0, dtype=bool),
                rng_state=rng.getstate(),
                rounds=rounds_to_payload(rounds),
                state={
                    "seen": [state.hex() for state in seen_states],
                    "potential_increases": potential_increases,
                    "last_potential": last_potential,
                    "best_assignment": best_assignment.copy(),
                    "best_potential": best_potential,
                },
                fingerprint=SolveCheckpoint.fingerprint_of(instance),
            )

        interrupted = False
        for round_index in range(completed_round + 1, max_rounds + 1):
            if runtime is not None and runtime.check(round_index):
                interrupted = True
                break
            # Everyone computes a best response against the same snapshot.
            # "deviations" counts players who *want* to move; damping only
            # suppresses the execution, never the convergence test —
            # otherwise an unlucky round of coin flips would end the game
            # at a non-equilibrium.
            with rec.span("round", round=round_index) as round_span:
                proposals = assignment.copy()
                deviations = 0
                if engine is not None:
                    movers, bests = engine.scalar_moves(
                        assignment, all_players
                    )
                    # Same rng stream as the serial loop: draws happen
                    # for deviators only, in ascending player order.
                    deviations = int(movers.size)
                    for player, best in zip(
                        movers.tolist(), bests.tolist()
                    ):
                        if rng.random() < damping:
                            proposals[player] = best
                else:
                    for player in range(instance.n):
                        costs = player_strategy_costs(
                            instance, assignment, player
                        )
                        current = int(assignment[player])
                        best = int(costs.argmin())
                        if (
                            best != current
                            and costs[best]
                            < costs[current] - dynamics.DEVIATION_TOLERANCE
                        ):
                            deviations += 1
                            if rng.random() < damping:
                                proposals[player] = best
                assignment = proposals
                phi = potential(instance, assignment)
            rec.round_end(
                round_span, "RMGP_sync", round_index,
                deviations=deviations,
                examined=instance.n,
                cost_evaluations=instance.n * instance.k,
                potential_fn=lambda: phi,
            )
            if phi > last_potential + 1e-12:
                potential_increases += 1
                rec.event(
                    "potential_increase", round=round_index,
                    delta=phi - last_potential,
                )
            last_potential = phi
            rounds.append(
                RoundStats(
                    round_index=round_index,
                    deviations=deviations,
                    seconds=clock.lap(),
                    potential=phi,
                    players_examined=instance.n,
                )
            )
            completed_round = round_index
            if phi < best_potential:
                best_potential = phi
                best_assignment = assignment.copy()
            if deviations == 0:
                converged = True
                break
            # Cycle detection only makes sense for deterministic
            # (undamped) dynamics; a damped walk may legitimately revisit
            # states.
            if damping >= 1.0:
                state = assignment.tobytes()
                if state in seen_states:
                    cycle_detected = True
                    rec.event("cycle_detected", round=round_index)
                    break
                seen_states.add(state)
            if runtime is not None:
                runtime.note_round(round_index, make_checkpoint)
        if runtime is not None:
            runtime.finalize(make_checkpoint)

    extra = {
        "potential_increases": potential_increases,
        "cycle_detected": cycle_detected,
        "damping": damping,
    }
    extra.update(backend_info)
    if interrupted:
        # Report the best-by-Φ state, not wherever the oscillation was.
        extra["reported_best_potential"] = best_potential
        final_assignment = best_assignment
    else:
        final_assignment = assignment
    return make_result(
        solver="RMGP_sync",
        instance=instance,
        assignment=final_assignment,
        rounds=rounds,
        converged=converged,
        wall_seconds=clock.total(),
        extra=extra,
        stop_reason=runtime.stop_reason if runtime is not None else None,
    )


# Legacy entry point(s), consolidated in repro.compat (removal: 2.0).
from repro.compat import solve_simultaneous  # noqa: E402
