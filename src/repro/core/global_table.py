"""The sequential best-response engine over a global table (Section 4.3).

A ``|V| x k`` table holds, for every player, the current total cost of
every strategy (Figure 5).  It is built in one shot from the instance's
CSR adjacency (a single ``np.bincount`` scatter of all edge refunds), and
the round loop runs on the shared dirty-frontier scheduler
(:class:`repro.core.dynamics.ActiveSet`): a round only examines dirty
players, each with one row argmin, and when a player deviates he
notifies his friends — exactly two of each friend's table entries change
(the old and new class), one vectorized fancy-index update per move —
and marks them dirty.  The per-round cost therefore shrinks as the game
approaches equilibrium (Figure 12(c)).

:func:`run_sequential` is the one engine behind the three sequential
presets; they differ only in what they pass in:

* RMGP_gt — the plain table;
* RMGP_se (:mod:`repro.core.strategy_elimination`) — the table with
  ``+inf`` on the classes its elimination plan pruned; single-strategy
  players are pre-assigned, left out of the sweep and never marked dirty;
* RMGP_b (:mod:`repro.core.baseline`) — Figure 3's random init/order
  defaults, optional per-round reshuffling and potential tracking.

The table costs O(|V|·k) memory.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core import dynamics
from repro.core.instance import RMGPInstance
from repro.core.objective import potential, strategy_cost_base
from repro.core.result import PartitionResult, RoundStats, make_result
from repro.obs.recorder import Recorder, active_recorder
from repro.parallel.engine import ShmEngine, make_engine
from repro.runtime.budget import RuntimeBudget
from repro.runtime.checkpoint import SolveCheckpoint, rounds_to_payload
from repro.runtime.executor import SolveRuntime, load_resume

if TYPE_CHECKING:
    from repro.core.strategy_elimination import EliminationPlan


def build_global_table(
    instance: RMGPInstance, assignment: np.ndarray
) -> np.ndarray:
    """The ``|V| x k`` table ``GT[v][p] = C_v(p, π_v)`` (Figure 5 lines 3-5).

    One dense pass: ``α·C + maxSC[:, None]`` minus a single bincount
    scatter of every refund ``(1 − α)·½·w`` onto the linearized
    ``(owner, friend's class)`` keys — no per-player Python loop.
    """
    n, k = instance.n, instance.k
    table = strategy_cost_base(instance)
    if instance.indices.size:
        assignment = np.asarray(assignment, dtype=np.int64)
        refunds = (1.0 - instance.alpha) * instance.half_weights
        keys = instance.edge_owner * k + assignment[instance.indices]
        table -= np.bincount(keys, weights=refunds, minlength=n * k).reshape(
            n, k
        )
    return table


def happiness(table: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Boolean flags: player's current strategy is within tolerance of best."""
    n = table.shape[0]
    current = table[np.arange(n), assignment]
    return current <= table.min(axis=1) + dynamics.DEVIATION_TOLERANCE


def table_round(
    instance: RMGPInstance,
    table: np.ndarray,
    assignment: np.ndarray,
    active: dynamics.ActiveSet,
    sweep: Iterable[int],
    free: Optional[np.ndarray] = None,
) -> Tuple[int, int]:
    """One frontier round of table-driven best responses (Figure 5 lines 6-15).

    The only sequential round in the repo: every sequential preset and
    :class:`repro.core.incremental.IncrementalRMGP` replay it.  Mutates
    ``assignment`` in place, so later players in the sweep see the moves
    of earlier ones.  With ``free`` given, a mover marks only his friends
    in ``free`` dirty (players outside it never move).  Returns
    ``(deviations, players_examined)``.
    """
    deviations = 0
    examined = 0
    half = (1.0 - instance.alpha) * 0.5
    tol = dynamics.DEVIATION_TOLERANCE
    flags = active.flags
    neighbor_views = instance.neighbor_indices
    weight_views = instance.neighbor_weights
    # One class's entries across all players; a 1-D fancy update on a
    # column view costs less than half of the 2-D ``table[idx, p]`` form.
    columns = table.T
    for player in sweep:
        if not flags[player]:
            continue
        flags[player] = False
        examined += 1
        row = table[player]
        current = int(assignment[player])
        best = int(row.argmin())
        if row[best] >= row[current] - tol:
            continue
        # Deviate and notify friends (Figure 5 lines 10-15): two entries
        # of each friend's row move by ½·w, one vectorized update each.
        assignment[player] = best
        deviations += 1
        idx = neighbor_views[player]
        if idx.size:
            deltas = half * weight_views[player]
            column = columns[best]
            column[idx] -= deltas
            column = columns[current]
            column[idx] += deltas
            # Players outside ``free`` are never dirty, so assigning the
            # mask raises exactly the free friends' flags.
            flags[idx] = True if free is None else free[idx]
    return deviations, examined


def run_sequential(
    instance: RMGPInstance,
    solver: str,
    rng: random.Random,
    clock: dynamics.RoundClock,
    rec: Recorder,
    init: str,
    order: str,
    warm_start: Optional[np.ndarray] = None,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
    plan: Optional["EliminationPlan"] = None,
    reshuffle_each_round: bool = False,
    track_potential: bool = False,
    engine: Optional[ShmEngine] = None,
    extra: Optional[Dict] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
) -> PartitionResult:
    """Sequential table-driven best-response rounds to a fixed point.

    Round 0 draws the initial profile and then the sweep order from
    ``rng`` and builds the table (on ``engine``'s worker pool when one
    is given — the sweep itself is inherently serial, so the pool is
    released right after).  The initial frontier is every player not
    provably happy, matching Figure 5's first pass.

    ``plan`` is an :class:`~repro.core.strategy_elimination.EliminationPlan`:
    its pruned classes cost ``+inf`` and its fixed players are assigned
    their class, left out of the sweep and never marked dirty.
    ``reshuffle_each_round`` draws a fresh sweep every round under
    ``order="random"``; ``track_potential`` records ``Φ(S)`` per round.

    The checkpoint serializes the table itself: rebuilding it from the
    checkpointed assignment would sum the bincount scatter in a
    different order than the incremental ±½·w updates, and a last-ulp
    difference can flip a later argmin — resuming from the stored table
    keeps the trajectory byte-identical.
    """
    runtime = SolveRuntime.create(
        budget=budget,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        recorder=rec,
    )
    restored = load_resume(
        resume_from, instance, solver, rec, state_keys=("sweep", "table")
    )
    free = None if plan is None else plan.fixed_class < 0

    def measured() -> Optional[float]:
        return potential(instance, assignment) if track_potential else None

    with rec.span("solve", solver=solver, n=instance.n, k=instance.k):
        if restored is not None:
            assignment = restored.assignment
            sweep = [int(p) for p in restored.state["sweep"]]
            table = restored.state["table"]
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
                sweep = dynamics.player_order(instance, order, rng)
                if free is not None:
                    assignment[~free] = plan.fixed_class[~free]
                    sweep = [p for p in sweep if free[p]]
                with rec.span("build_table"):
                    if engine is not None:
                        table = engine.build_table(assignment)
                        engine.shutdown()
                    else:
                        table = build_global_table(instance, assignment)
                    if plan is not None:
                        table[~plan.valid] = np.inf
                dirty = ~happiness(table, assignment)
                if free is not None:
                    dirty &= free
                active = dynamics.ActiveSet(instance.n, dirty=dirty)
                if init_span is not None:
                    init_span.attrs["table_bytes"] = int(table.nbytes)
                    if plan is not None:
                        init_span.attrs["num_fixed"] = plan.num_fixed
            rounds = [
                RoundStats(
                    round_index=0,
                    deviations=0,
                    seconds=clock.lap(),
                    potential=measured(),
                )
            ]
            round_index = 0
        rec.gauge("solver.table_bytes", table.nbytes, solver=solver)

        def make_checkpoint() -> SolveCheckpoint:
            return SolveCheckpoint(
                solver=solver,
                round_index=round_index,
                assignment=assignment.copy(),
                frontier=active.flags.copy(),
                rng_state=rng.getstate(),
                rounds=rounds_to_payload(rounds),
                state={
                    "sweep": [int(p) for p in sweep],
                    "table": table.copy(),
                },
                fingerprint=SolveCheckpoint.fingerprint_of(instance),
            )

        converged = False
        while not converged:
            if runtime is not None and runtime.check(round_index + 1):
                break
            round_index += 1
            dynamics.check_round_budget(round_index, max_rounds, solver)
            if reshuffle_each_round and order == "random":
                sweep = dynamics.player_order(instance, order, rng)
            with rec.span("round", round=round_index) as round_span:
                deviations, examined = table_round(
                    instance, table, assignment, active, sweep, free
                )
            rec.round_end(
                round_span, solver, round_index,
                deviations=deviations,
                examined=examined,
                # A table lookup replaces the k-way Eq. 3 scan: one row
                # argmin per examined player.
                cost_evaluations=examined,
                frontier_fn=active.count,
                potential_fn=lambda: potential(instance, assignment),
            )
            rounds.append(
                RoundStats(
                    round_index=round_index,
                    deviations=deviations,
                    seconds=clock.lap(),
                    potential=measured(),
                    players_examined=examined,
                )
            )
            converged = deviations == 0
            if runtime is not None and not converged:
                runtime.note_round(round_index, make_checkpoint)
        if runtime is not None:
            runtime.finalize(make_checkpoint)

    extra = dict(extra or {})
    if not converged:
        extra["remaining_frontier"] = active.count()
    return make_result(
        solver=solver,
        instance=instance,
        assignment=assignment,
        rounds=rounds,
        converged=converged,
        wall_seconds=clock.total(),
        extra=extra,
        stop_reason=runtime.stop_reason if runtime is not None else None,
    )


def _solve_global_table(
    instance: RMGPInstance,
    init: str = "closest",
    order: str = "degree",
    seed: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
) -> PartitionResult:
    """Run RMGP_gt on ``instance`` (Figure 5): the plain table.

    ``backend``/``workers``: the ``shm`` backend parallelizes the table
    *build* (the per-row scatter chunks are byte-identical to the full
    scatter); the trajectory is byte-identical to the pure path.
    """
    rec = active_recorder(recorder)
    rng = random.Random(seed)
    clock = dynamics.RoundClock()
    engine = None
    extra: Dict = {"table_bytes": instance.n * instance.k * 8}  # float64
    if backend is not None or workers is not None:
        engine, backend_info = make_engine(
            instance,
            backend=backend,
            workers=workers,
            recorder=rec,
            with_table=True,
            tol=dynamics.DEVIATION_TOLERANCE,
        )
        extra.update(backend_info)
    try:
        return run_sequential(
            instance, "RMGP_gt", rng, clock, rec, init, order,
            warm_start=warm_start,
            max_rounds=max_rounds,
            engine=engine,
            extra=extra,
            budget=budget,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            resume_from=resume_from,
        )
    finally:
        if engine is not None:
            engine.shutdown()


# Legacy entry point(s), consolidated in repro.compat (removal: 2.0).
from repro.compat import solve_global_table  # noqa: E402
