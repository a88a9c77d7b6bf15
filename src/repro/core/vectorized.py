"""The batched color-group engine behind RMGP_vec, RMGP_is and RMGP_all.

Players of one color group are pairwise non-adjacent (Section 4.2), so
their best responses against the current profile are independent and
may be computed *simultaneously*.  Instead of threads (which CPython's
GIL starves), the whole group is evaluated as one batched numpy
computation:

* batch arrays come straight from the instance's CSR adjacency — one
  slice + ``np.concatenate`` per group instead of per-edge Python loops,
* ``costs = α · C[group] + maxSC[group, None]`` — a dense slice, with
  ``+inf`` on the classes strategy elimination pruned (RMGP_all),
* one ``np.bincount`` on linearized ``(row, class)`` keys accumulates
  every member's friend refunds into a ``|group| x k`` matrix,
* a row-wise argmin with the keep-current-on-ties rule commits the whole
  group at once.

Rounds run on the shared dirty-frontier scheduler
(:class:`repro.core.dynamics.ActiveSet`): only the dirty members of each
group are evaluated, and a committed move marks exactly the mover's CSR
neighbor slice dirty.

The paper presets differ only in what they hand this engine
(:func:`run_batched`): RMGP_vec and RMGP_is pass the full color groups
(RMGP_is also draws its sweep order, to keep its RNG stream); RMGP_all
passes the groups minus the players strategy elimination fixed, plus
the valid-strategy mask.  Recomputing an examined player's costs is the
same O(deg) work a global-table lookup pays for its refund updates, so
the three presets share one kernel and one trajectory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import dynamics
from repro.core.instance import RMGPInstance, concat_ranges
from repro.core.objective import potential, strategy_cost_base
from repro.core.result import PartitionResult, RoundStats, make_result
from repro.errors import ConfigurationError
from repro.graph.coloring import color_groups, greedy_coloring, is_proper_coloring
from repro.obs.recorder import Recorder, active_recorder
from repro.parallel.engine import make_engine
from repro.runtime.budget import RuntimeBudget
from repro.runtime.checkpoint import SolveCheckpoint, rounds_to_payload
from repro.runtime.executor import SolveRuntime, load_resume


def groups_from_coloring(
    instance: RMGPInstance, coloring: Optional[Dict] = None
) -> List[List[int]]:
    """Translate a node coloring into index-space player groups.

    ``coloring`` maps user ids to colors; when omitted, a greedy coloring
    is computed (the paper computes the coloring off-line).
    """
    if coloring is None:
        coloring = greedy_coloring(instance.graph)
    elif not is_proper_coloring(instance.graph, coloring):
        raise ConfigurationError("supplied coloring is not proper for this graph")
    groups = color_groups(coloring)
    return [
        [instance.index_of[node] for node in group]
        for group in groups
        if group
    ]


def draw_order(instance: RMGPInstance, order: str, rng: random.Random) -> None:
    """Make the RNG draws of a sweep order the batched engine ignores.

    Members of a group are committed at once, so a preset's ``order``
    changes nothing but its RNG stream: only ``"random"`` draws (and an
    unknown name raises); the ``"degree"`` sort is skipped as dead work.
    """
    if order != "degree":
        dynamics.player_order(instance, order, rng)


@dataclass
class _GroupBatch:
    """Pre-flattened per-group arrays for the scatter step.

    ``row_positions[i]``/``neighbor_ids[i]``/``refunds[i]`` describe one
    (member, friend) incidence: the member's row inside the group batch,
    the friend's global player index, and the refund
    ``(1 − α) · ½ · w`` his strategy subtracts from that row.
    ``edge_ptr`` is the intra-batch CSR: member ``m``'s incidences occupy
    ``[edge_ptr[m], edge_ptr[m+1])``, which lets a round gather the
    frontier's incidences with one vectorized range concatenation.
    ``rows`` is the precomputed ``arange(len(members))``.
    """

    members: np.ndarray
    edge_ptr: np.ndarray
    row_positions: np.ndarray
    neighbor_ids: np.ndarray
    refunds: np.ndarray
    base_costs: np.ndarray  # alpha * C[group] + maxSC[group, None]
    rows: np.ndarray


def _build_batches(
    instance: RMGPInstance,
    groups: List[List[int]],
    valid: Optional[np.ndarray] = None,
) -> List[_GroupBatch]:
    """One batch per group; ``valid`` (``n x k``) sets pruned costs to ``+inf``."""
    refund_scale = 1.0 - instance.alpha  # applied to half_weights (½·w)
    base = strategy_cost_base(instance)
    if valid is not None:
        # Refunds on pruned classes act on +inf and leave them invalid.
        base[~valid] = np.inf
    degrees = instance.degrees()
    batches = []
    for group in groups:
        members = np.asarray(group, dtype=np.int64)
        counts = degrees[members]
        edge_ptr = np.zeros(len(group) + 1, dtype=np.int64)
        np.cumsum(counts, out=edge_ptr[1:])
        csr_slots = concat_ranges(instance.indptr[members], counts)
        rows = np.arange(len(group), dtype=np.int64)
        batches.append(
            _GroupBatch(
                members=members,
                edge_ptr=edge_ptr,
                row_positions=np.repeat(rows, counts),
                neighbor_ids=instance.indices[csr_slots],
                refunds=refund_scale * instance.half_weights[csr_slots],
                base_costs=base[members],
                rows=rows,
            )
        )
    return batches


def _make_batches(
    instance: RMGPInstance,
    groups: List[List[int]],
    engine,
    valid: Optional[np.ndarray] = None,
) -> List:
    """Batches for the round loop: prebuilt incidence arrays on the pure
    path, bare member arrays when an engine runs the scatter (workers
    read the CSR arrays from shared memory, so prebuilding per-group
    incidence copies would be pure overhead)."""
    if engine is not None:
        return [np.asarray(group, dtype=np.int64) for group in groups]
    return _build_batches(instance, groups, valid)


def batch_costs(
    batch: _GroupBatch,
    assignment: np.ndarray,
    k: int,
    sel: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Strategy costs of the batch's members (rows ``sel``, default all).

    Row ``i`` is the Equation 3 cost vector of member ``sel[i]`` against
    ``assignment`` — what :func:`~repro.core.objective.player_strategy_costs`
    computes, with every refund of one (row, class) key summed before it
    is subtracted.
    """
    if sel is None:
        row_positions = batch.row_positions
        neighbor_ids = batch.neighbor_ids
        refunds = batch.refunds
        costs = batch.base_costs.copy()
    else:
        counts = batch.edge_ptr[sel + 1] - batch.edge_ptr[sel]
        incidences = concat_ranges(batch.edge_ptr[sel], counts)
        row_positions = np.repeat(batch.rows[: sel.size], counts)
        neighbor_ids = batch.neighbor_ids[incidences]
        refunds = batch.refunds[incidences]
        costs = batch.base_costs[sel]
    if neighbor_ids.size:
        keys = row_positions * k + assignment[neighbor_ids]
        costs -= np.bincount(
            keys, weights=refunds, minlength=costs.size
        ).reshape(costs.shape)
    return costs


def _mark_neighbors(
    instance: RMGPInstance,
    active: dynamics.ActiveSet,
    movers: np.ndarray,
    fixed: Optional[np.ndarray],
) -> None:
    """Dirty the movers' friends; players outside the game stay clean."""
    friends = instance.neighbors_of(movers)
    if fixed is not None:
        friends = friends[~fixed[friends]]
    active.mark(friends)


def _batch_frontier_round(
    instance: RMGPInstance,
    batch: _GroupBatch,
    assignment: np.ndarray,
    active: dynamics.ActiveSet,
    tol: float,
    fixed: Optional[np.ndarray] = None,
) -> tuple:
    """Evaluate one group's dirty members; returns (deviations, examined)."""
    members = batch.members
    sel = np.flatnonzero(active.flags[members])
    if sel.size == 0:
        return 0, 0
    if sel.size == len(members):
        # Fast path: the whole group is dirty (always true in round 1).
        costs = batch_costs(batch, assignment, instance.k)
        chosen = members
    else:
        costs = batch_costs(batch, assignment, instance.k, sel)
        chosen = members[sel]
    rows = batch.rows[: sel.size]
    current = assignment[chosen]
    best = costs.argmin(axis=1)
    improves = (costs[rows, best] < costs[rows, current] - tol) & (
        best != current
    )
    active.clear(chosen)
    moved = int(improves.sum())
    if moved:
        movers = chosen[improves]
        assignment[movers] = best[improves]
        _mark_neighbors(instance, active, movers, fixed)
    return moved, int(sel.size)


def _engine_frontier_round(
    instance: RMGPInstance,
    members: np.ndarray,
    assignment: np.ndarray,
    active: dynamics.ActiveSet,
    engine,
) -> tuple:
    """One group's dirty members evaluated on a parallel backend.

    Same frontier selection and commit protocol as
    :func:`_batch_frontier_round`; only the batch evaluation moves to the
    engine, whose chunked scatter is byte-identical to the bincount path
    (chunk keys never mix rows).  No prebuilt ``_GroupBatch`` is needed —
    the workers read the CSR arrays from shared memory.
    """
    sel = np.flatnonzero(active.flags[members])
    if sel.size == 0:
        return 0, 0
    chosen = members if sel.size == len(members) else members[sel]
    movers, best = engine.batched_moves(assignment, chosen)
    active.clear(chosen)
    if movers.size:
        assignment[movers] = best
        active.mark(instance.neighbors_of(movers))
    return int(movers.size), int(sel.size)


@dataclass
class BatchedRun:
    """What :func:`run_batched` leaves behind for a preset's result."""

    solver: str
    groups: List[List[int]]
    assignment: np.ndarray
    rounds: List[RoundStats]
    converged: bool
    frontier: int
    stop_reason: Optional[str]
    clock: dynamics.RoundClock
    backend_info: Dict = field(default_factory=dict)

    def result(self, instance: RMGPInstance, extra: Dict) -> PartitionResult:
        """The preset's :class:`PartitionResult` with its own ``extra``."""
        if not self.converged:
            extra["remaining_frontier"] = self.frontier
        return make_result(
            solver=self.solver,
            instance=instance,
            assignment=self.assignment,
            rounds=self.rounds,
            converged=self.converged,
            wall_seconds=self.clock.total(),
            extra=extra,
            stop_reason=self.stop_reason,
        )


def run_batched(
    instance: RMGPInstance,
    solver: str,
    start: Callable[[], Tuple[List[List[int]], np.ndarray]],
    rng: random.Random,
    clock: dynamics.RoundClock,
    rec: Recorder,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    exact_scale: Optional[int] = None,
    valid: Optional[np.ndarray] = None,
    fixed: Optional[np.ndarray] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
    span_attrs: Optional[Dict] = None,
) -> BatchedRun:
    """Run color-group-batched best-response rounds to a fixed point.

    ``start()`` runs inside round 0 and returns ``(groups, assignment)``:
    the player groups (pairwise non-adjacent members) and the initial
    profile; every RNG draw a preset makes happens there, on ``rng``.
    ``valid`` is an optional ``n x k`` mask of each player's strategy
    space (pruned classes cost ``+inf``) and ``fixed`` the players left
    out of the groups, whose dirty flags are never raised.

    Checkpoints store only the groups: batch arrays and per-round costs
    are pure functions of (instance, groups, ``valid``), so a resume
    rebuilds them bit-identically.  ``backend``/``workers`` select a
    parallel execution backend (byte-identical assignments; see
    :mod:`repro.parallel`) and ``exact_scale`` switches the scatter to
    Lemma 2 integer fixed point; neither composes with ``valid``.
    """
    wants_engine = (
        backend is not None or workers is not None or exact_scale is not None
    )
    restored = load_resume(
        resume_from, instance, solver, rec, state_keys=("groups",)
    )
    engine = None
    backend_info: Dict = {}
    if wants_engine:
        engine, backend_info = make_engine(
            instance,
            backend=backend,
            workers=workers,
            recorder=rec,
            exact_scale=exact_scale,
            tol=dynamics.DEVIATION_TOLERANCE,
        )
    runtime = SolveRuntime.create(
        budget=budget,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        recorder=rec,
    )
    try:
        with rec.span(
            "solve", solver=solver, n=instance.n, k=instance.k,
            **(span_attrs or {}),
        ):
            if restored is not None:
                groups = [
                    [int(p) for p in group]
                    for group in restored.state["groups"]
                ]
                assignment = restored.assignment
                batches = _make_batches(instance, groups, engine, valid)
                active = dynamics.ActiveSet(
                    instance.n, dirty=restored.frontier
                )
                if restored.rng_state is not None:
                    rng.setstate(restored.rng_state)
                rounds: List[RoundStats] = restored.restored_rounds()
                round_index = restored.round_index
            else:
                with rec.span("round", round=0, phase="init") as init_span:
                    groups, assignment = start()
                    with rec.span("build_batches"):
                        batches = _make_batches(
                            instance, groups, engine, valid
                        )
                    active = dynamics.ActiveSet(instance.n)
                    if fixed is not None:
                        active.clear(fixed)
                    if init_span is not None:
                        init_span.attrs["num_groups"] = len(groups)
                rounds = [RoundStats(0, 0, clock.lap())]
                round_index = 0

            def make_checkpoint() -> SolveCheckpoint:
                return SolveCheckpoint(
                    solver=solver,
                    round_index=round_index,
                    assignment=assignment.copy(),
                    frontier=active.flags.copy(),
                    rng_state=rng.getstate(),
                    rounds=rounds_to_payload(rounds),
                    state={"groups": [[int(p) for p in g] for g in groups]},
                    fingerprint=SolveCheckpoint.fingerprint_of(instance),
                )

            tol = dynamics.DEVIATION_TOLERANCE
            converged = False
            while not converged:
                if runtime is not None and runtime.check(round_index + 1):
                    break
                round_index += 1
                dynamics.check_round_budget(round_index, max_rounds, solver)
                deviations = 0
                examined = 0
                with rec.span("round", round=round_index) as round_span:
                    for batch in batches:
                        if engine is not None:
                            if batch.size == 0:
                                continue
                            moved, seen = _engine_frontier_round(
                                instance, batch, assignment, active, engine
                            )
                        else:
                            if batch.members.size == 0:
                                continue
                            moved, seen = _batch_frontier_round(
                                instance, batch, assignment, active, tol,
                                fixed,
                            )
                        deviations += moved
                        examined += seen
                rec.round_end(
                    round_span, solver, round_index,
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
                        players_examined=examined,
                    )
                )
                converged = deviations == 0
                if runtime is not None and not converged:
                    runtime.note_round(round_index, make_checkpoint)
            if runtime is not None:
                runtime.finalize(make_checkpoint)
    finally:
        if engine is not None:
            engine.shutdown()
    return BatchedRun(
        solver=solver,
        groups=groups,
        assignment=assignment,
        rounds=rounds,
        converged=converged,
        frontier=active.count(),
        stop_reason=runtime.stop_reason if runtime is not None else None,
        clock=clock,
        backend_info=backend_info,
    )


def _solve_vectorized(
    instance: RMGPInstance,
    init: str = "closest",
    seed: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
    coloring: Optional[Dict] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    exact_scale: Optional[int] = None,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
) -> PartitionResult:
    """Run the vectorized group-batched dynamics.

    Parameters mirror :func:`repro.core.independent_sets._solve_independent_sets`;
    player ordering inside a group is irrelevant (the batch is committed
    atomically), so there is no ``order`` knob.

    ``backend``/``workers`` select a parallel execution backend
    (byte-identical assignments; see :mod:`repro.parallel`) and
    ``exact_scale`` switches the scatter to Lemma 2 integer fixed point.
    """
    rng = random.Random(seed)
    clock = dynamics.RoundClock()

    def start() -> Tuple[List[List[int]], np.ndarray]:
        groups = groups_from_coloring(instance, coloring)
        return groups, dynamics.initial_assignment(
            instance, init, rng, warm_start
        )

    run = run_batched(
        instance, "RMGP_vec", start, rng, clock, active_recorder(recorder),
        max_rounds=max_rounds,
        backend=backend,
        workers=workers,
        exact_scale=exact_scale,
        budget=budget,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )
    extra = {"num_groups": len(run.groups)}
    extra.update(run.backend_info)
    return run.result(instance, extra)


# Legacy entry point(s), consolidated in repro.compat (removal: 2.0).
from repro.compat import solve_vectorized  # noqa: E402
