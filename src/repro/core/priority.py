"""RMGP_mg — max-gain (best-improvement) best-response dynamics.

The round-robin schedule of Figure 3 is one point in a design space;
another classic is *best-improvement* dynamics: always let the player
with the **largest available cost reduction** move next.  For exact
potential games this converges for the same reason (every move decreases
``Φ`` by the mover's gain), and each move takes the largest step
available, which often reduces the number of *moves* at the price of
maintaining a priority structure.

The implementation keeps the global table of RMGP_gt plus a max-heap of
per-player gains with lazy invalidation; it is included as an ablation
point (moves vs. wall time against the paper's schedules), not as a
replacement for them.
"""

from __future__ import annotations

import heapq
import random
from typing import List, Optional

import numpy as np

from repro.core import dynamics
from repro.core.global_table import build_global_table
from repro.core.instance import RMGPInstance
from repro.core.result import PartitionResult, RoundStats, make_result
from repro.errors import ConvergenceError
from repro.obs.recorder import Recorder, active_recorder
from repro.runtime.budget import RuntimeBudget
from repro.runtime.checkpoint import SolveCheckpoint, rounds_to_payload
from repro.runtime.executor import SolveRuntime, load_resume


def _solve_max_gain(
    instance: RMGPInstance,
    init: str = "closest",
    seed: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
    max_moves: Optional[int] = None,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
) -> PartitionResult:
    """Run max-gain dynamics to a pure Nash equilibrium.

    ``max_moves`` bounds the total number of deviations (default
    ``n * k * 1000``, a generous multiple of anything observed); the
    result records every move in one round entry per *batch* of 1000
    moves so the usual round accounting stays meaningful.

    ``players_examined`` counts heap pops (gain re-evaluations), the
    real unit of work of best-improvement dynamics — there is no
    full-sweep round here.  Round 0's count is the heap build, which
    evaluates every player's gain once.

    The real-time layer treats a *batch* as the round unit: budget
    checks and checkpoints happen only at batch boundaries, keeping the
    hot pop-and-move loop free of per-move overhead.  Checkpoints
    serialize the table and the heap list verbatim (entry order is the
    binary-heap layout), so a resume pops in the exact same sequence.
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
    restored = load_resume(
        resume_from, instance, "RMGP_mg", rec,
        state_keys=("table", "heap_keys", "heap_players", "moves"),
    )
    with rec.span("solve", solver="RMGP_mg", n=instance.n, k=instance.k):
        if max_moves is None:
            max_moves = max(1000, instance.n * instance.k * 1000)
        tol = dynamics.DEVIATION_TOLERANCE
        half = (1.0 - instance.alpha) * 0.5

        if restored is not None:
            assignment = restored.assignment
            table = restored.state["table"]

            def gain_of(player: int) -> float:
                row = table[player]
                return float(row[assignment[player]] - row.min())

            heap: List[tuple] = [
                (float(key), int(player))
                for key, player in zip(
                    restored.state["heap_keys"],
                    restored.state["heap_players"],
                )
            ]
            moves = int(restored.state["moves"])
            if restored.rng_state is not None:
                rng.setstate(restored.rng_state)
            rounds: List[RoundStats] = restored.restored_rounds()
        else:
            with rec.span("round", round=0, phase="init"):
                assignment = dynamics.initial_assignment(
                    instance, init, rng, warm_start
                )
                with rec.span("build_table"):
                    table = build_global_table(instance, assignment)

                def gain_of(player: int) -> float:
                    row = table[player]
                    return float(row[assignment[player]] - row.min())

                # Max-heap entries: (-gain, player).  Lazy invalidation:
                # an entry is acted on only if its gain still matches the
                # player's current gain.
                heap = []
                for player in range(instance.n):
                    gain = gain_of(player)
                    if gain > tol:
                        heapq.heappush(heap, (-gain, player))

            rounds = [
                RoundStats(0, 0, clock.lap(), players_examined=instance.n)
            ]
            moves = 0
        batch_moves = 0
        batch_examined = 0

        def make_checkpoint() -> SolveCheckpoint:
            return SolveCheckpoint(
                solver="RMGP_mg",
                round_index=len(rounds) - 1,
                assignment=assignment.copy(),
                frontier=np.zeros(0, dtype=bool),
                rng_state=rng.getstate(),
                rounds=rounds_to_payload(rounds),
                state={
                    "table": table.copy(),
                    "heap_keys": np.array(
                        [entry[0] for entry in heap], dtype=np.float64
                    ),
                    "heap_players": np.array(
                        [entry[1] for entry in heap], dtype=np.int64
                    ),
                    "moves": moves,
                },
                fingerprint=SolveCheckpoint.fingerprint_of(instance),
            )

        def flush_batch() -> None:
            nonlocal batch_moves, batch_examined
            rec.round_end(
                None, "RMGP_mg", len(rounds),
                deviations=batch_moves,
                examined=batch_examined,
                cost_evaluations=batch_examined,
                frontier_fn=lambda: len(heap),
            )
            rounds.append(
                RoundStats(
                    round_index=len(rounds),
                    deviations=batch_moves,
                    seconds=clock.lap(),
                    players_examined=batch_examined,
                )
            )
            batch_moves = 0
            batch_examined = 0

        interrupted = False
        while heap:
            # One budget check per batch boundary (both counters reset
            # only at a flush), never per heap pop.
            if (
                runtime is not None
                and batch_moves == 0
                and batch_examined == 0
                and runtime.check(len(rounds))
            ):
                interrupted = True
                break
            negative_gain, player = heapq.heappop(heap)
            batch_examined += 1
            current_gain = gain_of(player)
            if current_gain <= tol:
                continue
            if abs(-negative_gain - current_gain) > 1e-12:
                heapq.heappush(heap, (-current_gain, player))
                continue
            current = int(assignment[player])
            best = int(table[player].argmin())
            assignment[player] = best
            moves += 1
            batch_moves += 1
            if moves > max_moves:
                raise ConvergenceError(f"RMGP_mg exceeded {max_moves} moves")
            idx = instance.neighbor_indices[player]
            wts = instance.neighbor_weights[player]
            for friend, weight in zip(idx, wts):
                delta = half * weight
                table[friend, best] -= delta
                table[friend, current] += delta
                friend_gain = gain_of(int(friend))
                if friend_gain > tol:
                    heapq.heappush(heap, (-friend_gain, int(friend)))
            if batch_moves >= 1000:
                flush_batch()
                if runtime is not None:
                    runtime.note_round(len(rounds) - 1, make_checkpoint)
        if not interrupted and (
            batch_moves or batch_examined or len(rounds) == 1
        ):
            flush_batch()
        if runtime is not None:
            runtime.finalize(make_checkpoint)

    extra = {"total_moves": moves}
    if interrupted:
        extra["remaining_frontier"] = len(heap)
    return make_result(
        solver="RMGP_mg",
        instance=instance,
        assignment=assignment,
        rounds=rounds,
        converged=not interrupted,
        wall_seconds=clock.total(),
        extra=extra,
        stop_reason=runtime.stop_reason if runtime is not None else None,
    )


# Legacy entry point(s), consolidated in repro.compat (removal: 2.0).
from repro.compat import solve_max_gain  # noqa: E402
