"""RMGP_b — the baseline best-response algorithm (Figure 3).

Each round sweeps the players whose costs may have changed and replaces
each one's strategy with the class minimizing his Equation 3 cost
against the *current* strategies of all other players; the algorithm
stops at the first round with no deviation, which by Theorem 1 is a pure
Nash equilibrium.

RMGP_b is a preset of the sequential engine
(:func:`repro.core.global_table.run_sequential`): a player's Equation 3
costs are his row of the global table, so the move sequence is Figure
3's while an examination costs one row argmin.  Only the defaults
differ from RMGP_gt — random initialization and ordering, as in Figure
3 — plus two knobs of their own: per-round reshuffling and potential
tracking.

The two heuristics evaluated in Section 6.3 are exposed as parameters:
``init="closest"`` is the ``+i`` variant and ``order="degree"`` adds the
``+o`` variant.
"""

from __future__ import annotations

import random
from typing import Optional, Union

import numpy as np

from repro.core import dynamics
from repro.core.global_table import run_sequential
from repro.core.instance import RMGPInstance
from repro.core.result import PartitionResult
from repro.obs.recorder import Recorder, active_recorder
from repro.runtime.budget import RuntimeBudget
from repro.runtime.checkpoint import SolveCheckpoint


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
    rng = random.Random(seed)
    clock = dynamics.RoundClock()
    return run_sequential(
        instance,
        solver_name or _variant_name(init, order),
        rng, clock, active_recorder(recorder), init, order,
        warm_start=warm_start,
        max_rounds=max_rounds,
        reshuffle_each_round=reshuffle_each_round,
        track_potential=track_potential,
        extra={"init": init, "order": order},
        budget=budget,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )


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
