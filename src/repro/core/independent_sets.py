"""RMGP_is — parallelism with independent strategies (Section 4.2, Figure 4).

Players that share no edge cannot affect each other's best responses, so
the players are grouped by a proper graph coloring and each color group
is processed "simultaneously".  Processing a group concurrently is
semantically identical to processing it sequentially (no two members are
adjacent), so correctness and convergence are untouched.

The rounds run on the batched color-group engine of
:mod:`repro.core.vectorized` (:func:`~repro.core.vectorized.run_batched`):
each group's dirty members are evaluated as one numpy computation, or on
a :mod:`repro.parallel` backend with ``backend=``/``workers=``.  The
result is RMGP_vec's trajectory; RMGP_is differs only in drawing its
sweep order before the initial assignment, which keeps its RNG stream
(and so its ``init="random"`` trajectories).

Results also report a *model* critical path — the per-round work under
ideal ``T``-way parallelism, ``Σ_groups ceil(|G_i| / T)`` players — which
is the quantity the paper's multi-threaded C++ implementation improves.
``threads`` sets that ``T`` and nothing else.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import dynamics
from repro.core.instance import RMGPInstance
from repro.core.result import PartitionResult
from repro.core.vectorized import draw_order, groups_from_coloring, run_batched
from repro.errors import ConfigurationError
from repro.obs.recorder import Recorder, active_recorder
from repro.runtime.budget import RuntimeBudget


def _solve_independent_sets(
    instance: RMGPInstance,
    init: str = "closest",
    order: str = "degree",
    seed: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
    coloring: Optional[Dict] = None,
    threads: int = 1,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    exact_scale: Optional[int] = None,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
) -> PartitionResult:
    """Run RMGP_is: best-response rounds sweeping color groups.

    Parameters
    ----------
    order:
        Sweep order (``"degree"``/``"given"``/``"random"``).  Members of
        a group are committed at once, so the order changes nothing but
        the RNG draws: it is drawn before the initial assignment.
    threads:
        The ``T`` of the reported critical-path model
        (``extra["threads"]``, ``extra["model_*"]``); it does not change
        how the solve runs.  Mutually exclusive with
        ``backend=``/``workers=``/``exact_scale=``.
    backend / workers:
        Parallel execution backend (``"pure"``/``"shm"``) and shm
        worker count; see :mod:`repro.parallel`.  Assignments
        stay byte-identical to the pure path for every backend.
    exact_scale:
        When set, best responses use Lemma 2 integer fixed-point
        arithmetic at this scale (exact, order-free; changes the
        trajectory vs. the float path but not across backends).
    coloring:
        Optional pre-computed proper coloring (user id -> color).
    recorder:
        Telemetry sink; ``None`` uses the ambient recorder.
    """
    if threads < 1:
        raise ConfigurationError("threads must be >= 1")
    wants_engine = (
        backend is not None or workers is not None or exact_scale is not None
    )
    if wants_engine and threads > 1:
        raise ConfigurationError(
            "threads (the GIL-bound thread pool) cannot be combined with "
            "backend=/workers=/exact_scale=; use workers= for real "
            "parallelism"
        )
    rng = random.Random(seed)
    clock = dynamics.RoundClock()

    def start() -> Tuple[List[List[int]], np.ndarray]:
        groups = groups_from_coloring(instance, coloring)
        draw_order(instance, order, rng)
        return groups, dynamics.initial_assignment(
            instance, init, rng, warm_start
        )

    run = run_batched(
        instance, "RMGP_is", start, rng, clock, active_recorder(recorder),
        max_rounds=max_rounds,
        backend=backend,
        workers=workers,
        exact_scale=exact_scale,
        budget=budget,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        resume_from=resume_from,
        span_attrs={"threads": threads},
    )
    critical_path = sum(math.ceil(len(g) / threads) for g in run.groups)
    extra = {
        "num_groups": len(run.groups),
        "threads": threads,
        "model_players_per_round": critical_path,
        "sequential_players_per_round": instance.n,
        "model_speedup": (instance.n / critical_path) if critical_path else 1.0,
    }
    extra.update(run.backend_info)
    return run.result(instance, extra)


# Legacy entry point(s), consolidated in repro.compat (removal: 2.0).
from repro.compat import solve_independent_sets  # noqa: E402
