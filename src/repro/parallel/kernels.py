"""Best-response chunk kernels shared by every parallel backend.

Each kernel exists in one of two arithmetic forms:

* a float numpy form (used by the shm workers) that replicates,
  operation for operation, the arithmetic of the matching pure solver
  path — ``player_strategy_costs`` for the scalar kernel,
  ``_batch_frontier_round`` for the batched kernel,
  ``build_global_table`` for the table rows — so the produced floats are
  byte-identical to the pure path;
* a Lemma 2 integer-scaled exact form: costs are quantized once to
  ``int64`` fixed point (``exact_payload``), after which accumulation is
  associative and *no* ordering — thread, process, or vector — can
  perturb an equilibrium.  Comparisons are strict (no float tolerance).

Why the float forms agree across layouts, briefly (full argument in
DESIGN.md §4.5): ``(1−α)·half_weights`` and ``((1−α)·0.5)·weights`` are
single roundings of the same real product; ``np.bincount`` accumulates
weights in array order and CSR rows occupy contiguous slot ranges, so a
per-row chunk of the scatter sums each (row, class) key in exactly the
order the whole-array scatter does; and slicing a precomputed
``α·C.dense()`` matrix is elementwise identical to scaling a row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.instance import RMGPInstance, concat_ranges
from repro.errors import ConfigurationError

# ---------------------------------------------------------------------------
# Shared float arrays
# ---------------------------------------------------------------------------


@dataclass
class KernelArrays:
    """Read-only float inputs every float kernel consumes.

    ``scaled_dense`` is ``α·C`` (the same precomputation
    ``_build_batches`` does once per solve) and ``refunds`` is
    ``(1−α)·half_weights`` — both computed exactly once so every chunk,
    every worker, and the pure path slice the *same* floats.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    half_weights: np.ndarray
    scaled_dense: np.ndarray
    maxsc: np.ndarray
    refunds: np.ndarray
    k: int


def kernel_arrays(instance: RMGPInstance) -> KernelArrays:
    """Materialize the shared float inputs from an instance."""

    alpha = instance.alpha
    return KernelArrays(
        indptr=instance.indptr,
        indices=instance.indices,
        weights=instance.weights,
        half_weights=instance.half_weights,
        scaled_dense=alpha * instance.cost.dense(),
        maxsc=instance.max_social_cost,
        refunds=(1.0 - alpha) * instance.half_weights,
        k=instance.k,
    )


# ---------------------------------------------------------------------------
# Float kernels — numpy forms
# ---------------------------------------------------------------------------


def scalar_moves(
    indptr: np.ndarray,
    indices: np.ndarray,
    scaled_dense: np.ndarray,
    maxsc: np.ndarray,
    refunds: np.ndarray,
    assignment: np.ndarray,
    members: np.ndarray,
    tol: float,
):
    """Per-player best responses for ``members`` against ``assignment``.

    Replicates ``player_strategy_costs`` + ``best_response`` exactly:
    per-member ``subtract.at`` in CSR slot order, first-minimum argmin,
    tie keeps the current class.  Returns ``(players, bests)`` for the
    members that deviate, in ``members`` order.
    """

    out_players = []
    out_bests = []
    for v in members:
        v = int(v)
        costs = scaled_dense[v] + maxsc[v]
        lo, hi = indptr[v], indptr[v + 1]
        if hi > lo:
            np.subtract.at(costs, assignment[indices[lo:hi]], refunds[lo:hi])
        best = int(costs.argmin())
        current = int(assignment[v])
        if costs[best] < costs[current] - tol:
            out_players.append(v)
            out_bests.append(best)
    return (
        np.asarray(out_players, dtype=np.int64),
        np.asarray(out_bests, dtype=np.int64),
    )


def batched_moves(
    indptr: np.ndarray,
    indices: np.ndarray,
    scaled_dense: np.ndarray,
    maxsc: np.ndarray,
    refunds: np.ndarray,
    assignment: np.ndarray,
    members: np.ndarray,
    k: int,
    tol: float,
):
    """Whole-chunk batched best responses (the RMGP_vec arithmetic).

    Replicates ``_batch_frontier_round``'s gather + bincount scatter for
    ``members`` (the dirty subset of a color group).  Chunking is safe:
    bincount keys never mix rows, so each row's refund sum is
    accumulated in the same (CSR slot) order no matter how the group is
    split across workers.
    """

    members = np.asarray(members, dtype=np.int64)
    if members.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    counts = indptr[members + 1] - indptr[members]
    slots = concat_ranges(indptr[members], counts)
    rows = np.arange(members.size, dtype=np.int64)
    row_positions = np.repeat(rows, counts)
    costs = scaled_dense[members] + maxsc[members][:, None]
    if slots.size:
        keys = row_positions * k + assignment[indices[slots]]
        costs -= np.bincount(
            keys, weights=refunds[slots], minlength=members.size * k
        ).reshape(members.size, k)
    current = assignment[members]
    best = costs.argmin(axis=1)
    improves = (costs[rows, best] < costs[rows, current] - tol) & (
        best != current
    )
    return members[improves], best[improves]


def table_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    scaled_dense: np.ndarray,
    maxsc: np.ndarray,
    refunds: np.ndarray,
    assignment: np.ndarray,
    row_start: int,
    row_stop: int,
    k: int,
    out: np.ndarray,
) -> None:
    """Global-table rows ``[row_start, row_stop)`` into ``out`` (full table).

    Byte-identical to the same rows of ``build_global_table``: CSR rows
    occupy contiguous slot ranges, so the per-chunk bincount sums every
    (row, class) key in the same order as the full scatter.
    """

    rows = slice(row_start, row_stop)
    chunk = scaled_dense[rows] + maxsc[rows, None]
    lo, hi = int(indptr[row_start]), int(indptr[row_stop])
    if hi > lo:
        owners = np.repeat(
            np.arange(row_start, row_stop, dtype=np.int64),
            indptr[row_start + 1 : row_stop + 1] - indptr[row_start:row_stop],
        )
        keys = (owners - row_start) * k + assignment[indices[lo:hi]]
        chunk -= np.bincount(
            keys, weights=refunds[lo:hi], minlength=(row_stop - row_start) * k
        ).reshape(row_stop - row_start, k)
    out[rows] = chunk


# ---------------------------------------------------------------------------
# Lemma 2 integer scaling — exact fixed-point kernels
# ---------------------------------------------------------------------------


@dataclass
class ExactPayload:
    """Integer fixed-point quantization of one instance (Lemma 2).

    ``int_cost[v][p] = rint(α·c(v,p)·scale)`` and
    ``int_refund[e] = rint((1−α)·½·w_e·scale)``; ``int_maxsc`` is the
    *integer* per-player refund sum, so a strategy's cost is an exact
    ``int64`` and accumulation order cannot matter.  Comparisons are
    strict — a player deviates iff some class is cheaper by at least one
    fixed-point unit (1/scale in Equation 3 cost units).
    """

    int_cost: np.ndarray
    int_refund: np.ndarray
    int_maxsc: np.ndarray
    scale: int


def exact_payload(instance: RMGPInstance, scale: int) -> ExactPayload:
    """Quantize ``instance`` at ``scale`` fixed-point units per cost unit."""

    if isinstance(scale, bool) or not isinstance(scale, int) or scale < 1:
        raise ConfigurationError(
            f"exact_scale must be an int >= 1, got {scale!r}"
        )
    alpha = instance.alpha
    float_cost = alpha * instance.cost.dense() * float(scale)
    float_refund = (1.0 - alpha) * instance.half_weights * float(scale)
    float_maxsc = np.zeros(instance.n, dtype=np.float64)
    if float_refund.size:
        np.add.at(float_maxsc, instance.edge_owner, float_refund)
    # Guard BEFORE the int64 cast: a cast or accumulate that wraps would
    # corrupt the very numbers the guard inspects.  Floats cannot wrap,
    # and the 2**62 threshold leaves a full headroom bit against the
    # real 2**63 limit, so float rounding cannot mask an overflow.
    bound = float(np.abs(float_cost).max(initial=0.0)) + float(
        float_maxsc.max(initial=0.0)
    )
    if not np.isfinite(bound) or bound >= 2.0**62:
        raise ConfigurationError(
            f"exact_scale={scale} overflows int64 fixed point for this "
            f"instance (magnitude bound {bound:.3g}); use a smaller scale"
        )
    int_cost = np.rint(float_cost).astype(np.int64)
    int_refund = np.rint(float_refund).astype(np.int64)
    int_maxsc = np.zeros(instance.n, dtype=np.int64)
    if int_refund.size:
        np.add.at(int_maxsc, instance.edge_owner, int_refund)
    return ExactPayload(
        int_cost=int_cost,
        int_refund=int_refund,
        int_maxsc=int_maxsc,
        scale=scale,
    )


def exact_scalar_moves(
    indptr, indices, int_cost, int_maxsc, int_refund, assignment, members
):
    """Integer best responses, one member at a time (order-free exact)."""

    out_players = []
    out_bests = []
    for v in members:
        v = int(v)
        costs = int_cost[v] + int_maxsc[v]
        lo, hi = indptr[v], indptr[v + 1]
        if hi > lo:
            np.subtract.at(costs, assignment[indices[lo:hi]], int_refund[lo:hi])
        best = int(costs.argmin())
        current = int(assignment[v])
        if costs[best] < costs[current]:
            out_players.append(v)
            out_bests.append(best)
    return (
        np.asarray(out_players, dtype=np.int64),
        np.asarray(out_bests, dtype=np.int64),
    )


def exact_batched_moves(
    indptr, indices, int_cost, int_maxsc, int_refund, assignment, members, k
):
    """Whole-chunk integer best responses; bitwise equal to the scalar
    form because int64 accumulation is associative."""

    members = np.asarray(members, dtype=np.int64)
    if members.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    counts = indptr[members + 1] - indptr[members]
    slots = concat_ranges(indptr[members], counts)
    rows = np.arange(members.size, dtype=np.int64)
    costs = int_cost[members] + int_maxsc[members][:, None]
    if slots.size:
        keys = np.repeat(rows, counts) * k + assignment[indices[slots]]
        acc = np.zeros(members.size * k, dtype=np.int64)
        np.add.at(acc, keys, int_refund[slots])
        costs -= acc.reshape(members.size, k)
    current = assignment[members]
    best = costs.argmin(axis=1)
    improves = (costs[rows, best] < costs[rows, current]) & (best != current)
    return members[improves], best[improves]
