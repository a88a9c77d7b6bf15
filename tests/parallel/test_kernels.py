"""Kernel equivalence: the chunk kernels vs the pure solver arithmetic.

The float kernels must return bit-identical moves (and table rows) to
the pure paths they replicate, whole or chunked; the integer-exact
kernels must agree with each other exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import dynamics
from repro.core.global_table import build_global_table
from repro.core.objective import player_strategy_costs
from repro.parallel import kernels

from tests.streaming.conftest import INSTANCE_FAMILIES

TOL = dynamics.DEVIATION_TOLERANCE


def _setup(family="erdos_renyi", seed=1):
    instance = INSTANCE_FAMILIES[family](seed=seed)
    ka = kernels.kernel_arrays(instance)
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, instance.k, instance.n).astype(np.int64)
    members = np.arange(instance.n, dtype=np.int64)
    return instance, ka, assignment, members


@pytest.mark.parametrize("family", sorted(INSTANCE_FAMILIES))
def test_scalar_moves_match_objective_module(family):
    # The kernel must agree with the reference implementation the rest
    # of the repo uses (repro.core.objective), move for move.
    instance, ka, assignment, members = _setup(family)
    players, bests = kernels.scalar_moves(
        ka.indptr, ka.indices, ka.scaled_dense, ka.maxsc, ka.refunds,
        assignment, members, TOL,
    )
    expected = []
    for player in members:
        costs = player_strategy_costs(instance, assignment, int(player))
        current = int(assignment[player])
        best = int(costs.argmin())
        if best != current and costs[best] < costs[current] - TOL:
            expected.append((int(player), best))
    assert list(zip(players.tolist(), bests.tolist())) == expected


def test_chunked_batched_moves_equal_whole_batch():
    # The shm merge contract in miniature: evaluating member chunks
    # separately and concatenating equals one whole-batch evaluation,
    # bitwise (chunk keys never mix rows).
    instance, ka, assignment, members = _setup("barabasi_albert")
    whole = kernels.batched_moves(
        ka.indptr, ka.indices, ka.scaled_dense, ka.maxsc, ka.refunds,
        assignment, members, instance.k, TOL,
    )
    for num_chunks in (2, 3, 5):
        parts = [
            kernels.batched_moves(
                ka.indptr, ka.indices, ka.scaled_dense, ka.maxsc,
                ka.refunds, assignment, chunk, instance.k, TOL,
            )
            for chunk in np.array_split(members, num_chunks)
        ]
        players = np.concatenate([p[0] for p in parts])
        bests = np.concatenate([p[1] for p in parts])
        assert np.array_equal(players, whole[0])
        assert np.array_equal(bests, whole[1])


def test_table_rows_chunks_equal_full_build():
    instance, ka, assignment, _ = _setup("planted_partition")
    full = build_global_table(instance, assignment)
    out = np.zeros_like(full)
    edges = [0, instance.n // 3, 2 * instance.n // 3, instance.n]
    for lo, hi in zip(edges, edges[1:]):
        kernels.table_rows(
            ka.indptr, ka.indices, ka.scaled_dense, ka.maxsc, ka.refunds,
            assignment, lo, hi, instance.k, out,
        )
    assert out.tobytes() == full.tobytes()


def test_exact_scalar_matches_exact_batched():
    # int64 accumulation is associative, so the per-player subtract.at
    # form (the shm scalar kernel) and the batched accumulator must
    # agree exactly — this is what lets the LocalEngine serve both.
    instance, _, assignment, members = _setup("barabasi_albert")
    payload = kernels.exact_payload(instance, 10**9)
    a = kernels.exact_scalar_moves(
        instance.indptr, instance.indices, payload.int_cost,
        payload.int_maxsc, payload.int_refund, assignment, members,
    )
    b = kernels.exact_batched_moves(
        instance.indptr, instance.indices, payload.int_cost,
        payload.int_maxsc, payload.int_refund, assignment, members,
        instance.k,
    )
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_empty_members_return_empty_moves():
    instance, ka, assignment, _ = _setup()
    empty = np.empty(0, dtype=np.int64)
    players, bests = kernels.batched_moves(
        ka.indptr, ka.indices, ka.scaled_dense, ka.maxsc, ka.refunds,
        assignment, empty, instance.k, TOL,
    )
    assert players.size == 0 and bests.size == 0
