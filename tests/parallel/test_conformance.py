"""Backend conformance: every backend × solver × family is byte-identical.

The determinism contract of :mod:`repro.parallel` is not "close": the
shm pool and the pure path must produce **the same bytes** — same
assignment, same round trajectory — because
the merge replays the serial commit order and every float is computed
by an operation sequence with identical rounding (see DESIGN.md §4.5).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.api import SolveOptions
from repro.errors import ConfigurationError
from repro.runtime.token import CancelToken

from tests.streaming.conftest import INSTANCE_FAMILIES

PARALLEL_SOLVERS = ("is", "vec", "gt", "sync")

BACKENDS = ["shm"]


def _solve(instance, solver, **kwargs):
    return repro.partition(
        instance, solver=solver, options=SolveOptions(seed=7, **kwargs)
    )


@pytest.mark.parametrize("family", sorted(INSTANCE_FAMILIES))
@pytest.mark.parametrize("solver", PARALLEL_SOLVERS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestByteIdentity:
    def test_assignment_and_trajectory_match_pure(
        self, family, solver, backend
    ):
        instance = INSTANCE_FAMILIES[family](seed=3)
        pure = _solve(instance, solver)
        parallel = _solve(instance, solver, backend=backend, workers=2)
        assert parallel.assignment.tobytes() == pure.assignment.tobytes()
        assert parallel.num_rounds == pure.num_rounds
        assert [r.deviations for r in parallel.rounds] == [
            r.deviations for r in pure.rounds
        ]
        assert parallel.extra["backend"] == backend
        assert parallel.converged == pure.converged


@pytest.mark.parametrize("solver", PARALLEL_SOLVERS)
def test_three_workers_matches_two(solver):
    # The chunking changes with the pool size; the merge must not.
    instance = INSTANCE_FAMILIES["erdos_renyi"](seed=5)
    two = _solve(instance, solver, backend="shm", workers=2)
    three = _solve(instance, solver, backend="shm", workers=3)
    assert two.assignment.tobytes() == three.assignment.tobytes()


def test_workers_alone_selects_shm():
    instance = INSTANCE_FAMILIES["erdos_renyi"]()
    result = _solve(instance, "vec", workers=2)
    assert result.extra["backend"] == "shm"
    assert result.extra["backend_effective"] == "shm"


def test_workers_one_serial_fallback_still_identical():
    instance = INSTANCE_FAMILIES["barabasi_albert"]()
    pure = _solve(instance, "vec")
    fallback = _solve(instance, "vec", backend="shm", workers=1)
    assert fallback.assignment.tobytes() == pure.assignment.tobytes()
    assert fallback.extra["backend_effective"] == "pure"
    assert "serial fallback" in fallback.extra["backend_fallback_reason"]


def test_threads_and_workers_are_mutually_exclusive():
    instance = INSTANCE_FAMILIES["erdos_renyi"]()
    with pytest.raises(ConfigurationError, match="threads"):
        repro.partition(instance, solver="is", threads=2, workers=2, seed=0)


class TestRuntimeComposition:
    """backend= composes with deadlines, cancellation and checkpoints."""

    def test_cancelled_shm_solve_reports_and_cleans_up(self):
        from repro.parallel.shm import live_segment_names

        instance = INSTANCE_FAMILIES["planted_partition"]()
        token = CancelToken()
        token.cancel()
        result = repro.partition(
            instance, solver="vec",
            options=SolveOptions(seed=7, backend="shm", workers=2,
                                 cancel_token=token),
        )
        assert not result.converged
        assert result.stop_reason == "cancelled"
        assert not live_segment_names()

    def test_deadline_interrupt_then_resume_on_shm(self, tmp_path):
        instance = INSTANCE_FAMILIES["barabasi_albert"](seed=9)
        reference = _solve(instance, "vec", backend="shm", workers=2)
        assert reference.num_rounds >= 2, "need a multi-round instance"

        path = str(tmp_path / "vec.ckpt.json")
        partial = repro.partition(
            instance, solver="vec",
            options=SolveOptions(
                seed=7, backend="shm", workers=2,
                deadline_seconds=1e-9,
                checkpoint_path=path, checkpoint_every=1,
            ),
        )
        assert not partial.converged
        assert partial.stop_reason == "deadline"
        resumed = repro.partition(
            instance, solver="vec",
            options=SolveOptions(
                seed=7, backend="shm", workers=2, resume_from=path
            ),
        )
        assert resumed.converged
        assert (
            resumed.assignment.tobytes() == reference.assignment.tobytes()
        )

    def test_resume_across_backends_is_identical(self, tmp_path):
        # A checkpoint written by a pure solve resumes on shm with the
        # same final bytes: checkpoint state is backend-independent.
        instance = INSTANCE_FAMILIES["barabasi_albert"](seed=9)
        reference = _solve(instance, "vec")
        path = str(tmp_path / "cross.ckpt.json")
        partial = repro.partition(
            instance, solver="vec",
            options=SolveOptions(
                seed=7, deadline_seconds=1e-9,
                checkpoint_path=path, checkpoint_every=1,
            ),
        )
        assert not partial.converged
        resumed = repro.partition(
            instance, solver="vec",
            options=SolveOptions(
                seed=7, backend="shm", workers=2, resume_from=path
            ),
        )
        assert resumed.converged
        assert (
            resumed.assignment.tobytes() == reference.assignment.tobytes()
        )


def test_mutations_compose_with_backend():
    from repro.streaming.mutations import COST_FLOOR, UpdateCostRow

    instance = INSTANCE_FAMILIES["erdos_renyi"](seed=4)
    node = instance.node_ids[0]
    mutation = UpdateCostRow(node, tuple([COST_FLOOR + 0.1] * instance.k))
    pure = repro.partition(
        instance, solver="vec", seed=7, mutations=[mutation]
    )
    parallel = repro.partition(
        instance, solver="vec", seed=7, mutations=[mutation],
        backend="shm", workers=2,
    )
    assert parallel.assignment.tobytes() == pure.assignment.tobytes()
