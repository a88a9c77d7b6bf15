"""Execution engines: the dispatch layer between solvers and backends.

Solvers call :func:`make_engine` with the user's ``backend=`` /
``workers=`` knobs and get back ``(engine, info)``:

* ``engine is None`` — run the existing pure path (backend ``pure`` with
  no exact scaling, or any documented fallback);
* :class:`ShmEngine` — the shared-memory worker pool: arrays are mapped
  once, each call copies only the strategy vector into the segment and
  fans member chunks out to the persistent workers;
* :class:`LocalEngine` — the in-process Lemma 2 integer-exact kernels,
  when ``exact_scale`` is set on the ``pure`` backend.

``info`` is a plain dict for ``PartitionResult.extra`` recording what
was requested, what actually ran, the worker count, and any fallback
reason — a result can always be audited for which arithmetic produced
it.

Engines must be shut down in a ``finally`` (every integrated solver
does), and the shm arena additionally registers with the atexit guard in
:mod:`repro.parallel.shm`, so deadline-killed or cancelled solves never
leak ``/dev/shm`` segments.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Tuple

import numpy as np

from repro.core.dynamics import DEVIATION_TOLERANCE
from repro.core.instance import RMGPInstance
from repro.obs.context import RemoteSpan
from repro.obs.clock import MonotonicClock
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.parallel import kernels
from repro.parallel.backend import ResolvedBackend, resolve_backend
from repro.parallel.pool import WorkerPool
from repro.parallel.shm import ShmArena

_EMPTY = np.empty(0, dtype=np.int64)

#: Span name prefix the straggler analysis groups per-worker work by.
WORKER_SPAN = "worker.compute"


class LocalEngine:
    """In-process Lemma 2 integer-exact engine (``exact_scale`` on ``pure``)."""

    kind = "exact"

    def __init__(
        self, instance: RMGPInstance, exact: kernels.ExactPayload
    ) -> None:
        self.exact = exact
        self._indptr = instance.indptr
        self._indices = instance.indices
        self._k = instance.k

    def batched_moves(self, assignment, members) -> Tuple[np.ndarray, np.ndarray]:
        members = np.ascontiguousarray(members, dtype=np.int64)
        if members.size == 0:
            return _EMPTY, _EMPTY
        return kernels.exact_batched_moves(
            self._indptr, self._indices, self.exact.int_cost,
            self.exact.int_maxsc, self.exact.int_refund, assignment,
            members, self._k,
        )

    # int64 accumulation is associative: the batched form yields the
    # same integers as the per-player scalar form, only faster.
    scalar_moves = batched_moves

    def shutdown(self) -> None:
        """Nothing to release — symmetric with :class:`ShmEngine`."""


class ShmEngine:
    """Shared-memory worker-pool engine (the tentpole backend)."""

    kind = "shm"

    def __init__(
        self,
        instance: RMGPInstance,
        workers: int,
        recorder: Optional[Recorder] = None,
        exact: Optional[kernels.ExactPayload] = None,
        with_table: bool = False,
        tol: float = DEVIATION_TOLERANCE,
        start_method: Optional[str] = None,
    ) -> None:
        self.workers = workers
        self.exact = exact
        self._rec = recorder if recorder is not None else NULL_RECORDER
        self._raw_clock = isinstance(
            getattr(self._rec, "clock", None), MonotonicClock
        )
        n, k = instance.n, instance.k
        arrays = dict(instance.csr_arrays())
        arrays["assignment"] = np.zeros(n, dtype=np.int64)
        if exact is not None:
            arrays["int_cost"] = exact.int_cost
            arrays["int_refund"] = exact.int_refund
            arrays["int_maxsc"] = exact.int_maxsc
        else:
            ka = kernels.kernel_arrays(instance)
            arrays["scaled_dense"] = ka.scaled_dense
            arrays["maxsc"] = ka.maxsc
            arrays["refunds"] = ka.refunds
        if with_table:
            arrays["table"] = np.zeros((n, k), dtype=np.float64)
        self.arena = ShmArena.create(arrays)
        self._n = n
        self._k = k
        views = self.arena.views()
        self._assignment = views["assignment"]
        self._table = views.get("table")
        params = {"k": k, "tol": tol, "exact": exact is not None}
        try:
            self.pool: Optional[WorkerPool] = WorkerPool(
                self.arena, workers, params, method=start_method
            )
        except BaseException:
            self._release_arena()
            raise

    # -- dispatch ----------------------------------------------------------

    def scalar_moves(self, assignment, members):
        return self._moves("scalar", assignment, members)

    def batched_moves(self, assignment, members):
        return self._moves("batched", assignment, members)

    def _moves(self, kind, assignment, members):
        members = np.ascontiguousarray(members, dtype=np.int64)
        if members.size == 0:
            return _EMPTY, _EMPTY
        np.copyto(self._assignment, assignment)
        chunks = np.array_split(members, min(self.workers, members.size))
        results = self.pool.run(kind, chunks)
        self._note(results, [c.size for c in chunks])
        players = np.concatenate([r.players for r in results])
        bests = np.concatenate([r.bests for r in results])
        return players, bests

    def build_table(self, assignment) -> np.ndarray:
        """Parallel RMGP_gt table build; returns a private copy."""

        if self._table is None:
            raise ValueError("engine was created without a table region")
        np.copyto(self._assignment, assignment)
        n = self._n
        edges = [n * j // self.workers for j in range(self.workers + 1)]
        payloads = [
            (lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo
        ]
        if payloads:
            results = self.pool.run("table", payloads)
            self._note(results, [hi - lo for lo, hi in payloads])
        return self._table.copy()

    # -- telemetry ---------------------------------------------------------

    def _note(self, results, sizes) -> None:
        rec = self._rec
        for result in results:
            busy = result.end - result.start
            rec.count("parallel.tasks", 1, worker=result.worker_id)
            rec.count("parallel.busy_seconds", busy, worker=result.worker_id)
        if not rec.enabled:
            return
        parent = rec.current_span
        if parent is None:
            return
        spans = []
        for result, size in zip(results, sizes):
            if self._raw_clock:
                # Worker stamps are time.perf_counter(), the same
                # system-wide counter MonotonicClock reads — adopt the
                # busy window verbatim (offset 0).
                start, end = result.start, result.end
            else:
                # Foreign (e.g. manual) clock: pin a zero-width marker at
                # "now" and keep the measured duration in the attrs.
                start = end = rec.clock()
            attrs = {"chunk": result.chunk_index, "players": size}
            if result.players is not None:
                attrs["moves"] = int(result.players.size)
            if start == end:
                attrs["busy_seconds"] = result.end - result.start
            spans.append(
                RemoteSpan(
                    name=WORKER_SPAN,
                    node=f"worker-{result.worker_id}",
                    start=start,
                    end=end,
                    parent_span_id=parent.span_id,
                    attrs=attrs,
                )
            )
        rec.adopt(spans)

    # -- teardown ----------------------------------------------------------

    def _release_arena(self) -> None:
        self._assignment = None
        self._table = None
        self.arena.destroy()

    def shutdown(self) -> None:
        """Stop workers and unlink the segment. Safe to call twice."""

        pool, self.pool = self.pool, None
        try:
            if pool is not None:
                pool.shutdown()
        finally:
            self._release_arena()


@contextmanager
def engine_scope(engine):
    """``with engine_scope(engine):`` — shutdown in ``finally``.

    Accepts ``None`` so callers can use one code path whether or not a
    backend was requested.
    """

    try:
        yield engine
    finally:
        if engine is not None:
            engine.shutdown()


def make_engine(
    instance: RMGPInstance,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    recorder: Optional[Recorder] = None,
    exact_scale: Optional[int] = None,
    with_table: bool = False,
    tol: float = DEVIATION_TOLERANCE,
) -> Tuple[object, dict]:
    """Resolve knobs and build the engine for one solve.

    Returns ``(engine, info)``; ``engine`` is ``None`` when the plain
    pure-python path should run.  ``info`` always records the requested
    and effective backend (plus worker count, fallback reason, and
    ``exact_scale`` when set) for ``PartitionResult.extra``.
    """

    resolved: ResolvedBackend = resolve_backend(backend, workers)
    payload = (
        kernels.exact_payload(instance, exact_scale)
        if exact_scale is not None
        else None
    )
    info = resolved.info()
    if payload is not None:
        info["exact_scale"] = payload.scale
    if resolved.effective == "shm":
        engine = ShmEngine(
            instance,
            resolved.workers,
            recorder=recorder,
            exact=payload,
            with_table=with_table,
            tol=tol,
        )
    elif payload is not None:
        engine = LocalEngine(instance, payload)
    else:
        engine = None
    return engine, info
