"""Shared-memory parallel execution backends for the hot solver kernels.

The paper's §4.2 design computes color-class best responses *in
parallel*; CPython's GIL starves the thread pool of
:mod:`repro.core.independent_sets`, so this package provides true
concurrency instead:

* :mod:`repro.parallel.backend` — the ``backend=`` / ``workers=`` knob
  resolution (``pure`` / ``shm``, ``REPRO_WORKERS``).
* :mod:`repro.parallel.shm` — shared-memory segment lifecycle: the
  instance's CSR arrays, dense costs and the strategy vector are mapped
  once per solve; ``close()``/``unlink()`` run in ``finally`` and an
  ``atexit`` guard reaps anything a crashed solve leaves behind.
* :mod:`repro.parallel.pool` — a persistent worker-process pool that
  color classes are fanned out to.
* :mod:`repro.parallel.kernels` — the chunk kernels themselves, in
  float (byte-identical to each solver's pure path) and Lemma 2
  integer-scaled exact variants.
* :mod:`repro.parallel.engine` — dispatch: solvers ask
  :func:`make_engine` for an execution engine and stay agnostic of
  which backend runs underneath.

Determinism contract: for every backend the assignment trajectory is
byte-identical to the same solver's pure-python path (pinned by
``tests/parallel/test_backend_conformance.py``); see DESIGN.md §4.5 for
the argument.
"""

from repro.parallel.backend import (
    KNOWN_BACKENDS,
    ResolvedBackend,
    resolve_backend,
    resolve_workers,
)
from repro.parallel.engine import make_engine
from repro.parallel.kernels import exact_payload
from repro.parallel.shm import ShmArena, live_segment_names

__all__ = [
    "KNOWN_BACKENDS",
    "ResolvedBackend",
    "ShmArena",
    "exact_payload",
    "live_segment_names",
    "make_engine",
    "resolve_backend",
    "resolve_workers",
]
