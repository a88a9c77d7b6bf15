"""Backend/worker knob resolution for the parallel execution engines.

Two backends share the solver surface (see ``core/registry.py``):

``pure``
    The existing single-process numpy kernels. Always available; the
    default.
``shm``
    ``multiprocessing.shared_memory`` worker-process pool
    (:mod:`repro.parallel.engine`). Requires ``workers >= 2`` to do
    anything useful; ``workers=1`` is the documented serial fallback —
    the solve runs the pure path and records why.

Worker-count resolution order: explicit ``workers=`` argument, then the
``REPRO_WORKERS`` environment variable, then ``os.cpu_count()``.
Explicit values are validated eagerly (``workers < 1`` is a
:class:`~repro.errors.ConfigurationError`); the environment variable is
only consulted when a value is actually needed, so an exported garbage
value cannot break unrelated pure solves.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

KNOWN_BACKENDS = ("pure", "shm")

WORKERS_ENV = "REPRO_WORKERS"


def _validate_workers(workers: int, source: str) -> int:
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ConfigurationError(
            f"workers ({source}) must be an int >= 1, got {workers!r}"
        )
    if workers < 1:
        raise ConfigurationError(
            f"workers ({source}) must be >= 1, got {workers}"
        )
    return workers


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve the worker count: argument, ``REPRO_WORKERS``, cpu count."""

    if workers is not None:
        return _validate_workers(workers, "argument")
    env = os.environ.get(WORKERS_ENV)
    if env is not None and env.strip():
        try:
            value = int(env)
        except ValueError:
            raise ConfigurationError(
                f"{WORKERS_ENV} must be an integer >= 1, got {env!r}"
            ) from None
        return _validate_workers(value, WORKERS_ENV)
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ResolvedBackend:
    """Outcome of backend resolution.

    ``requested`` is what the caller asked for (``None`` means default),
    ``effective`` is what will actually run, ``workers`` is the resolved
    pool size (1 for non-shm backends), and ``reason`` documents any
    fallback so results stay auditable.
    """

    requested: str
    effective: str
    workers: int
    reason: Optional[str] = None

    def info(self) -> dict:
        out = {
            "backend": self.requested,
            "backend_effective": self.effective,
            "workers": self.workers,
        }
        if self.reason is not None:
            out["backend_fallback_reason"] = self.reason
        return out


def resolve_backend(
    backend: Optional[str] = None, workers: Optional[int] = None
) -> ResolvedBackend:
    """Validate and resolve the ``backend=`` / ``workers=`` pair."""

    if workers is not None:
        _validate_workers(workers, "argument")
    if backend is None:
        # workers= without backend= means "parallelize": shm is the only
        # backend a worker count applies to.
        requested = "shm" if workers is not None else "pure"
    else:
        requested = backend
    if requested not in KNOWN_BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; known backends: "
            + ", ".join(KNOWN_BACKENDS)
        )
    if requested == "shm":
        count = resolve_workers(workers)
        if count == 1:
            return ResolvedBackend(
                requested="shm",
                effective="pure",
                workers=1,
                reason="workers=1: serial fallback (no pool is cheaper)",
            )
        return ResolvedBackend(requested="shm", effective="shm", workers=count)
    return ResolvedBackend(requested=requested, effective=requested, workers=1)
