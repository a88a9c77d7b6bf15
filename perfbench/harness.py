"""Run bookkeeping shared by the workloads: operations, checks, layers.

An *operation* is one unit a user of the program waits for: a query, a
read, a write batch, or a served request.  Each is attempted once and
counted as failed when it raises or when any output check fails; the
counts become the ``attempted``/``failed`` fields of the result line.
"""

from __future__ import annotations

import json
import math
import traceback
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from pace import RunPace
from spans import SpanRecorder

#: At most this many failure messages are kept for the summary line.
MAX_PROBLEMS = 20


class Run:
    """One benchmark run: its recorder, operation counts and outputs."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rec = SpanRecorder(enabled=trace)
        #: Reference samples that pace the run's timings (``pace.py``).
        self.pace = RunPace()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: "<preset>" -> assignment sha256 of the first result of that preset.
        self.hashes: Dict[str, str] = {}
        #: Metric name -> value; the workload fills the ones it measures.
        self.metrics: Dict[str, float] = {}
        #: Run-level checks beyond single operations (trace schema, ...).
        self.run_problems: List[str] = []
        #: Spans recorded by the end of the first cycle; count metrics
        #: cover set-up plus that cycle, so they repeat exactly per seed.
        self.first_cycle_spans: Optional[int] = None
        #: serve-1e3 traced run: per sampled request latency split.
        self.serve_rows: List[Dict[str, float]] = []

    @contextmanager
    def operation(self, label: str) -> Iterator["Operation"]:
        """Count one operation; an exception inside it marks it failed."""
        op = Operation(self, label)
        self.attempted += 1
        try:
            yield op
        except Exception as exc:  # noqa: BLE001 - operation boundary
            op.fail(f"{type(exc).__name__}: {exc}")
            self._note(traceback.format_exc(limit=3))
        if op.problems:
            self.failed += 1

    def _note(self, message: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def record_hash(self, preset: str, payload: Dict[str, Any]) -> None:
        self.hashes.setdefault(preset, payload["assignment_sha256"])

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.run_problems


class Operation:
    def __init__(self, run: Run, label: str) -> None:
        self.run = run
        self.label = label
        self.problems: List[str] = []

    def fail(self, message: str) -> None:
        self.problems.append(message)
        self.run._note(f"{self.label}: {message}")

    def check(self, condition: bool, message: str) -> bool:
        if not condition:
            self.fail(message)
        return condition


def certify_and_encode(
    rec: SpanRecorder, op: Operation, instance, result
) -> Tuple[Dict[str, Any], int]:
    """Certify ``result`` on ``instance`` and encode it.

    Certification is Theorem 1's Nash condition, an independent Eq. 1
    recomputation compared with ``result.value``, and Theorem 2's PoA
    bound; encoding is the ``repro-result/v1`` dict with the assignment,
    then JSON.  Each call is its own span.  Returns the payload and the
    size of its JSON encoding in bytes.
    """
    from repro.core.equilibrium import (
        equilibrium_report,
        price_of_anarchy_bound,
    )
    from repro.core.objective import objective

    with rec.span("certify.nash"):
        report = equilibrium_report(instance, result.assignment)
    with rec.span("certify.objective"):
        value = objective(instance, result.assignment)
    with rec.span("certify.bounds"):
        poa = price_of_anarchy_bound(instance)
    with rec.span("encode.dict"):
        payload = result.to_dict(include_assignment=True)
    with rec.span("encode.json"):
        blob = json.dumps(payload)
    op.check(result.converged, f"stopped early ({result.stop_reason})")
    op.check(report.is_equilibrium, f"not a Nash equilibrium: {report}")
    op.check(
        objective_matches(value.total, result.value.total),
        f"Eq. 1 recomputed as {value.total!r}, result says "
        f"{result.value.total!r}",
    )
    op.check(math.isfinite(poa) and poa >= 1.0, f"PoA bound {poa!r}")
    return payload, len(blob)


def objective_matches(recomputed: float, reported: float) -> bool:
    return math.isclose(recomputed, reported, rel_tol=1e-9, abs_tol=1e-9)


@contextmanager
def timed_layers(rec: SpanRecorder) -> Iterator[None]:
    """Wrap public methods that cover a layer boundary with span timers.

    Installed on the classes for the duration of a traced run only, so
    calls the program makes internally (a clone inside a normalization,
    a rebuild inside a mutation batch) are attributed to their layer.
    """
    from repro.core.incremental import IncrementalRMGP
    from repro.core.instance import RMGPInstance

    targets = [
        (RMGPInstance, "with_alpha", "instance.clone"),
        (RMGPInstance, "with_cost", "instance.clone"),
        (RMGPInstance, "rebuild_adjacency", "incremental.rebuild"),
        (IncrementalRMGP, "resolve", "incremental.resolve"),
    ]
    originals = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in targets]

    def timer(original, name):
        def timed(*args, **kwargs):
            with rec.span(name):
                return original(*args, **kwargs)

        return timed

    for cls, attr, name in targets:
        setattr(cls, attr, timer(cls.__dict__[attr], name))
    try:
        yield
    finally:
        for cls, attr, original in originals:
            setattr(cls, attr, original)


def solve_counts(results: List[Any]) -> Dict[str, float]:
    """Players examined and the share of examinations that moved a player."""
    examined = sum(r.players_examined for res in results for r in res.rounds)
    deviations = sum(res.total_deviations for res in results)
    return {
        "solve.players_examined": float(examined),
        "solve.useful_ratio": deviations / examined if examined else 0.0,
    }


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size in MB of this process or of ``pid``."""
    if pid is not None:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for process {pid}")
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
