"""The ``serve-1e3`` workload: open-loop HTTP traffic against ``repro serve``.

The server runs as a subprocess with its default configuration; the
load generator is this process, with at most two threads and two
keep-alive connections.  Requests follow a seeded Poisson schedule and
their latency is measured from when each was due.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import Run, objective_matches, peak_rss_mb
from inputs import poisson_schedule, rng_for, stratified_alphas
from loadgen import Outcome, closed_loop, open_loop
from spans import median, median_of_groups, nearest_rank, p95_or_max

USERS, EVENTS = 1000, 16
INSTANCE_SEEDS = (0, 1, 2, 3)
SOLVER_MIX = (("gt", 0.6), ("vec", 0.2), ("all", 0.2))
#: The α the resident instances are built with: requests at it need no clone.
STORED_ALPHA = 0.5
CONNECTIONS = 2

WARMUP_RATE = 10.0
#: At 20 req/s the server is ~60% busy on a 2-core box, and queueing
#: multiplies every swing of the host's pace: one schedule's median moved
#: from 18 to 31 ms within minutes.  At 10 req/s it held 16-17 ms.
NOMINAL_RATE = 10.0
#: Ladder for serve_max_ok_rps (traced run), lowest first.
LADDER = (10.0, 20.0, 30.0, 40.0)
#: A ladder step passes when p95 (and the median of its last third, which
#: catches a growing backlog) stays within this limit with no failures.
LATENCY_LIMIT_MS = 200.0

SETUP_REPEATS = 2
#: Pace samples per idle gap between boots and steps (``pace.py``).
GAP_SAMPLES = 3
#: The nominal step and the closed loop each run this many times, and
#: the metrics keep the KEPT repetitions of each that the hypervisor
#: stole the least CPU time from (``steal_share``).  The nominal plan is
#: the same each time, on another seeded Poisson schedule: which requests
#: overlap in the server sets its latencies, so one schedule repeated
#: would make the median a property of the seed.  ``serve_p50_ms`` pools
#: the kept repetitions, ``queries_per_s`` is their median burst; both
#: are paced by the run (``pace.RunPace``).
REPEATS = 6
KEPT = 3
#: Samples the traced run's nominal step needs, so that ten lie beyond
#: its 95th percentile.
P95_SAMPLES = 200
#: The closed-loop plan: CLOSED_BLOCKS blocks of CLOSED_BLOCK requests.
CLOSED_BLOCK = 20
CLOSED_BLOCKS = 200
#: Every Nth nominal request: server trace fetched / solved in-process too.
TRACE_SAMPLE_EVERY = 4
HASH_CHECK_EVERY = 8
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
SOLVE_PATH = "/v1/solve"


class ServerProcess:
    """``python -m repro serve --port 0`` as a child process."""

    def __init__(self, root: str, traced: bool) -> None:
        self.root = root
        self.traced = traced
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self._drain: Optional[threading.Thread] = None

    def start(self) -> None:
        import http.client

        command = [sys.executable, "-u", "-m", "repro", "serve", "--port", "0"]
        if not self.traced:
            command.append("--no-trace")
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            command,
            cwd=self.root,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        match = re.search(r":(\d+)/v1", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not report a port: {line!r}")
        self.port = int(match.group(1))
        # Keep reading so the child never blocks on a full pipe.
        self._drain = threading.Thread(
            target=self.proc.stdout.read, daemon=True
        )
        self._drain.start()
        deadline = time.perf_counter() + BOOT_TIMEOUT_S
        while True:
            try:
                status, _ = self.request("GET", "/v1/health")
                if status == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("server never answered /v1/health")
            time.sleep(0.01)

    def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body, headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def warm(self, seed: int) -> None:
        """Make every instance the traffic uses resident in the store."""
        for instance_seed in INSTANCE_SEEDS:
            body = request_body("gt", STORED_ALPHA, instance_seed, seed)
            status, data = self.request("POST", SOLVE_PATH, body)
            if status != 200:
                raise RuntimeError(f"warm-up solve failed: {status} {data!r}")

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=STOP_TIMEOUT_S)
        self.proc.stdout.close()
        self.proc = None

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def request_body(
    solver: str, alpha: float, instance_seed: int, seed: int
) -> bytes:
    return json.dumps(
        {
            "instance": {
                "dataset": "gowalla",
                "users": USERS,
                "events": EVENTS,
                "seed": instance_seed,
            },
            "solver": solver,
            "options": {"seed": seed, "alpha": alpha},
            "wait": True,
            "include_assignment": True,
        }
    ).encode()


def request_plan(
    seed: int, purpose: str, count: int
) -> Tuple[List[bytes], List[Tuple[str, float, int]]]:
    """``count`` seeded request bodies and their (solver, α, instance).

    The mix is exact and joint, in seeded order: SOLVER_MIX shares of
    solvers, each solver's requests half at the stored α and half at a
    fresh α, and each of those halves spread evenly over the instances.
    Latency is bimodal (a fresh α costs a clone) and depends on the
    solver, so drawing the mix per request would move each half's median
    between seeds by how many of ~100 requests drew the slow solver.
    The fresh α values take one stratum each of [0.2, 0.8), so their
    spread over that range, and with it Eq. 1, barely varies by seed.
    """
    rng = rng_for(seed, purpose)
    solvers = [name for name, share in SOLVER_MIX
               for _ in range(round(share * count))]
    solvers = (solvers + [SOLVER_MIX[0][0]] * count)[:count]
    # Solvers come in runs, so alternating freshness halves each run, and
    # cycling instances over (stored, fresh) pairs spreads both halves.
    fresh = [i % 2 == 1 for i in range(count)]
    instances = [INSTANCE_SEEDS[i // 2 % len(INSTANCE_SEEDS)]
                 for i in range(count)]
    alphas = stratified_alphas(rng, sum(fresh))
    rng.shuffle(alphas)
    specs = [
        (solver, alphas.pop() if new else STORED_ALPHA, instance)
        for solver, new, instance in zip(solvers, fresh, instances)
    ]
    rng.shuffle(specs)
    bodies = [request_body(s, a, i, seed) for s, a, i in specs]
    return bodies, specs


def closed_plan(seed: int) -> Tuple[List[bytes], List[Tuple[str, float, int]]]:
    """Request plan for the closed loop: blocks of CLOSED_BLOCK requests,
    each with the exact mix, so the prefix a burst completes is the mix
    to within one block whatever its length."""
    bodies, specs = [], []
    for block in range(CLOSED_BLOCKS):
        more = request_plan(seed, f"closed/{block}", CLOSED_BLOCK)
        bodies.extend(more[0])
        specs.extend(more[1])
    return bodies, specs


def run_step(
    server: ServerProcess, seed: int, rate: float, seconds: float, tag: str,
    schedule: int = 0,
):
    """One open-loop step: the seeded plan for ``tag`` at ``rate``, sent on
    its ``schedule``-th seeded Poisson schedule."""
    count = max(1, int(round(rate * seconds)))
    bodies, specs = request_plan(seed, f"{tag}@{rate}", count)
    due = poisson_schedule(
        rate, count, rng_for(seed, f"{tag}@{rate}/due/{schedule}"))
    outcomes = open_loop(
        "127.0.0.1", server.port, SOLVE_PATH, bodies, due, CONNECTIONS
    )
    return outcomes, specs


def step_passes(outcomes: Sequence[Outcome]) -> bool:
    if not outcomes or not all(o.ok for o in outcomes):
        return False
    latencies = [o.latency * 1e3 for o in outcomes]
    p95, _ = nearest_rank(sorted(latencies), 95.0)
    tail = latencies[2 * len(latencies) // 3:]
    return p95 <= LATENCY_LIMIT_MS and median(tail) <= LATENCY_LIMIT_MS


class References:
    """In-process copies of the served instances, for output checks."""

    def __init__(self) -> None:
        from repro.core.instance import RMGPInstance
        from repro.datasets import load_dataset

        self.instances = {}
        for instance_seed in INSTANCE_SEEDS:
            data = load_dataset(
                "gowalla",
                num_users=USERS,
                num_events=EVENTS,
                seed=instance_seed,
                use_cache=False,
            )
            self.instances[instance_seed] = RMGPInstance(
                data.graph, data.event_ids, data.cost_matrix()
            )

    def at(self, instance_seed: int, alpha: float):
        instance = self.instances[instance_seed]
        return instance if alpha == instance.alpha else instance.with_alpha(alpha)


def check_outcomes(
    run: Run,
    outcomes: Sequence[Outcome],
    specs: Sequence[Tuple[str, float, int]],
    label: str,
    refs: References,
    certify: bool = False,
    same_as: Optional[Sequence[Optional[dict]]] = None,
) -> List[Optional[dict]]:
    """Count each request as an operation and check its body.

    Every body must be a 2xx ``done`` job whose result passes
    ``validate_result``, converged, and has the Eq. 1 total that
    ``core.objective.objective`` gives on an in-process copy of its
    instance.  With ``certify``, every HASH_CHECK_EVERY-th result is
    also certified Nash at its α and re-solved in-process, compared by
    assignment sha256.  ``same_as`` holds the payloads of an earlier
    repetition of the same requests, which must match by sha256.
    """
    from repro.api import SolveOptions, partition
    from repro.core.equilibrium import equilibrium_report
    from repro.core.objective import ObjectiveValue, objective
    from repro.core.result_schema import validate_result

    payloads: List[Optional[dict]] = []
    for position, (outcome, (solver, alpha, inst_seed)) in enumerate(
        zip(outcomes, specs)
    ):
        payload = None
        with run.operation(f"{label} #{outcome.index} {solver}") as op:
            if not op.check(
                outcome.ok,
                f"status {outcome.status} {outcome.error or ''} "
                f"{outcome.body[:200]!r}",
            ):
                payloads.append(None)
                continue
            payload = json.loads(outcome.body)
            result = payload.get("result")
            op.check(payload.get("state") == "done",
                     f"state {payload.get('state')!r}")
            errors = validate_result(result)
            if not op.check(not errors, f"schema: {errors[:3]}"):
                payloads.append(None)
                continue
            op.check(result["converged"], f"stopped: {result['stop_reason']}")
            assignment = np.asarray(result["assignment"], dtype=np.int64)
            # Eq. 1's two sums do not depend on α: evaluate them on the
            # stored instance and weigh them at the request's α.
            value = objective(refs.instances[inst_seed], assignment)
            total = ObjectiveValue(
                value.assignment_cost, value.social_cost, alpha
            ).total
            op.check(
                objective_matches(total, result["objective"]["total"]),
                f"Eq. 1 recomputed as {total!r}, served "
                f"{result['objective']['total']!r}",
            )
            if certify and position % HASH_CHECK_EVERY == 0:
                instance = refs.at(inst_seed, alpha)
                report = equilibrium_report(instance, assignment)
                op.check(report.is_equilibrium, f"served {report}")
                local = partition(
                    instance, solver=solver,
                    options=SolveOptions(seed=run.seed),
                ).to_dict()
                op.check(
                    local["assignment_sha256"] == result["assignment_sha256"],
                    "served assignment differs from in-process solve",
                )
            if same_as is not None and same_as[position] is not None:
                op.check(
                    same_as[position]["result"]["assignment_sha256"]
                    == result["assignment_sha256"],
                    "served assignment differs between repetitions",
                )
            run.hashes.setdefault(solver, result["assignment_sha256"])
        payloads.append(payload)
    return payloads


def _boot(run: Run, traced: bool) -> Tuple[ServerProcess, float]:
    """Start and warm a server; returns it and the set-up time."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    server = ServerProcess(root, traced)
    start = time.perf_counter()
    server.start()
    try:
        server.warm(run.seed)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


def serve(run: Run) -> None:
    refs = References()
    if run.trace:
        _serve_traced(run, refs)
        return
    setup_times = []
    server = None
    pace = run.pace
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            pace.sample(GAP_SAMPLES)
            server, elapsed = _boot(run, traced=False)
            setup_times.append(elapsed)
        pace.sample(GAP_SAMPLES)
        warmup = run_step(server, run.seed, WARMUP_RATE, run.seconds / 5,
                          "warmup")
        bodies, specs = closed_plan(run.seed)
        blocks, closed, rates = [], [], []
        block_steal, burst_steal = [], []
        # Alternate the two so each metric meets the host at REPEATS
        # times spread over the run.
        for repeat in range(REPEATS):
            pace.sample(GAP_SAMPLES)
            ticks = cpu_ticks()
            blocks.append(run_step(server, run.seed, NOMINAL_RATE,
                                   run.seconds / 3, "nominal", repeat))
            block_steal.append(steal_share(ticks, cpu_ticks()))
            pace.sample(GAP_SAMPLES)
            ticks = cpu_ticks()
            outcomes = closed_loop("127.0.0.1", server.port, SOLVE_PATH,
                                   bodies, run.seconds / 5, CONNECTIONS)
            burst_steal.append(steal_share(ticks, cpu_ticks()))
            closed.append(outcomes)
            busy = max(o.done for o in outcomes) - min(o.sent for o in outcomes)
            rates.append(sum(1 for o in outcomes if o.ok) / busy)
        pace.sample(GAP_SAMPLES)
        run.metrics["peak_rss_mb"] = peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()
    check_outcomes(run, *warmup, "warmup", refs)
    payloads = check_outcomes(run, *blocks[0], "nominal", refs, certify=True)
    for block in blocks[1:]:
        check_outcomes(run, *block, "nominal", refs, same_as=payloads)
    for outcomes in closed:
        check_outcomes(run, outcomes, specs[: len(outcomes)], "closed", refs)
    factor = pace.factor
    kept = [blocks[i] for i in least(block_steal)]
    run.metrics["setup_s"] = median(setup_times) * factor
    run.metrics["serve_p50_ms"] = _p50(
        [o for outcomes, _ in kept for o in outcomes],
        [spec for _, step_specs in kept for spec in step_specs]) * factor * 1e3
    run.metrics["queries_per_s"] = median(
        [rates[i] for i in least(burst_steal)]) / factor
    run.metrics["objective"] = _objective(payloads)


def cpu_ticks() -> Tuple[int, int]:
    """(stolen, wanted) CPU time of the machine since boot, in ticks.

    *Stolen* is time the hypervisor ran another guest while one of ours
    was ready to run; *wanted* adds the time ours did run.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(x) for x in handle.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return steal, user + nice + system + irq + softirq + steal


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of the CPU time wanted between two ``cpu_ticks`` that was
    stolen.  A served request waits for the machine at every wakeup, so
    its latency suffers far more than its share of stolen time: one
    seed's median was 35 ms with a fifth of the time stolen and 21 ms
    with none."""
    wanted = after[1] - before[1]
    return (after[0] - before[0]) / wanted if wanted else 0.0


def least(shares: Sequence[float]) -> List[int]:
    """Indices of the KEPT least-stolen repetitions."""
    return sorted(range(len(shares)), key=shares.__getitem__)[:KEPT]


def _p50(outcomes: Sequence[Outcome],
         specs: Sequence[Tuple[str, float, int]]) -> float:
    """Median latency of the stored-α and fresh-α halves' medians.

    A fresh α costs a clone, ~3x a stored-α request, so the exact
    half-and-half mix is bimodal (see ``median_of_groups``).
    """
    return median_of_groups([o.latency for o in outcomes],
                            [spec[1] == STORED_ALPHA for spec in specs])


def _objective(payloads: Sequence[Optional[dict]]) -> float:
    """Sum of the served results' Eq. 1 totals."""
    return sum(p["result"]["objective"]["total"] for p in payloads if p)


def _serve_traced(run: Run, refs: References) -> None:
    """Per-layer run: untraced nominal step, then the traced ladder."""
    nominal_seconds = P95_SAMPLES / NOMINAL_RATE
    with _boot(run, traced=False)[0] as server:
        run_step(server, run.seed, WARMUP_RATE, run.seconds / 5, "warmup")
        untraced, _ = run_step(server, run.seed, NOMINAL_RATE,
                               nominal_seconds, "nominal")
    server, _ = _boot(run, traced=True)
    with server:
        warmup = run_step(server, run.seed, WARMUP_RATE, run.seconds / 5,
                          "warmup")
        nominal = run_step(server, run.seed, NOMINAL_RATE, nominal_seconds,
                           "nominal")
        traces = _fetch_traces(server, nominal[0])
        health = json.loads(server.request("GET", "/v1/health")[1])
        store = json.loads(server.request("GET", "/v1/instances")[1])
        metrics_text = server.request("GET", "/metrics")[1].decode()
        max_ok = 0.0
        for rate in LADDER:
            if rate == NOMINAL_RATE:
                outcomes = nominal[0]
            else:
                outcomes, _ = run_step(server, run.seed, rate,
                                       run.seconds / 2, "ladder")
            if not step_passes(outcomes):
                break
            max_ok = rate
    check_outcomes(run, *warmup, "warmup", refs)
    payloads = check_outcomes(run, *nominal, "nominal", refs, certify=True)
    outcomes, specs = nominal
    p50_traced = _p50(outcomes, specs)
    p50_untraced = _p50(untraced, specs)
    m = run.metrics
    m["objective"] = _objective(payloads)
    m["serve_max_ok_rps"] = max_ok
    m["trace.overhead_pct"] = (p50_traced / p50_untraced - 1.0) * 100.0
    m["serve_p95_ms"] = p95_or_max([o.latency for o in outcomes]) * 1e3
    m["client.lag_ms"] = median([o.lag for o in outcomes]) * 1e3
    m["serve.response_bytes"] = median([len(o.body) for o in outcomes])
    m["store.hit_ratio"] = store["hits"] / (store["hits"] + store["misses"])
    m["admission.queue_depth_max"] = float(health["queue"]["max_depth_seen"])
    m["admission.rejected"] = _counter(metrics_text, "repro_serve_rejected_total")
    _record_request_spans(run, outcomes, specs, traces)


def _fetch_traces(
    server: ServerProcess, outcomes: Sequence[Outcome]
) -> Dict[int, Dict[str, dict]]:
    """Server spans of every TRACE_SAMPLE_EVERY-th request, by index."""
    traces: Dict[int, Dict[str, dict]] = {}
    for outcome in outcomes[::TRACE_SAMPLE_EVERY]:
        if not outcome.ok:
            continue
        job = json.loads(outcome.body)["job"]
        status, body = server.request("GET", f"/v1/jobs/{job}/trace")
        if status != 200:
            raise RuntimeError(f"trace of {job}: HTTP {status} {body[:200]!r}")
        spans = {}
        for line in body.decode().splitlines():
            record = json.loads(line)
            if record.get("type") == "span":
                spans.setdefault(record["name"], record)
        traces[outcome.index] = spans
    return traces


def _counter(text: str, name: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name + " ") or line.startswith(name + "{"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def _record_request_spans(
    run: Run,
    outcomes: Sequence[Outcome],
    specs: Sequence[Tuple[str, float, int]],
    traces: Dict[int, Dict[str, dict]],
) -> None:
    """Client spans per request, with the server's spans for samples.

    The server's queue-wait and solve spans are placed at their offset
    from its ``serve.request`` span, anchored at the client's send time
    (the two processes share no clock).  ``serve.unattributed_ms`` is
    client latency (send to last byte) minus queue wait and solve.
    """
    rec = run.rec
    queue_wait, solve, unattributed, outside = [], [], [], []
    by_solver: Dict[str, List[float]] = {}
    rows = []
    for outcome, (solver, alpha, inst_seed) in zip(outcomes, specs):
        root = rec.add("request", outcome.due, outcome.done, solver=solver,
                       alpha=alpha, instance=inst_seed)
        rec.add("client.lag", outcome.due, outcome.sent, parent=root)
        spans = traces.get(outcome.index)
        if not spans:
            continue
        request = spans["serve.request"]
        waited = spans["serve.queue_wait"]
        solved = spans["job.solve"]
        wall = outcome.done - outcome.sent
        parent = rec.add(
            "serve.request",
            outcome.sent,
            min(outcome.done, outcome.sent + request["end"] - request["start"]),
            parent=root,
        )
        for name, span in (("serve.queue_wait", waited), ("job.solve", solved)):
            start = min(parent.end,
                        outcome.sent + span["start"] - request["start"])
            end = min(parent.end, start + span["end"] - span["start"])
            rec.add(name, start, end, parent=parent)
        qw = waited["end"] - waited["start"]
        sv = solved["end"] - solved["start"]
        queue_wait.append(qw)
        solve.append(sv)
        unattributed.append(wall - qw - sv)
        outside.append(wall - (request["end"] - request["start"]))
        by_solver.setdefault(solver, []).append(sv)
        rows.append({"request": outcome.index, "solver": solver,
                     "client_ms": wall * 1e3, "queue_wait_ms": qw * 1e3,
                     "solve_ms": sv * 1e3,
                     "unattributed_ms": (wall - qw - sv) * 1e3})
    m = run.metrics
    m["serve.queue_wait_ms"] = median(queue_wait) * 1e3
    m["serve.solve_ms"] = median(solve) * 1e3
    m["serve.unattributed_ms"] = median(unattributed) * 1e3
    # Client latency outside the server's serve.request span: HTTP
    # parsing, response encoding and the socket, on both sides.
    m["trace.residual_ms"] = median(outside) * 1e3
    for solver, times in by_solver.items():
        m[f"solve.{solver}_ms"] = median(times) * 1e3
    run.serve_rows = rows
