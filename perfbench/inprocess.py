"""The two in-process workloads: ``ingest-1e5`` and ``stream-1e4``.

Both are closed loops with one caller.  Inputs are generated from the
seed before any timer starts; the program sees only the edge list, the
cost matrix, the α values and the mutation batches.
"""

from __future__ import annotations

import gc
from typing import Dict, List

from harness import Run, certify_and_encode, objective_matches, solve_counts
from inputs import (
    barabasi_albert_edges,
    rng_for,
    stratified_alphas,
    uniform_costs,
)
from pace import paced
from spans import median, median_of_groups

# Imported up front so no set-up timer pays for loading modules.
from repro.api import SolveOptions, partition
from repro.core.equilibrium import equilibrium_report
from repro.core.incremental import IncrementalRMGP
from repro.core.instance import RMGPInstance
from repro.core.normalization import estimate_cn, normalize_with_constant
from repro.core.objective import objective
from repro.graph.social_graph import SocialGraph
from repro.streaming import MutationFeed, random_mutation_stream

#: Set-ups per untraced run; ``setup_s`` is their median.  A 10^5-node
#: set-up takes ~8 s, a 10^4-node one under 1 s.
SETUP_REPEATS = {"ingest-1e5": 2, "stream-1e4": 3}

#: Classes per instance (|P|) and Barabási–Albert attachment count.
NUM_CLASSES = 16
EDGES_PER_NODE = 5

#: The paper's solver presets, in the order stream-1e4 cycles through.
PRESETS = ("b", "se", "is", "gt", "all", "vec")

#: Range of the α each read draws.  Below α ~ 0.35 equilibria on these
#: graphs are unstable: a solve either collapses most players into one
#: class or not, which halves Eq. 1 and doubles the rounds, so the
#: objective and the work of a run would hinge on a few draws.
ALPHA_RANGE = (0.35, 0.8)

#: Which α stratum of ALPHA_RANGE (sixths, lowest first) each preset's
#: reads draw from.  The pairing is fixed, so every cycle of every seed
#: does comparable work.
ALPHA_STRATUM = {"vec": 0, "gt": 1, "is": 2, "all": 3, "se": 4, "b": 5}

#: A run's cycles: ``--seconds`` over CYCLE_SECONDS, at least MIN_CYCLES.  The count does not depend on how fast this run
#: goes, so one seed always does the same work.
CYCLE_SECONDS = {"ingest-1e5": 4.0, "stream-1e4": 3.0}
MIN_CYCLES = 2

#: Mutations per write batch; one batch follows every WRITE_EVERY reads.
BATCH_SIZE = 50
WRITE_EVERY = 3


def _graph_inputs(run: Run, num_nodes: int):
    edges = barabasi_albert_edges(
        num_nodes, EDGES_PER_NODE, rng_for(run.seed, "graph")
    )
    costs = uniform_costs(num_nodes, NUM_CLASSES, run.seed)
    return edges, costs, list(range(NUM_CLASSES))


def _build_instance(run: Run, edges, num_nodes: int, costs, classes):
    with run.rec.span("graph.from_edges"):
        graph = SocialGraph.from_edges(edges, nodes=range(num_nodes))
    with run.rec.span("instance.build"):
        return RMGPInstance(graph, classes, costs, alpha=0.5)


def _normalized_instance(run: Run, edges, num_nodes: int, costs, classes):
    """Build the instance and rescale its costs by the pessimistic C_N.

    Without RMGP_N, unit edge weights outweigh costs drawn from [0.05, 1)
    at any α above ~0.2, and every preset returns a one-class partition.
    """
    instance = _build_instance(run, edges, num_nodes, costs, classes)
    # normalize() is estimate_cn + a with_cost clone; calling the two
    # parts puts each in its own layer.
    with run.rec.span("normalization.estimate"):
        estimate = estimate_cn(instance, "pessimistic")
    return normalize_with_constant(instance, estimate.cn)


def _timed_setups(run: Run, build) -> object:
    """Run ``build`` once (traced) or SETUP_REPEATS times; keep the last.

    ``setup_s`` is the median paced time (see ``pace.py``)."""
    times: List[float] = []
    built = None
    for _ in range(1 if run.trace else SETUP_REPEATS[run.workload]):
        built = None  # free the previous set-up before collecting
        gc.collect()
        with run.rec.span("setup"):
            with paced(run.rec) as timer:
                built = build()
        times.append(timer.seconds)
    run.metrics["setup_s"] = median(times)
    return built


def _solve(run: Run, instance, preset: str):
    with run.rec.span(f"solve.{preset}"):
        return partition(
            instance, solver=preset, options=SolveOptions(seed=run.seed)
        )


def _cycles(run: Run) -> int:
    return max(MIN_CYCLES, round(run.seconds / CYCLE_SECONDS[run.workload]))


def _latency_metrics(
    run: Run, latencies: List[float], kinds: List[str]
) -> None:
    """End-to-end rate and latencies from paced operation times.

    ``queries_per_s`` is operations over their summed time.  One caller
    in a closed loop never queues, so ``serve_p50_ms`` is the typical
    operation: the median over operation kinds (presets, writes) of each
    kind's median, since the kinds' costs differ (``median_of_groups``).
    ``serve_p95_ms`` is the slowest, as a run has too few operations for
    a 95th percentile.
    """
    run.metrics["queries_per_s"] = len(latencies) / sum(latencies)
    run.metrics["serve_p50_ms"] = median_of_groups(latencies, kinds) * 1e3
    run.metrics["serve_p95_ms"] = max(latencies) * 1e3


def ingest(run: Run) -> None:
    """Cold pipeline at 10^5 nodes: ingest, normalize, query at own α."""
    num_nodes = 100_000
    edges, costs, classes = _graph_inputs(run, num_nodes)

    def build():
        return _normalized_instance(run, edges, num_nodes, costs, classes)

    instance = _timed_setups(run, build)
    latencies: List[float] = []
    kinds: List[str] = []
    encoded: List[int] = []
    first_results = {}
    objective_sum = 0.0
    for cycle in range(_cycles(run)):
        for preset in ("vec", "gt"):
            with run.operation(f"query {preset}") as op:
                with run.rec.span("query", preset=preset):
                    with paced(run.rec) as timer:
                        result = _solve(run, instance, preset)
                        payload, size = certify_and_encode(
                            run.rec, op, instance, result
                        )
                latencies.append(timer.seconds)
                kinds.append(preset)
                encoded.append(size)
                objective_sum += result.value.total
                if cycle == 0:
                    first_results[preset] = result
                    run.record_hash(preset, payload)
        if cycle == 0:
            run.first_cycle_spans = len(run.rec.spans)
    _latency_metrics(run, latencies, kinds)
    run.metrics["objective"] = objective_sum
    run.metrics["encode.bytes"] = median(encoded)
    _solve_layer_counts(run, first_results)


def stream(run: Run) -> None:
    """Reads with fresh α interleaved with mutation batches at 10^4 nodes."""
    num_nodes = 10_000
    edges, costs, classes = _graph_inputs(run, num_nodes)

    def build():
        instance = _normalized_instance(run, edges, num_nodes, costs, classes)
        with run.rec.span("incremental.engine"):
            engine = IncrementalRMGP(instance, seed=run.seed)
        return MutationFeed(engine)

    feed = _timed_setups(run, build)
    engine = feed.engine
    alpha_rng = rng_for(run.seed, "alpha")
    mutation_rng = rng_for(run.seed, "mutations")
    latencies: List[float] = []
    kinds: List[str] = []
    apply_seconds = 0.0
    encoded: List[int] = []
    first_results = {}
    moved = rounds = mutations = 0
    objective_sum = 0.0
    for cycle in range(_cycles(run)):
        strata = stratified_alphas(alpha_rng, len(PRESETS), *ALPHA_RANGE)
        for index, preset in enumerate(PRESETS):
            alpha = strata[ALPHA_STRATUM[preset]]
            with run.operation(f"read {preset} alpha={alpha}") as op:
                with run.rec.span("read", preset=preset, alpha=alpha):
                    with paced(run.rec) as timer:
                        clone = engine.instance.with_alpha(alpha)
                        result = _solve(run, clone, preset)
                        payload, size = certify_and_encode(
                            run.rec, op, clone, result
                        )
                latencies.append(timer.seconds)
                kinds.append(preset)
                encoded.append(size)
                objective_sum += result.value.total
                if cycle == 0:
                    first_results[preset] = result
                    run.record_hash(preset, payload)
            if index % WRITE_EVERY != WRITE_EVERY - 1:
                continue
            batch = random_mutation_stream(
                engine.instance, BATCH_SIZE, seed=mutation_rng.getrandbits(31)
            )
            with run.operation("write") as op:
                with run.rec.span("write", size=len(batch)):
                    with paced(run.rec) as timer:
                        with run.rec.span("write.apply"):
                            result, stats = feed.apply(batch)
                    apply_seconds += timer.seconds
                    latencies.append(timer.seconds)
                    kinds.append("write")
                    with run.rec.span("certify.nash"):
                        report = equilibrium_report(
                            engine.instance, result.assignment
                        )
                    with run.rec.span("certify.objective"):
                        value = objective(engine.instance, result.assignment)
                op.check(stats.size == len(batch), "batch not fully applied")
                op.check(result.converged, "resolve stopped early")
                op.check(report.is_equilibrium, f"write left {report}")
                op.check(
                    objective_matches(value.total, result.value.total),
                    f"Eq. 1 recomputed as {value.total!r}, result says "
                    f"{result.value.total!r}",
                )
                mutations += len(batch)
                if cycle == 0:
                    # Not added to the objective: the batches drift α
                    # uniformly, which would swamp the sum.
                    run.record_hash("write", result.to_dict())
                    moved += stats.vertices_moved
                    rounds += stats.rounds
        if cycle == 0:
            run.first_cycle_spans = len(run.rec.spans)
    # Writes are operations too: a slower rebuild under churn lowers
    # queries_per_s here even if reads get faster.
    _latency_metrics(run, latencies, kinds)
    run.metrics["mutations_per_s"] = mutations / apply_seconds
    run.metrics["objective"] = objective_sum
    run.metrics["encode.bytes"] = median(encoded)
    run.metrics["incremental.moved"] = float(moved)
    run.metrics["incremental.resolve_rounds"] = float(rounds)
    _solve_layer_counts(run, first_results)


def _solve_layer_counts(run: Run, results: Dict[str, object]) -> None:
    for preset, result in results.items():
        run.metrics[f"solve.{preset}.rounds"] = float(result.num_rounds)
    run.metrics.update(solve_counts(list(results.values())))
