"""Run one workload of the end-to-end benchmark and print its metrics.

Usage, from the root of a checkout of the repository::

    python3 perfbench/run.py --workload ingest-1e5 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload serve-1e3 --seed 1 --seconds 12 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The line before it summarises the run (objective,
assignment hashes, first problems).  Traced runs also write
``perfbench/out/<workload>-seed<seed>.trace.jsonl`` (``repro-trace/v2``)
and ``.layers.json`` (self time per layer, residual rows included).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Workload -> (module, function, whether it runs the program in this
#: process and so gets runtime span timers on the program's methods).
WORKLOADS = {
    "ingest-1e5": ("inprocess", "ingest", True),
    "stream-1e4": ("inprocess", "stream", True),
    "serve-1e3": ("serve", "serve", False),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def finish_trace(run) -> None:
    """Derive the span-based layer metrics, write and check the trace."""
    from spans import SpanRecorder, layer_rows, median, self_times
    from spans import unaccounted_ms

    spans = run.rec.spans
    own = self_times(spans)
    rows = layer_rows(spans)
    for name, row in rows.items():
        if not name.endswith(".residual"):
            run.metrics.setdefault(f"{name}_ms", row["median_ms"])
    first = spans[: run.first_cycle_spans or len(spans)]
    for metric, name in (("instance.clone_count", "instance.clone"),
                         ("incremental.rebuild_count", "incremental.rebuild")):
        run.metrics.setdefault(
            metric, float(sum(1 for s in first if s.name == name))
        )
    ops = [s for s in spans if s.parent is None and s.name != "setup"]
    run.metrics.setdefault(
        "trace.residual_ms", median([own[s.id] for s in ops]) * 1e3
    )
    if "trace.overhead_pct" not in run.metrics:
        # In-process workloads: the recorder's own cost per span, times
        # spans per operation, over the median operation wall time.
        probe = SpanRecorder()
        start = time.perf_counter()
        for _ in range(2000):
            with probe.span("probe"):
                pass
        per_span = (time.perf_counter() - start) / 2000
        op_ids = {s.id for s in ops}
        per_op = sum(1 for s in spans if s.op in op_ids) / max(1, len(ops))
        wall = median([s.duration for s in ops])
        run.metrics["trace.overhead_pct"] = per_span * per_op / wall * 100.0
    gap = unaccounted_ms(spans)
    if gap > 1e-6:
        run.run_problems.append(
            f"self times miss {gap:.3g} ms of an operation's wall time"
        )

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{run.workload}-seed{run.seed}")
    run.rec.write_jsonl(stem + ".trace.jsonl", workload=run.workload,
                        seed=run.seed)
    with open(stem + ".layers.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": run.workload, "seed": run.seed,
                   "layers": rows, "unaccounted_ms": gap,
                   "requests": run.serve_rows},
                  handle, indent=1)
    env = dict(os.environ, PYTHONPATH=SRC)
    check = subprocess.run(
        [sys.executable, "-m", "repro.obs.schema", stem + ".trace.jsonl"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if check.returncode != 0:
        run.run_problems.append(f"trace schema: {check.stdout[-500:]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(SRC, "repro")) or not os.path.isfile(
        spec_path
    ):
        print(
            "perfbench: run from the root of a checkout holding src/repro "
            "and BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, SRC)

    from harness import Run, peak_rss_mb, timed_layers

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    module, name, in_process = WORKLOADS[args.workload]
    function = getattr(importlib.import_module(module), name)
    if run.trace and in_process:
        with timed_layers(run.rec):
            function(run)
    else:
        function(run)
    if run.trace:
        finish_trace(run)
    run.metrics.setdefault("peak_rss_mb", peak_rss_mb())
    run.metrics["error_rate"] = run.failed / max(1, run.attempted)

    declared = spec["per_layer" if run.trace else "end_to_end"]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in run.metrics and not run.trace:
            raise RuntimeError(f"{args.workload} did not measure {name}")
        # A layer this workload does not exercise reads 0.
        value = float(run.metrics.get(name, 0.0))
        metrics[name] = {"value": value, "unit": entry["unit"]}
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "objective": run.metrics.get("objective"),
        # serve-1e3 paces by the run (pace.RunPace); the others by operation.
        "pace_factor": run.pace.factor if run.pace.samples else None,
        "assignment_sha256": run.hashes,
        "problems": run.problems[:5] + run.run_problems,
    }
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
