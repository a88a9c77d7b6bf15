"""Tests of the benchmark's own machinery (not of the program).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from inputs import (  # noqa: E402
    barabasi_albert_edges,
    poisson_schedule,
    rng_for,
    stratified_alphas,
)
from loadgen import open_loop  # noqa: E402
from pace import NOMINAL_S, Paced, RunPace, paced  # noqa: E402
from serve import KEPT, cpu_ticks, least, steal_share  # noqa: E402
from spans import (  # noqa: E402
    Span,
    SpanRecorder,
    layer_rows,
    median,
    median_of_groups,
    p95_or_max,
    self_times,
    unaccounted_ms,
    union_length,
)


def _span(span_id, parent, start, end, name="x"):
    span = Span(span_id, parent, name, 1, 0 if parent is None else 1, start, {})
    span.end = end
    return span


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        _span(1, None, 0.0, 10.0, "op"),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),  # overlaps the previous child by 1
        _span(4, 1, 8.0, 12.0),  # runs past its parent: clipped at 10
        _span(5, 2, 1.5, 2.5),  # grandchild: only its parent loses it
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)


def test_self_times_and_residual_account_for_operation_wall_time():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    with rec.span("read"):
        with rec.span("solve.gt"):
            with rec.span("instance.clone"):
                pass
        with rec.span("encode.json"):
            pass
    rows = layer_rows(rec.spans)
    assert set(rows) == {"read.residual", "solve.gt", "instance.clone",
                         "encode.json"}
    total = sum(row["total_ms"] for row in rows.values())
    assert total == pytest.approx(rec.spans[0].duration * 1e3)
    assert unaccounted_ms(rec.spans) == pytest.approx(0.0)
    assert {span.op for span in rec.spans} == {rec.spans[0].id}


def test_written_trace_passes_the_repository_schema(tmp_path):
    from repro.obs.schema import validate_trace_file

    rec = SpanRecorder()
    for _ in range(2):
        with rec.span("query"):
            with rec.span("solve.vec"):
                pass
    root = rec.spans[0]
    rec.add("client.lag", root.start, root.start, parent=root)
    path = str(tmp_path / "t.trace.jsonl")
    rec.write_jsonl(path, workload="unit")
    assert validate_trace_file(path) == []


def test_p95_needs_ten_samples_beyond_it():
    # 200 samples: rank 190 is the p95 and 10 samples lie beyond it.
    assert p95_or_max(list(range(1, 201))) == 190
    # 199 samples leave only 9 beyond rank 190: report the maximum.
    assert p95_or_max(list(range(1, 200))) == 199
    assert p95_or_max([5.0, 1.0, 3.0]) == 5.0


def test_inputs_repeat_for_a_seed_and_differ_between_seeds():
    edges = barabasi_albert_edges(300, 5, rng_for(7, "graph"))
    assert edges == barabasi_albert_edges(300, 5, rng_for(7, "graph"))
    assert edges != barabasi_albert_edges(300, 5, rng_for(8, "graph"))
    assert len(set(edges)) == len(edges) == 15 + 5 * (300 - 6)
    due = poisson_schedule(20.0, 50, rng_for(7, "due"))
    assert due == sorted(due) and due == poisson_schedule(
        20.0, 50, rng_for(7, "due"))
    alphas = stratified_alphas(rng_for(7, "alpha"), 6)
    assert [int((a - 0.2) / 0.1 + 1e-9) for a in alphas] == list(range(6))


def test_run_pace_scales_by_the_interquartile_mean_sample():
    pace = RunPace()
    pace.samples = [2.0 * NOMINAL_S, 1.0 * NOMINAL_S, 9.0 * NOMINAL_S,
                    3.0 * NOMINAL_S]
    # The interquartile mean drops the 9x sample (a brief stall) and the
    # fastest one: the host ran at 0.4 of the nominal pace.
    assert pace.factor == pytest.approx(0.4)
    pace.sample(2)
    assert len(pace.samples) == 6 and pace.samples[-1] > 0


def test_paced_time_scales_by_the_mean_of_its_two_samples():
    timing = Paced()
    timing.measured = 3.0
    # The host ran the reference at half speed on average: halve the time.
    timing.before, timing.after = 1.5 * NOMINAL_S, 2.5 * NOMINAL_S
    assert timing.seconds == pytest.approx(1.5)
    rec = SpanRecorder()
    with rec.span("op"):
        with paced(rec) as timer:
            pass
    assert timer.before > 0 and timer.after > 0
    # Each reference sample is its own child span of the operation.
    assert [s.name for s in rec.spans] == ["op"] + ["pace.reference"] * 2
    assert unaccounted_ms(rec.spans) < 1e-6


def test_the_least_stolen_repetitions_are_kept():
    assert steal_share((10, 100), (30, 200)) == pytest.approx(0.2)
    assert steal_share((10, 100), (10, 100)) == 0.0
    stolen, wanted = cpu_ticks()
    assert 0 <= stolen <= wanted
    shares = [0.3, 0.1, 0.2, 0.0, 0.5, 0.4]
    assert KEPT == 3 and least(shares) == [3, 1, 2]


def test_median_of_groups_is_steady_where_the_plain_median_is_not():
    keys = ["stored"] * 4 + ["fresh"] * 4
    stored, fresh = [10.0, 11.0, 12.0, 13.0], [30.0, 31.0, 32.0, 33.0]
    assert median_of_groups(stored + fresh, keys) == pytest.approx(21.5)
    # The plain median of an even two-kind mix averages the slowest
    # stored and the fastest fresh value; moving one moves it a lot, and
    # the median of the groups' medians not at all.
    slow = [10.0, 11.0, 12.0, 29.0] + fresh
    assert median(slow) == pytest.approx(29.5)
    assert median_of_groups(slow, keys) == pytest.approx(21.5)
    assert median_of_groups([1.0, 2.0, 9.0], ["a", "a", "b"]) == 5.25


class _SlowServer(BaseHTTPRequestHandler):
    """Answers POSTs; a body {"stall": s} sleeps s seconds first."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 - http.server API
        body = self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(json.loads(body).get("stall", 0.0))
        reply = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def slow_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SlowServer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.mark.parametrize("connections", [1, 2])
def test_open_loop_charges_a_stall_to_the_requests_behind_it(
    slow_server, connections
):
    stall = 0.6
    # The first `connections` requests stall; every connection is then
    # busy, so the requests due during the stall must wait for it.
    due = [0.02 * i for i in range(12)]
    bodies = [
        json.dumps({"stall": stall if i < connections else 0.0}).encode()
        for i in range(len(due))
    ]
    outcomes = open_loop("127.0.0.1", slow_server, "/", bodies, due,
                         connections)
    assert all(o.ok for o in outcomes)
    start = outcomes[0].due - due[0]
    for outcome, offset in zip(outcomes[connections:], due[connections:]):
        waited = start + stall - outcome.due
        assert outcome.lag >= waited - 0.02
        assert outcome.latency >= waited
    # A send-time clock would have hidden the stall entirely.
    behind = outcomes[connections]
    assert behind.done - behind.sent < 0.2 < behind.latency
