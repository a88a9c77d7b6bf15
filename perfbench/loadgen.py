"""Open- and closed-loop HTTP load generation over keep-alive connections.

The open loop sends each request at its due time whatever happened to
earlier ones, and measures latency from when the request was *due*: a
request that waited for a free connection behind a stalled one is
charged that wait.  ``lag`` records how late each send ran.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

#: Socket timeout per request; a request slower than this fails.
REQUEST_TIMEOUT_S = 60.0

#: Gap between building the schedule and the first due time.
LEAD_S = 0.05


@dataclass
class Outcome:
    """One request as the client saw it (perf_counter seconds)."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        """Seconds from due time to the last response byte."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the send ran behind its due time."""
        return self.sent - self.due

    @property
    def ok(self) -> bool:
        return self.error is None and 200 <= self.status < 300


class _Connection:
    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.conn: Optional[http.client.HTTPConnection] = None

    def post(self, path: str, body: bytes, outcome: Outcome) -> None:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=REQUEST_TIMEOUT_S
            )
        outcome.sent = time.perf_counter()
        try:
            self.conn.request(
                "POST", path, body, {"Content-Type": "application/json"}
            )
            response = self.conn.getresponse()
            outcome.body = response.read()
            outcome.status = response.status
        except (OSError, http.client.HTTPException) as exc:
            outcome.error = f"{type(exc).__name__}: {exc}"
            self.close()
        outcome.done = time.perf_counter()

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def _run_workers(connections: int, work: Callable[[_Connection], None],
                 host: str, port: int) -> None:
    pool = [_Connection(host, port) for _ in range(connections)]
    threads = [
        threading.Thread(target=work, args=(conn,), daemon=True)
        for conn in pool
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for conn in pool:
        conn.close()


def open_loop(
    host: str,
    port: int,
    path: str,
    bodies: Sequence[bytes],
    due_offsets: Sequence[float],
    connections: int = 2,
) -> List[Outcome]:
    """Send ``bodies[i]`` at ``due_offsets[i]`` seconds after the start.

    Requests leave in schedule order on whichever connection is free;
    when every connection is busy, the next request waits, and that wait
    is part of its latency.
    """
    start = time.perf_counter() + LEAD_S
    outcomes = [
        Outcome(index=i, due=start + offset)
        for i, offset in enumerate(due_offsets)
    ]
    lock = threading.Lock()
    cursor = [0]

    def work(conn: _Connection) -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(outcomes):
                return
            outcome = outcomes[index]
            delay = outcome.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            conn.post(path, bodies[index], outcome)

    _run_workers(connections, work, host, port)
    return outcomes


def closed_loop(
    host: str,
    port: int,
    path: str,
    bodies: Sequence[bytes],
    seconds: float,
    connections: int = 2,
) -> List[Outcome]:
    """Each connection sends its next request as soon as one completes.

    Stops starting requests after ``seconds`` (or when ``bodies`` runs
    out); returns the completed outcomes in start order.
    """
    start = time.perf_counter()
    deadline = start + seconds
    outcomes: List[Outcome] = []
    lock = threading.Lock()

    def work(conn: _Connection) -> None:
        while time.perf_counter() < deadline:
            with lock:
                index = len(outcomes)
                if index >= len(bodies):
                    return
                outcome = Outcome(index=index, due=time.perf_counter())
                outcomes.append(outcome)
            conn.post(path, bodies[index], outcome)

    _run_workers(connections, work, host, port)
    return outcomes
