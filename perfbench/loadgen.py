"""The load generator: one process, at most two threads and two
connections, speaking the service's NDJSON protocol.

Closed loops keep a fixed number of queries in flight on one
connection; the open loop sends on a seeded Poisson schedule from one
thread while a second thread reads.  Latency is measured from submit
(closed loop) or from the due time (open loop) to the ``result`` line.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field

from repro.service import protocol


@dataclass
class Sample:
    """One answered (or failed) query."""

    id: str
    query: str
    sent: float
    received: float
    message: dict
    due: float | None = None

    @property
    def latency(self) -> float:
        return self.received - (self.due if self.due is not None else self.sent)


@dataclass
class LoopResult:
    samples: list[Sample] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    #: Open loop only: send time minus due time, per arrival.
    lateness: list[float] = field(default_factory=list)
    #: Open loop only: queries outstanding when the window closed.
    outstanding_at_end: int = 0
    #: Open loop only: the server's admission queue depth then.
    queue_depth_at_end: int = 0

    @property
    def wall(self) -> float:
        return self.ended - self.started


class Connection:
    """One NDJSON connection; replies are matched by ``id``."""

    def __init__(self, port: int, timeout: float = 120.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, message: dict) -> float:
        self.sock.sendall(protocol.encode_message(message))
        return time.perf_counter()

    def read(self) -> dict:
        line = self.reader.readline(protocol.MAX_LINE_BYTES + 1)
        if not line:
            raise ConnectionError("server closed the connection")
        return protocol.decode_message(line)

    def request(self, message: dict, reply_types: tuple[str, ...]) -> dict:
        """Send a control verb and wait for its reply (nothing else may
        be in flight on this connection)."""
        self.send(message)
        while True:
            reply = self.read()
            if reply.get("type") in reply_types:
                return reply

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _no_tick() -> None:
    pass


def closed_loop(
    conn: Connection,
    next_query,
    depth: int,
    seconds: float,
    pipeline: bool | None,
    between=None,
    tick=_no_tick,
) -> LoopResult:
    """Keep *depth* queries in flight until *seconds* have passed.

    *next_query()* returns ``(request id, Sequence)``.  With
    *between*, the loop instead runs rounds: it sends ``depth`` queries,
    collects them all, then calls ``between(round)`` with nothing in
    flight (database swaps happen there) before the next round.
    *tick()* is called after every answer (memory sampling hooks in).
    """
    result = LoopResult(started=time.perf_counter())
    deadline = result.started + seconds
    in_flight: dict[str, tuple[str, float]] = {}

    def send_one() -> None:
        qid, query = next_query()
        request = protocol.query_request(query.text, id=qid, pipeline=pipeline)
        in_flight[qid] = (query.id, conn.send(request))

    def receive_one() -> None:
        message = conn.read()
        qid = str(message.get("id"))
        query_id, sent = in_flight.pop(qid)
        result.samples.append(Sample(qid, query_id, sent, time.perf_counter(), message))
        tick()

    round_no = 0
    if between is None:
        for _ in range(depth):
            send_one()
        while in_flight:
            receive_one()
            if time.perf_counter() < deadline:
                send_one()
    else:
        while time.perf_counter() < deadline:
            for _ in range(depth):
                send_one()
            while in_flight:
                receive_one()
            round_no += 1
            between(round_no)
    result.ended = time.perf_counter()
    return result


def open_loop(
    conn: Connection,
    arrivals,
    seconds: float,
    pipeline: bool | None,
    tick=_no_tick,
) -> LoopResult:
    """Send ``(offset, request id, Sequence)`` arrivals on schedule.

    A reader thread collects results; the sending thread sleeps until
    each arrival is due.  After the last arrival the window closes: the
    outstanding count and the server's queue depth are recorded, then
    the remaining answers are drained.  *tick()* is called before each
    send, from the sending thread.
    """
    result = LoopResult()
    due_at: dict[str, tuple[str, float]] = {}
    lock = threading.Lock()
    stats_reply: list[dict] = []
    sending_done = threading.Event()
    errors: list[BaseException] = []

    def reader() -> None:
        try:
            while not (sending_done.is_set() and stats_reply and not due_at):
                message = conn.read()
                if message.get("type") == "stats":
                    stats_reply.append(message["stats"])
                    continue
                received = time.perf_counter()
                with lock:
                    query_id, due = due_at.pop(str(message.get("id")))
                result.samples.append(
                    Sample(str(message.get("id")), query_id, due, received, message, due)
                )
        except BaseException as exc:  # surfaced by the sending thread
            errors.append(exc)

    thread = threading.Thread(target=reader, name="loadgen-reader", daemon=True)
    result.started = time.perf_counter()
    thread.start()
    for offset, qid, query in arrivals:
        tick()
        due = result.started + offset
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        with lock:
            due_at[qid] = (query.id, due)
        request = protocol.query_request(query.text, id=qid, pipeline=pipeline)
        result.lateness.append(conn.send(request) - due)
    pause = result.started + seconds - time.perf_counter()
    if pause > 0:
        time.sleep(pause)
    result.ended = time.perf_counter()
    with lock:
        result.outstanding_at_end = len(due_at)
    sending_done.set()
    conn.send({"verb": "stats"})
    thread.join(timeout=120)
    if errors:
        raise errors[0]
    if thread.is_alive():
        raise TimeoutError("open loop: answers did not drain")
    result.queue_depth_at_end = int(stats_reply[0]["requests"]["queue_depth"])
    return result
