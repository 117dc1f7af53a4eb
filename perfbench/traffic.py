"""What each workload sends, and how its answers are checked.

Each workload's traffic object owns its oracle tables and its request
stream.  The same object runs against a server process (``--trace 0``)
and against the configuration hosted in-process (``--trace 1``).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from perfbench import workloads as W
from perfbench.loadgen import Connection, LoopResult, closed_loop, open_loop
from perfbench.oracle import ScoreTable, check_exact, check_pipeline, hits_lost


class Tally:
    """Operations attempted and failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.mismatches: list[str] = []
        #: Pipeline answers: exact near-threshold hits the cascade dropped.
        self.lost = 0

    def fail(self, kind: str, detail: str | None = None) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if kind == "mismatch" and detail:
            self.mismatches.append(detail)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


#: Throughput windows of the pipeline workloads' closed loops (s).
WINDOW_S = 1.0


@dataclass
class Measured:
    """One measured window."""

    #: (start, end, full-scan cells answered) per throughput window,
    #: where full-scan cells are |q| x database residues.
    windows: list[tuple[float, float, int]]
    #: Client latencies (s) of the answered queries the metric reports.
    latencies: list[float]
    #: Every answered query of the window, for per-layer accounting.
    samples: list
    #: interactive-pipeline: the open loops the latencies come from.
    opens: list[LoopResult] = field(default_factory=list)
    #: batch-exact: client time from db_append/db_retire to its ack.
    swaps: list[float] = field(default_factory=list)

    @classmethod
    def merge(cls, parts: list["Measured"]) -> "Measured":
        """Pool the windows and samples of several server starts."""
        return cls(
            windows=[w for p in parts for w in p.windows],
            latencies=[x for p in parts for x in p.latencies],
            samples=[x for p in parts for x in p.samples],
            opens=[x for p in parts for x in p.opens],
            swaps=[x for p in parts for x in p.swaps],
        )

    @property
    def loop_seconds(self) -> float:
        """Closed-loop time the throughput windows span."""
        return sum(end - start for start, end, _ in self.windows)

    @property
    def gcups(self) -> float:
        """Median window rate: steadier than the whole-loop mean when
        the host's speed wobbles for a second or two."""
        rates = sorted(cells / (end - start) / 1e9 for start, end, cells in self.windows)
        mid = len(rates) // 2
        return rates[mid] if len(rates) % 2 else (rates[mid - 1] + rates[mid]) / 2


def _windows(completions: list[tuple[float, int]], bounds: list[float]):
    """Cells completed between consecutive *bounds*."""
    out = []
    for start, end in zip(bounds, bounds[1:]):
        out.append((start, end, sum(c for t, c in completions if start < t <= end)))
    return out


def _time_windows(completions, loop: LoopResult):
    """WINDOW_S windows over the loop (the whole loop if it is shorter)."""
    count = max(1, int(loop.wall // WINDOW_S))
    width = loop.wall / count if count == 1 else WINDOW_S
    return _windows(completions, [loop.started + i * width for i in range(count + 1)])


def _answered(samples) -> list:
    return [s for s in samples if s.message.get("type") == "result"]


class BatchExact:
    """Rounds of one query set each on one connection, full scan;
    every SWAP_EVERY rounds a db_append, then the matching db_retire."""

    pipeline = None

    def __init__(self, inputs, tally: Tally):
        self.inputs = inputs
        self.tally = tally
        self.base = ScoreTable.compute(inputs.queries, list(inputs.database))
        self.appended = [
            self.base.joined(ScoreTable.compute(inputs.queries, batch))
            for batch in inputs.appends
        ]
        self.table = self.base
        self.residues = inputs.database.total_residues
        self.live = None  # (index, batch) of the appended set, if any
        self._swaps = itertools.count()
        self._round = itertools.count()

    def server_argv(self, db_path: str) -> list[str]:
        return ["serve", db_path, "--port", "0", "--backend", "processes",
                "--cpus", "2", "--gpus", "0"]

    def warm(self, conn: Connection) -> None:
        """One untimed pass over every query set."""
        for qs in self.inputs.query_sets:
            closed_loop(conn, iter((f"w.{q.id}", q) for q in qs).__next__, len(qs), 0.0, None)

    def _swap(self, conn: Connection, times: list[float]) -> None:
        self.tally.attempted += 1
        if self.live is None:
            k = next(self._swaps) % len(self.inputs.appends)
            batch = self.inputs.appends[k]
            message = {"verb": "db_append",
                       "sequences": [{"id": s.id, "sequence": s.text} for s in batch]}
        else:
            k, batch = self.live
            message = {"verb": "db_retire", "ids": [s.id for s in batch]}
        sent = time.perf_counter()
        reply = conn.request(message, ("db_info", "error"))
        times.append(time.perf_counter() - sent)
        if reply.get("type") != "db_info" or not reply.get("swapped"):
            self.tally.fail("mutation")
            return
        delta = sum(len(s) for s in batch)
        if self.live is None:
            self.live, self.table = (k, batch), self.appended[k]
            self.residues += delta
        else:
            self.live, self.table = None, self.base
            self.residues -= delta

    def measure(self, conn: Connection, seconds: float, tick=lambda: None) -> Measured:
        """Throughput windows are swap cycles (SWAP_EVERY rounds and the
        swap that ends them), so every window pays for one swap."""
        tables, cells, swaps = {}, {}, []
        cycle_ends: list[float] = []
        sets = self.inputs.query_sets

        def queries():
            while True:
                r = next(self._round)
                for q in sets[r % len(sets)]:
                    yield f"{r}.{q.id}", q

        stream = queries()

        def next_query():
            qid, q = next(stream)
            tables[qid] = self.table
            cells[qid] = len(q) * self.residues
            return qid, q

        def between(round_no: int) -> None:
            if round_no % W.SWAP_EVERY == 0:
                self._swap(conn, swaps)
                cycle_ends.append(time.perf_counter())

        loop = closed_loop(conn, next_query, W.BATCH_SET_SIZE, seconds, None,
                           between=between, tick=tick)
        if self.live is not None:  # leave the base generation serving
            self._swap(conn, swaps)
        for sample in loop.samples:
            self._check(sample, tables[sample.id])
        answered = _answered(loop.samples)
        completions = [(s.received, cells[s.id]) for s in answered]
        bounds = [loop.started] + cycle_ends if cycle_ends else [loop.started, loop.ended]
        return Measured(_windows(completions, bounds), [s.latency for s in answered],
                        answered, swaps=swaps)

    def _check(self, sample, table) -> None:
        self.tally.attempted += 1
        if _failed(sample, self.tally):
            return
        reason = check_exact(table, sample.query, sample.message["hits"], W.TOP)
        if reason:
            self.tally.fail("mismatch", reason)


def _failed(sample, tally: Tally) -> bool:
    kind = sample.message.get("type")
    if kind != "result":
        tally.fail(kind or "unknown")
        return True
    if sample.message.get("partial"):
        tally.fail("partial")
        return True
    return False


class Pipeline:
    """interactive-pipeline (one service: open loop, then a closed-loop
    capacity phase) and router-pipeline (cluster: closed loop)."""

    def __init__(self, inputs, tally: Tally):
        self.inputs = inputs
        self.tally = tally
        self.table = ScoreTable.compute(inputs.queries, list(inputs.database))
        self.interactive = inputs.workload == "interactive-pipeline"
        # The interactive server runs the cascade by default; the router's
        # shards are asked for it per request.
        self.pipeline = None if self.interactive else True
        pool = inputs.queries
        picks = W.pool_picks(inputs.seed, 1 << 16, len(pool))
        self._stream = ((f"q{i}", pool[int(p)]) for i, p in enumerate(picks))
        self._lengths = {q.id: len(q) for q in pool}

    def server_argv(self, db_path: str) -> list[str]:
        if self.interactive:
            return ["serve", db_path, "--port", "0", "--pipeline", "default"]
        return ["cluster", "serve", db_path, "--shards", str(W.ROUTER_SHARDS), "--port", "0"]

    def _next(self):
        return next(self._stream)

    def warm(self, conn: Connection) -> None:
        """16 untimed queries (also past the router's credit warm-up)."""
        closed_loop(conn, self._next, 16, 0.0, self.pipeline)

    def measure(self, conn: Connection, seconds: float, tick=lambda: None) -> Measured:
        opened = None
        if self.interactive:
            open_s = seconds * W.OPEN_SHARE
            offsets = W.poisson_schedule(self.inputs.seed, W.INTERACTIVE_RATE, open_s)
            arrivals = [(t, *self._next()) for t in offsets]
            opened = open_loop(conn, arrivals, open_s, self.pipeline, tick=tick)
            loop = closed_loop(conn, self._next, W.CAPACITY_DEPTH, seconds - open_s,
                               self.pipeline, tick=tick)
        else:
            loop = closed_loop(conn, self._next, W.ROUTER_DEPTH, seconds, self.pipeline,
                               tick=tick)
        samples = loop.samples + (opened.samples if opened else [])
        for sample in samples:
            self._check(sample)
        residues = self.inputs.database.total_residues
        completions = [(s.received, self._lengths[s.query] * residues)
                       for s in _answered(loop.samples)]
        latency_from = _answered(opened.samples if opened else loop.samples)
        return Measured(_time_windows(completions, loop), [s.latency for s in latency_from],
                        _answered(samples), opens=[opened] if opened else [])

    def _check(self, sample) -> None:
        self.tally.attempted += 1
        if _failed(sample, self.tally):
            return
        hits = sample.message["hits"]
        reason = check_pipeline(self.table, sample.query, hits, W.TOP, self.inputs.parents)
        self.tally.lost += hits_lost(self.table, sample.query, hits, W.TOP)
        if reason:
            self.tally.fail("mismatch", reason)


def make_traffic(inputs, tally: Tally):
    return (BatchExact if inputs.workload == "batch-exact" else Pipeline)(inputs, tally)
