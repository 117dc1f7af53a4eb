"""The traced run: the same configuration hosted in this process, with
span wrappers around the layers' public functions.

Wrappers are installed from here (the program is not modified): each
call records a span with its name, start, end, parent span (the
enclosing wrapped call on the same thread), thread, and the request ids
it served.  Spans stay in memory until the run ends.  A span's self
time is its duration minus the part of it its child spans cover.

Kernels that run in worker processes are reported from the ``stats``
verb's roles block (busy time and cells), not from spans.  The run
measures the loop twice, first untraced and then traced, so the
difference between the two latency medians is the tracing overhead.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
import weakref
from dataclasses import dataclass, field

@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    thread: str = ""
    tags: frozenset = frozenset()
    children: list = field(default_factory=list)
    result: object = None
    #: The pool batch this span ran for (itself, for a batch span).
    batch: "Span | None" = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - covered(
            [(c.start, c.end) for c in self.children], self.start, self.end
        )


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Recorder:
    """Collects spans from wrapped functions, in this process only."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self._pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Threads started inside a pool batch -> that batch's span.
        self._thread_batch: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, tagger=None, batch: bool = False):
        """*tagger(args, kwargs, result)* names the request ids a call
        served; a span without one inherits its parent's, or on a thread
        a pool batch started, that batch's."""
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.enabled or os.getpid() != recorder._pid:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            current = threading.current_thread()
            span = Span(name, time.perf_counter(), thread=f"{current.name}#{current.ident}")
            if stack:
                span.parent = stack[-1]
                span.tags, span.batch = span.parent.tags, span.parent.batch
            else:
                span.batch = recorder._thread_batch.get(current)
                span.tags = span.batch.tags if span.batch else frozenset()
            if batch:
                span.tags, span.batch = tagger(args, kwargs, None), span
            stack.append(span)
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if tagger is not None and not batch:
                    span.tags = span.tags | tagger(args, kwargs, span.result)
                if not batch:
                    span.result = None
                with recorder._lock:
                    recorder.spans.append(span)
                    if span.parent is not None:
                        span.parent.children.append(span)

        wrapper.__wrapped__ = fn
        return wrapper

    def track_threads(self) -> None:
        """Remember which pool batch started each thread."""
        recorder, original = self, threading.Thread.start

        def start(thread):
            if recorder.enabled:
                batches = [s for s in recorder._stack() if s.batch is s]
                if batches:
                    recorder._thread_batch[thread] = batches[-1]
            return original(thread)

        self.replace(threading.Thread, "start", start)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` (a module or class) until :meth:`unpatch`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name: str, tagger=None) -> None:
        """Wrap ``module.attr`` and every ``repro`` module's binding of it."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, tagger)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("repro") and getattr(mod, attr, None) is original:
                self.replace(mod, attr, wrapped)

    def patch_method(self, cls, attr: str, name: str, tagger=None, batch=False) -> None:
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            self.replace(cls, attr, classmethod(self.wrap(name, original.__func__, tagger)))
        else:
            self.replace(cls, attr, self.wrap(name, original, tagger, batch=batch))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def _message_id(args, kwargs, result) -> frozenset:
    message = result if isinstance(result, dict) else (args[0] if args else None)
    if isinstance(message, dict) and message.get("id") is not None:
        return frozenset([str(message["id"])])
    return frozenset()


def install(recorder: Recorder) -> None:
    """Wrap the public functions of each layer."""
    from repro.align import banded, pipeline
    from repro.engine import master, results
    from repro.sequences import packed, shm
    from repro.service import pool, protocol

    recorder.track_threads()
    recorder.patch_function(protocol, "encode_message", "protocol.encode", _message_id)
    recorder.patch_function(protocol, "decode_message", "protocol.decode", _message_id)
    recorder.patch_function(master, "predict_static_allocation", "sched.allocate")
    recorder.patch_function(pipeline, "prescreen_chunk", "pipeline.prescreen")
    recorder.patch_function(banded, "sw_score_banded", "pipeline.banded")
    # The cascade's exact rescore goes through the batch kernel it shares
    # with the full scan; only the cascade's binding is wrapped.
    recorder.replace(pipeline, "_score_chunk_adaptive",
                     recorder.wrap("pipeline.rescore", pipeline._score_chunk_adaptive))
    recorder.patch_function(results, "merge_query_results", "router.merge",
                            lambda a, k, r: frozenset(str(q.query_id) for q in a[0]))
    recorder.patch_function(shm, "share_packed", "setup.share")
    recorder.patch_method(packed.PackedDatabase, "from_database", "setup.pack")
    recorder.patch_method(pool.WarmPool, "start", "setup.pool_start")
    recorder.patch_method(
        pool.WarmPool, "run_batch", "pool.batch",
        tagger=lambda a, k, r: frozenset(str(q.id) for q in a[1]), batch=True,
    )


# -- hosting the configuration in-process -------------------------------


class Hosted:
    """The workload's server configuration inside this process."""

    def __init__(self, inputs, db_path: str):
        from repro.engine.pipeline import preset_config
        from repro.sequences import SequenceDatabase
        from repro.service import SearchService
        from perfbench import workloads as W

        t = time.perf_counter()
        database = SequenceDatabase.from_fasta(db_path)
        self.load_db_s = time.perf_counter() - t
        self.router = None
        if inputs.workload == "batch-exact":
            self.services = [SearchService(database, port=0, backend="processes",
                                           num_cpu_workers=2, num_gpu_workers=0)]
        elif inputs.workload == "interactive-pipeline":
            self.services = [SearchService(database, port=0, pipeline=preset_config("default"))]
        else:
            from repro.cluster import ScatterGatherRouter
            from repro.cluster.topology import ClusterTopology, ShardEndpoint
            from repro.engine.sharded import shard_database

            self.services = [
                SearchService(shard, port=0, num_cpu_workers=1, num_gpu_workers=0)
                for shard in shard_database(database, W.ROUTER_SHARDS)
            ]
        for service in self.services:
            service.start()
        if inputs.workload == "router-pipeline":
            topology = ClusterTopology("perfbench", tuple(
                ShardEndpoint(f"shard{i}", *s.address) for i, s in enumerate(self.services)
            ))
            self.router = ScatterGatherRouter(topology, port=0)
            self.router.start()
        front = self.router or self.services[0]
        self.port = front.address[1]

    def stats(self) -> dict:
        """Front-end stats plus, behind a router, each shard's."""
        snap = {"front": _verb(self.port, {"verb": "stats"})["stats"]}
        snap["services"] = [_verb(s.address[1], {"verb": "stats"})["stats"] for s in self.services]
        snap["metrics"] = [_verb(s.address[1], {"verb": "metrics"})["body"] for s in self.services]
        return snap

    def close(self) -> None:
        if self.router is not None:
            self.router.shutdown()
        for service in self.services:
            service.shutdown()


def _verb(port: int, message: dict) -> dict:
    from repro.service import protocol

    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(protocol.encode_message(message))
        return protocol.decode_message(sock.makefile("rb").readline())


# -- the traced run -----------------------------------------------------


def _roles_delta(before: list[dict], after: list[dict]) -> dict[str, dict[str, float]]:
    """Per role: cells, busy seconds, steals summed over services."""
    out: dict[str, dict[str, float]] = {}
    for b, a in zip(before, after):
        for role, stats in a["roles"].items():
            prior = b["roles"].get(role, {})
            acc = out.setdefault(role, {"cells": 0, "busy_seconds": 0.0, "steals": 0})
            for key in acc:
                acc[key] += stats.get(key, 0) - prior.get(key, 0)
    return out


def _delta(before: list[dict], after: list[dict], *path) -> float:
    def get(snapshot):
        for key in path:
            snapshot = snapshot.get(key, {}) if isinstance(snapshot, dict) else 0
        return snapshot or 0

    return sum(get(a) - get(b) for b, a in zip(before, after))


def _histogram_sum_count(bodies: list[str], name: str) -> tuple[float, float]:
    total = count = 0.0
    for body in bodies:
        for line in body.splitlines():
            if line.startswith(f"{name}_sum"):
                total += float(line.split()[-1])
            elif line.startswith(f"{name}_count"):
                count += float(line.split()[-1])
    return total, count


def _median(values) -> float:
    from perfbench.run import percentile

    return percentile(list(values), 50) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def self_time_violations(recorder: Recorder, eps: float = 1e-6) -> list[str]:
    """Batches whose spans' self times add up to more than the batch's
    wall time, on the batch's own thread or on any thread it started."""

    def subtree(span: Span) -> float:
        return span.self_time + sum(subtree(c) for c in span.children)

    per_thread: dict[tuple[int, str], float] = {}
    for span in recorder.spans:
        if span.parent is None and span.batch is not None and span.batch is not span:
            key = (id(span.batch), span.thread)
            per_thread[key] = per_thread.get(key, 0.0) + subtree(span)
    bad = []
    for batch in recorder.named("pool.batch"):
        totals = [("own thread", subtree(batch))] + [
            (thread, total) for (owner, thread), total in per_thread.items() if owner == id(batch)
        ]
        bad += [f"batch at {batch.start:.6f}: {thread} self time {total:.6f} s > wall "
                f"{batch.duration:.6f} s" for thread, total in totals
                if total > batch.duration + eps]
    return bad


def unattributed(recorder: Recorder, samples, since: float) -> list[float]:
    """Per request: client latency minus the time spans tagged with its
    id cover inside the request's interval."""
    by_id: dict[str, list[tuple[float, float]]] = {}
    for span in recorder.spans:
        if span.start >= since:
            for tag in span.tags:
                by_id.setdefault(tag, []).append((span.start, span.end))
    out = []
    for sample in samples:
        start = sample.due if sample.due is not None else sample.sent
        out.append(sample.latency - covered(by_id.get(sample.id, []), start, sample.received))
    return out


def shard_exchanges(recorder: Recorder, since: float) -> dict[tuple[str, str], float]:
    """Router: (request id, router thread) -> time from the router's
    encode of a shard request to its decode of that shard's answer."""
    bounds: dict[tuple[str, str], list[float]] = {}
    for span in recorder.spans:
        if span.start >= since and "(one_shard)" in span.thread and span.tags:
            key = (next(iter(span.tags)), span.thread)
            seen = bounds.setdefault(key, [span.start, span.end])
            seen[0], seen[1] = min(seen[0], span.start), max(seen[1], span.end)
    return {key: end - start for key, (start, end) in bounds.items()}


def fanout_residuals(exchanges: dict, samples) -> list[float]:
    """Router: client latency minus the slowest shard exchange."""
    slowest: dict[str, float] = {}
    for (qid, _), seconds in exchanges.items():
        slowest[qid] = max(slowest.get(qid, 0.0), seconds)
    return [s.latency - slowest[s.id] for s in samples if s.id in slowest]


def traced_run(traffic, seconds: float, env: dict, db_path: str):
    """Host the configuration, measure untraced then traced; returns
    (per-layer rows, extra report rows)."""
    from perfbench.loadgen import Connection
    from perfbench.run import percentile
    from perfbench.server import import_seconds
    from repro.sequences import PackedDatabase
    from repro.service import protocol

    inputs = traffic.inputs
    import_s = import_seconds(env)
    recorder = Recorder()
    install(recorder)
    recorder.enabled = True
    try:
        hosted = Hosted(inputs, db_path)
        setup_end = time.perf_counter()
        try:
            conn = Connection(hosted.port)
            started = time.perf_counter()
            conn.send(protocol.query_request(inputs.queries[0].text, id="warmup",
                                                 pipeline=traffic.pipeline))
            conn.read()
            first_query_s = time.perf_counter() - started
            recorder.enabled = False
            traffic.warm(conn)
            untraced = traffic.measure(conn, seconds / 2)
            before = hosted.stats()
            mark = time.perf_counter()
            recorder.enabled = True
            traced = traffic.measure(conn, seconds / 2)
            recorder.enabled = False
            after = hosted.stats()
            conn.close()
        finally:
            hosted.close()
    finally:
        recorder.enabled = False
        recorder.unpatch()

    setup = [s for s in recorder.spans if s.start < setup_end]
    spans = [s for s in recorder.spans if s.start >= mark]
    named = lambda name: [s for s in spans if s.name == name]  # noqa: E731
    samples = traced.samples
    n = max(1, len(samples))
    services_b, services_a = before["services"], after["services"]
    fronts_b, fronts_a = [before["front"]], [after["front"]]
    roles = _roles_delta(services_b, services_a)
    cells = sum(r["cells"] for r in roles.values())
    busy = sum(r["busy_seconds"] for r in roles.values())
    batches = named("pool.batch")
    batch_workers = sum(s.duration * len(s.result.worker_stats) for s in batches if s.result)
    residuals = [s.duration - max((w.busy_seconds for w in s.result.worker_stats), default=0.0)
                 for s in batches if s.result]
    allocs = named("sched.allocate")
    batch_count = _delta(services_b, services_a, "batches", "count")
    batch_total = sum(a["batches"]["count"] * a["batches"]["mean_size"]
                      - b["batches"]["count"] * b["batches"]["mean_size"]
                      for b, a in zip(services_b, services_a))
    scanned = _delta(services_b, services_a, "pipeline", "subjects_scanned")
    survivors = _delta(services_b, services_a, "pipeline", "banded_survivors")
    swap_sum_b, swap_n_b = _histogram_sum_count(before["metrics"], "swdual_db_swap_seconds")
    swap_sum_a, swap_n_a = _histogram_sum_count(after["metrics"], "swdual_db_swap_seconds")
    swap_server = (swap_sum_a - swap_sum_b) / (swap_n_a - swap_n_b) if swap_n_a > swap_n_b else 0.0
    if inputs.workload == "router-pipeline":
        waits = [s["queue_wait"] for s in services_a]
        wait_p50 = max(w["p50_s"] or 0.0 for w in waits)
        wait_p90 = max(w["p90_s"] or 0.0 for w in waits)
        wait_note = "max over shards, whole run"
    else:
        waits = [s.message["queue_wait_s"] for s in samples]
        wait_p50, wait_p90 = percentile(waits, 50), percentile(waits, 90)
        wait_note = f"n={len(waits)}"
    packed = PackedDatabase.from_database(inputs.database)
    db_bytes = sum(c.num_sequences * c.max_len for c in packed.chunks)
    lengths = {q.id: len(q) for q in inputs.queries}
    bytes_computed = sum(db_bytes + lengths[s.query] * 32 * 2 for s in samples)
    router = fronts_a[0] if inputs.workload == "router-pipeline" else None
    unattr = unattributed(recorder, samples, mark)
    exchanges = shard_exchanges(recorder, mark) if router else {}
    fanout = fanout_residuals(exchanges, samples)
    p50_untraced = percentile(untraced.latencies, 50)
    p50_traced = percentile(traced.latencies, 50)

    def gcups(role: str) -> float:
        r = roles.get(role)
        return r["cells"] / r["busy_seconds"] / 1e9 if r and r["busy_seconds"] > 0 else 0.0

    def span_sum(name: str, among=spans) -> float:
        return sum(s.duration for s in among if s.name == name)

    rows = [
        ("setup.import_s", import_s, "s", "python -X importtime, top-level cumulative"),
        ("setup.load_db_s", hosted.load_db_s, "s", "SequenceDatabase.from_fasta"),
        ("setup.pack_s", span_sum("setup.pack", setup), "s", "PackedDatabase.from_database"),
        ("setup.share_s", span_sum("setup.share", setup), "s", "share_packed"),
        ("setup.pool_start_s", span_sum("setup.pool_start", setup), "s", "WarmPool.start"),
        ("setup.first_query_s", first_query_s, "s", "first query round trip"),
        ("protocol.codec_s_per_query",
         (span_sum("protocol.encode") + span_sum("protocol.decode")) / n, "s",
         f"encode+decode at every hop, n={len(samples)} queries"),
        ("server.queue_wait_p50_s", wait_p50, "s", wait_note),
        ("server.queue_wait_p90_s", wait_p90, "s", wait_note),
        ("server.batch_size_mean", batch_total / batch_count if batch_count else 0.0, "count",
         f"{int(batch_count)} batches"),
        ("server.rejected", _delta(services_b, services_a, "requests", "rejected")
         + (_delta(fronts_b, fronts_a, "requests", "rejected") if router else 0), "count", ""),
        ("sched.allocate_s_per_batch", _mean(s.duration for s in allocs), "s",
         f"n={len(allocs)}"),
        ("sched.allocations", len(allocs), "count", "predict_static_allocation calls"),
        ("pool.batch_s", _mean(s.duration for s in batches), "s", f"n={len(batches)}"),
        ("pool.utilization", busy / batch_workers if batch_workers else 0.0, "ratio",
         "kernel busy / (workers x batch wall)"),
        ("pool.dispatch_residual_s", _mean(residuals), "s",
         "batch wall - busiest worker busy, mean"),
        ("pool.retries", _delta(services_b, services_a, "recovery", "task_retries"), "count", ""),
        ("pool.steals", sum(r["steals"] for r in roles.values()), "count", ""),
        ("kernel.cells", cells, "count", "stats roles block"),
        ("kernel.busy_s", busy, "s", "stats roles block"),
        ("kernel.gcups.cpu", gcups("cpu"), "GCUPS", "cells / busy, cpu role"),
        ("kernel.gcups.gpu", gcups("gpu"), "GCUPS", "cells / busy, gpu role (a CPU thread)"),
        ("kernel.bytes_computed", bytes_computed, "bytes",
         "computed: packed database + int16 profile per query, not measured"),
        ("pipeline.subjects_scanned", scanned, "count", ""),
        ("pipeline.banded_survivors", survivors, "count", ""),
        ("pipeline.rescored", _delta(services_b, services_a, "pipeline", "rescored"), "count", ""),
        ("pipeline.reported", _delta(services_b, services_a, "pipeline", "reported"), "count", ""),
        ("pipeline.survivor_frac", survivors / scanned if scanned else 0.0, "ratio", ""),
        ("pipeline.prescreen_s", span_sum("pipeline.prescreen") / n, "s", "per query"),
        ("pipeline.banded_s", span_sum("pipeline.banded") / n, "s", "per query"),
        ("pipeline.rescore_s", span_sum("pipeline.rescore") / n, "s", "per query"),
        ("db.swap_p50_s", percentile(traced.swaps, 50) if traced.swaps else 0.0, "s",
         f"client send to ack, n={len(traced.swaps)}"),
        ("db.swap_server_s", swap_server, "s", "swdual_db_swap_seconds mean"),
        ("db.swap_wait_s", _mean(traced.swaps) - swap_server if traced.swaps else 0.0, "s",
         "client ack - server swap, mean"),
        ("router.shard_latency_p50_s", _median(exchanges.values()), "s",
         f"router-side shard exchange, n={len(exchanges)}"),
        ("router.fanout_residual_s", _median(fanout), "s", f"n={len(fanout)}"),
        ("router.merge_s", span_sum("router.merge") / n if router else 0.0, "s", "per query"),
        ("router.refinements",
         _delta(fronts_b, fronts_a, "requests", "refinements") if router else 0, "count", ""),
        ("router.upstream_retries",
         _delta(fronts_b, fronts_a, "requests", "upstream_retries") if router else 0, "count", ""),
        ("e2e.unattributed_s", _median(unattr), "s", f"median, n={len(unattr)}"),
        ("trace.overhead_frac", p50_traced / p50_untraced - 1.0, "ratio",
         f"latency p50 traced {p50_traced:.6f} s (n={len(traced.latencies)}) vs "
         f"untraced {p50_untraced:.6f} s (n={len(untraced.latencies)})"),
    ]
    violations = self_time_violations(recorder)
    extra = [
        ("e2e.latency_p50_s", p50_traced, "s", f"traced, n={len(traced.latencies)}"),
        ("e2e.unattributed_frac", _median(unattr) / p50_traced if p50_traced else 0.0, "ratio",
         "unattributed / latency p50"),
        ("trace.spans", len(spans), "count", "recorded in the traced window"),
        ("trace.self_time_violations", len(violations), "count", "; ".join(violations[:3])),
    ]
    if violations:
        traffic.tally.fail("self-time", violations[0])
    return rows, extra
