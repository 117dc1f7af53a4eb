"""End-to-end benchmark of the SWDUAL search service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-exact --seed 1 --seconds 10 --trace 0

``--trace 0`` launches the real ``swdual serve`` / ``swdual cluster
serve`` processes on a generated database, drives them from this
process, checks every answer against exact hit tables and prints the
end-to-end metrics.  ``--trace 1`` hosts the same configuration inside
this process with span wrappers around the layers' public functions and
prints the per-layer metrics instead (see ``perfbench/trace.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the human-readable report, with a sample count beside every
percentile.  An oracle mismatch, or an open-loop run whose generator
fell behind or whose backlog grew, exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

#: Server starts per run; setup_s is their median.
SERVER_STARTS = 3
#: Open-loop validity: the generator may run this late (p90, s) ...
MAX_LATENESS_P90_S = 0.02
#: ... and leave at most this many queries outstanding or queued.
MAX_BACKLOG = 8


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else float("nan")


def _bootstrap() -> None:
    """Point this process at the checkout's sources and work directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        sys.exit(f"perfbench: no program sources under {os.path.join(ROOT, 'src')}")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    os.makedirs(WORK, exist_ok=True)
    os.environ["SWDUAL_CC_CACHE_DIR"] = os.path.join(WORK, "cc")
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)


def warm_builds() -> dict:
    """Resolve the kernel tier (compiling the cc library once) and fill
    the bytecode cache, so no one-time build lands in a timed launch."""
    import numpy

    import repro.cli  # noqa: F401
    import repro.cluster  # noqa: F401
    import repro.service  # noqa: F401
    from repro.align.backend import resolve_backend

    tier = resolve_backend()
    return {
        "kernel_tier": tier.name,
        "fallback_reason": tier.fallback_reason,
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
    }


def _git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def measured_run(traffic, seconds: float, db_path: str, env: dict, log: str) -> dict:
    """--trace 0: SERVER_STARTS starts of the real server process(es),
    each timed from spawn to the answer of its first query and then
    measured for an equal share of *seconds*.  Pooling the starts keeps
    one start's thread and allocation luck out of the figures."""
    from perfbench.traffic import Measured
    from perfbench.loadgen import Connection
    from perfbench.server import PssSampler, ServerProcess
    from repro.service import protocol

    setup, parts, floors = [], [], []
    warm = traffic.inputs.queries[0]
    for _ in range(SERVER_STARTS):
        server = ServerProcess(traffic.server_argv(db_path), env, log)
        try:
            conn = Connection(server.port)
            conn.send(protocol.query_request(warm.text, id="warmup", pipeline=traffic.pipeline))
            reply = conn.read()
            setup.append(time.perf_counter() - server.spawned_at)
            if reply.get("type") != "result":
                raise RuntimeError(f"warm-up query failed: {reply}")
            traffic.warm(conn)
            sampler = PssSampler(server)
            parts.append(traffic.measure(conn, seconds / SERVER_STARTS, tick=sampler))
            sampler.samples.append(server.pss_mib())
            floors.append(min(sampler.samples))
            stats = conn.request({"verb": "stats"}, ("stats",))["stats"]
            conn.close()
            if "kernel_backend" not in stats:  # a router: ask one shard
                endpoint = next(iter(stats["shards"].values()))["endpoint"]
                conn = Connection(int(endpoint.rsplit(":", 1)[1]))
                stats = conn.request({"verb": "stats"}, ("stats",))["stats"]
                conn.close()
        finally:
            server.stop()
    return {"setup": setup, "measured": Measured.merge(parts), "pss": floors,
            "server_tier": stats["kernel_backend"]["name"]}


# -- reporting ----------------------------------------------------------


def end_to_end(result: dict) -> list[tuple[str, float, str, str]]:
    """(name, value, unit, note) rows; the note carries sample counts."""
    measured = result["measured"]
    lat = measured.latencies
    return [
        ("setup_s", statistics.median(result["setup"]), "s",
         f"median of {len(result['setup'])} starts"),
        ("throughput_gcups", measured.gcups, "GCUPS",
         f"full-scan cells / wall, median of {len(measured.windows)} windows "
         f"over {measured.loop_seconds:.2f} s of closed loop"),
        ("latency_p50_s", percentile(lat, 50), "s", f"n={len(lat)}"),
        ("latency_p90_s", percentile(lat, 90), "s", f"n={len(lat)}"),
        ("mem_pss_mb", statistics.mean(result["pss"]), "MiB",
         "server process tree: mean over starts of the lowest of the samples "
         f"taken every 0.5 s of each window {[round(x, 1) for x in result['pss']]}"),
    ]


def open_loop_rows(opens) -> list[tuple[str, float, str, str]]:
    late = [x for o in opens for x in o.lateness]
    return [
        ("generator_lateness_p50_s", percentile(late, 50), "s", f"n={len(late)}"),
        ("generator_lateness_p90_s", percentile(late, 90), "s", f"n={len(late)}"),
        ("outstanding_at_window_end", max(o.outstanding_at_end for o in opens), "count",
         "max over starts"),
        ("queue_depth_at_window_end", max(o.queue_depth_at_end for o in opens), "count",
         "max over starts"),
    ]


def open_loop_invalid(opens) -> str | None:
    """Why the open-loop windows cannot be reported, if they cannot."""
    late_p90 = percentile([x for o in opens for x in o.lateness], 90)
    backlog = max(max(o.outstanding_at_end, o.queue_depth_at_end) for o in opens)
    if late_p90 > MAX_LATENESS_P90_S or backlog > MAX_BACKLOG:
        return (f"generator lateness p90 {late_p90:.4f} s (limit {MAX_LATENESS_P90_S}), "
                f"backlog {backlog} (limit {MAX_BACKLOG})")
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()
    from perfbench.traffic import Tally, make_traffic
    from perfbench.server import server_env
    from perfbench.workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    provenance = warm_builds()
    provenance.update(workload=args.workload, seed=args.seed, seconds=args.seconds)
    env = server_env(ROOT, WORK)
    inputs = make_inputs(args.workload, args.seed)
    db_path = os.path.join(WORK, f"{args.workload}-{args.seed}.fasta")
    inputs.database.to_fasta(db_path)
    tally = Tally()
    traffic = make_traffic(inputs, tally)  # builds the oracle tables

    if args.trace:
        from perfbench.trace import traced_run

        rows, extra = traced_run(traffic, args.seconds, env, db_path)
    else:
        result = measured_run(traffic, args.seconds, db_path, env,
                              os.path.join(WORK, "server.log"))
        provenance["server_tier"] = result["server_tier"]
        rows = end_to_end(result)
        measured = result["measured"]
        extra = [("failed_frac", tally.failed / max(1, tally.attempted), "ratio",
                  f"{tally.failed}/{tally.attempted} {tally.failures}")]
        if measured.swaps:
            extra.append(("swap_p50_s", percentile(measured.swaps, 50), "s",
                          f"n={len(measured.swaps)}"))
        if measured.opens:
            extra += open_loop_rows(measured.opens)
    if inputs.workload != "batch-exact":
        extra.append(("hits_lost", tally.lost, "count",
                      "exact top-k hits >= threshold the cascade did not report"))

    print(f"# provenance {json.dumps(provenance, sort_keys=True)}")
    tier = provenance.get("server_tier", provenance["kernel_tier"])
    if tier != provenance["kernel_tier"]:
        print(f"# FLAG: server kernel tier {tier!r} differs from {provenance['kernel_tier']!r}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, value, unit, note in rows + extra:
        print(f"  {name:<32} {value:>14.6g} {unit:<6} {note}")
    for detail in tally.mismatches[:10]:
        print(f"# MISMATCH {detail}")
    if not args.trace and measured.opens:
        reason = open_loop_invalid(measured.opens)
        if reason:
            print(f"perfbench: run invalid: {reason}", file=sys.stderr)
            return 3
    print(json.dumps({
        "correct": not tally.mismatches and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }))
    return 1 if tally.mismatches else 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    import signal

    # A termination request unwinds through every ``finally`` (servers are
    # stopped there) before the remaining children are swept.
    signal.signal(signal.SIGTERM, _terminate)
    try:
        code = main()
    finally:
        if "perfbench.server" in sys.modules:
            sys.modules["perfbench.server"].stop_own_children()
    sys.exit(code)
