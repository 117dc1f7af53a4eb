"""Smoke-size self-test of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

It shrinks the workloads and checks that every metric named in
BENCHMARK.json is printed with its unit, that the oracle check catches a
corrupted exact table, that the traced run's self times never add up
to more than a batch's wall time, and that no process a run started
outlives it.
"""

from __future__ import annotations

import json
import os

import pytest

from perfbench import run

BENCHMARK = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


@pytest.fixture
def smoke(monkeypatch):
    run._bootstrap()
    from perfbench import workloads as W

    monkeypatch.setattr(run, "SERVER_STARTS", 1)
    monkeypatch.setattr(W, "BATCH_DB", dict(num_sequences=40, mean_length=120.0))
    monkeypatch.setattr(W, "INTERACTIVE_DB", dict(num_sequences=200, mean_length=120.0))
    monkeypatch.setattr(W, "BATCH_SET_SIZE", 4)
    monkeypatch.setattr(W, "SWAP_EVERY", 1)
    monkeypatch.setattr(W, "POOL_SIZE", 12)


def _run(capsys, workload: str, trace: int, seed: int = 3) -> tuple[int, list[str], dict]:
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1.5",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["batch-exact", "interactive-pipeline", "router-pipeline"])
def test_every_metric_printed_with_unit(smoke, capsys, workload, trace):
    code, lines, result = _run(capsys, workload, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        # ... and in the human-readable report, by name and unit.
        assert any(line.split()[:1] == [metric["name"]] and f" {metric['unit']} " in f"{line} "
                   for line in lines)
    if trace:
        violations = [line for line in lines if line.split()[:1] == ["trace.self_time_violations"]]
        assert violations and float(violations[0].split()[1]) == 0
    else:
        assert all("p99" not in line for line in lines)
        for name in ("latency_p50_s", "latency_p90_s"):
            assert any(line.split()[:1] == [name] and "n=" in line for line in lines)


def test_oracle_catches_corrupted_table(smoke, capsys, monkeypatch):
    from perfbench import oracle

    compute = oracle.ScoreTable.compute.__func__

    def corrupted(cls, queries, subjects, threads=2):
        table = compute(cls, queries, subjects, threads)
        for scores in table.scores.values():
            scores[int(scores.argmax())] += 1
        return table

    monkeypatch.setattr(oracle.ScoreTable, "compute", classmethod(corrupted))
    code, lines, result = _run(capsys, "batch-exact", 0)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("# MISMATCH") for line in lines)


@pytest.mark.parametrize("trace", [0, 1])
def test_no_process_outlives_a_run(smoke, capsys, monkeypatch, trace):
    """Servers' sessions (re-parented members included) and this
    process's own children are all gone once a run has been swept."""
    from perfbench import server

    sessions = []
    spawn = server.ServerProcess.__init__

    def recording(self, *args, **kwargs):
        spawn(self, *args, **kwargs)
        sessions.append(self.proc.pid)

    monkeypatch.setattr(server.ServerProcess, "__init__", recording)
    assert _run(capsys, "batch-exact", trace)[0] == 0
    server.stop_own_children()
    left = [pid for pid, fields in server._stats().items()
            if fields[0] != "Z" and (int(fields[3]) in sessions or int(fields[1]) == os.getpid())]
    assert left == []
    assert bool(sessions) == (trace == 0)


def test_pipeline_check_requires_exact_scores_and_parents():
    from perfbench.oracle import PIPELINE_THRESHOLD, ScoreTable, check_pipeline

    table = ScoreTable(["a", "b", "c"], {"q": __import__("numpy").array([90, 60, 10])})
    parents = {"q": "a"}
    assert check_pipeline(table, "q", [["a", 90], ["b", 60]], 5, parents) is None
    # Sub-threshold lower bounds are allowed, wrong scores above it are not.
    assert check_pipeline(table, "q", [["a", 90], ["c", 0]], 5, parents) is None
    assert check_pipeline(table, "q", [["a", 91]], 5, parents)
    assert check_pipeline(table, "q", [["b", 60]], 5, parents)  # parent lost
    assert PIPELINE_THRESHOLD <= 60


def test_self_time_never_exceeds_batch_wall():
    import threading

    from perfbench.trace import Recorder, self_time_violations

    recorder = Recorder()
    recorder.enabled = True
    recorder.track_threads()
    try:
        leaf = recorder.wrap("leaf", lambda: sum(range(20000)))
        inner = recorder.wrap("inner", lambda: [leaf() for _ in range(3)])

        def batch(_self, queries):
            threads = [threading.Thread(target=inner) for _ in range(2)]
            for t in threads:
                t.start()
            inner()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)

        tagger = lambda a, k, r: frozenset(a[1])  # noqa: E731
        recorder.wrap("pool.batch", batch, tagger, batch=True)(None, ["q1", "q2"])
    finally:
        recorder.unpatch()
    batches = recorder.named("pool.batch")
    assert len(batches) == 1 and len(recorder.named("leaf")) == 9
    assert all(s.tags == {"q1", "q2"} for s in recorder.spans)
    assert self_time_violations(recorder) == []
    # A span whose self time is miscounted would break the check.
    batches[0].children.append(batches[0].children[0])
    assert self_time_violations(recorder)
