"""Launch, measure and stop the real ``swdual`` server processes.

Servers run as their own processes, as users run them, from the
checkout's ``src`` tree.  One-time builds (the cc kernel library, the
bytecode cache) land under the benchmark's work directory before any
timed launch, so set-up time measures what a user pays on every start.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

from repro.service import protocol

_READY = re.compile(r"\bon ([\d.]+):(\d+)")
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def server_env(root: str, work: str) -> dict:
    """Environment of every server process (and of this one)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # Pinned so repeated runs compare like with like: with randomised
    # string hashing the threaded server's memory floor moves by ~10%
    # from one start to the next.
    env["PYTHONHASHSEED"] = "0"
    env["SWDUAL_CC_CACHE_DIR"] = os.path.join(work, "cc")
    env["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


class ServerProcess:
    """One ``swdual serve`` / ``swdual cluster serve`` process tree."""

    def __init__(self, argv: list[str], env: dict, log_path: str):
        self.argv = argv
        self._log = open(log_path, "ab")
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            start_new_session=True,
        )
        self.port = self._await_ready()
        # Keep draining stdout so the server never blocks on a full pipe.
        self._drain = threading.Thread(target=self._drain_stdout, daemon=True)
        self._drain.start()

    def _await_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            text = line.decode(errors="replace")
            if text.startswith(("serving ", "router on ")):
                match = _READY.search(text)
                if match:
                    return int(match.group(2))
        self.kill()
        raise RuntimeError(f"server {self.argv[:2]} did not become ready")

    def _drain_stdout(self) -> None:
        for _ in iter(self.proc.stdout.readline, b""):
            pass

    def tree(self) -> list[int]:
        """Pids of the server and every descendant."""
        return descendants(self.proc.pid)

    def pss_mib(self) -> float:
        """Proportional set size of the whole tree (shared pages count once)."""
        total_kib = 0
        for pid in self.tree():
            try:
                with open(f"/proc/{pid}/smaps_rollup") as fh:
                    for line in fh:
                        if line.startswith("Pss:"):
                            total_kib += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kib / 1024.0

    def stop(self) -> None:
        """Ask for a drain over the protocol; kill whatever is left."""
        try:
            with socket.create_connection(("127.0.0.1", self.port), timeout=10) as sock:
                sock.sendall(protocol.encode_message({"verb": "shutdown"}))
                sock.makefile("rb").readline()
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self) -> None:
        """Kill the server's whole session and wait until every member
        has ended.  The server leads its own session, and its descendants
        stay in it when they are re-parented or are started during the
        shutdown itself (a resource tracker spawned to unregister a
        segment), so sweeping the session finds what a tree walk misses."""
        sid = self.proc.pid
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while time.monotonic() < deadline:
            members = [pid for pid, fields in _stats().items()
                       if int(fields[3]) == sid and fields[0] != "Z"]
            if not members and self.proc.poll() is not None:
                break
            for pid in members:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            time.sleep(0.01)
        self.proc.wait()
        self._log.close()


def _stats() -> dict[int, list[str]]:
    """``/proc/<pid>/stat`` fields after the command name, by pid:
    state, ppid, pgrp, session, ..."""
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                out[int(entry)] = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
    return out


def descendants(root: int) -> list[int]:
    """*root* and the pids of every process below it."""
    children: dict[int, list[int]] = {}
    for pid, fields in _stats().items():
        children.setdefault(int(fields[1]), []).append(pid)
    pids, todo = [], [root]
    while todo:
        pid = todo.pop()
        pids.append(pid)
        todo.extend(children.get(pid, []))
    return pids


def stop_own_children() -> None:
    """Stop every process this one started that still runs: the
    multiprocessing resource tracker is asked to exit (so it still
    unlinks any segment left registered), the rest are killed; returns
    once all of them have ended."""
    from multiprocessing import resource_tracker

    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        try:
            stop_tracker()
        except Exception:
            pass
    me = os.getpid()
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while time.monotonic() < deadline:
        stats = _stats()
        live = [pid for pid in descendants(me) if pid != me and stats.get(pid, ["Z"])[0] != "Z"]
        children = [pid for pid, fields in stats.items() if int(fields[1]) == me]
        for pid in children:  # reap the ones already dead
            try:
                os.waitpid(pid, os.WNOHANG)
            except OSError:
                pass
        if not live:
            return
        for pid in live:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        time.sleep(0.01)


class PssSampler:
    """Samples a server tree's PSS at most once per *period* seconds;
    called from the load loops between requests."""

    def __init__(self, server: ServerProcess, period: float = 0.5):
        self.server = server
        self.period = period
        self.samples: list[float] = []
        self._next = 0.0

    def __call__(self) -> None:
        now = time.perf_counter()
        if now >= self._next:
            self._next = now + self.period
            self.samples.append(self.server.pss_mib())


def import_seconds(env: dict) -> float:
    """Interpreter start-up import time of the modules a server loads,
    from ``python -X importtime`` (sum of the top-level entries)."""
    out = subprocess.run(
        [
            sys.executable,
            "-X",
            "importtime",
            "-c",
            "import repro.cli, repro.service, repro.cluster",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    total_us = 0
    for line in out.stderr.splitlines():
        # "import time: self [us] | cumulative | imported package"
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:") :].split("|")
        if not name.startswith("  "):  # top level: one leading space
            total_us += int(cumulative)
    return total_us / 1e6
