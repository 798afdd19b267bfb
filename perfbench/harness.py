"""Process, timing and statistics helpers shared by the workloads.

Every CLI command runs as a fresh `python3 -m stormwatch.cli` process (or,
when traced, `perfbench/child.py`), one at a time. Wall time is taken
around the spawn and the reap, and peak RSS comes from that child's own
`os.wait4` rusage, not from RUSAGE_CHILDREN (which keeps the maximum over
every child the benchmark ever reaped).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import select
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))

# A single command that runs longer than this is killed and counted failed.
CHILD_TIMEOUT_S = 120


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    trace: dict | None = None
    # Wall-clock (time.time) spawn and reap instants, to line up with the
    # child's own clock readings.
    spawned_at: float = 0.0
    reaped_at: float = 0.0


class Probe:
    """A fixed pure-Python reference computation, timed all through a run.

    On the reference machine the CPU speed seen by a process swings by up
    to 1.7x within seconds and drifts from minute to minute with the
    neighbours' load, so raw wall times of identical runs spread by 15-30 %.
    The probe is timed while every CLI command runs (on the other CPU, one
    sample every PROBE_INTERVAL_S) and between in-process calls. Its mean
    time over a phase of the run measures that phase's speed; multiplying
    the phase's wall times by `scale()` turns them into times at the
    reference speed, which cancels the drift. A program change moves the
    operations and not the probe.
    """

    # The probe's time on the reference machine in a fast stretch, alone and
    # while a CLI child runs on the other CPU.
    ALONE_S = 0.00055
    BESIDE_CHILD_S = 0.0008

    def __init__(self) -> None:
        words = [f"w{i}" for i in range(300)]
        self._lines = [" ".join(words[(i * 7 + j * 13) % 300] for j in range(12))
                       for i in range(300)]
        self._blob = json.dumps([{"a": i, "b": line} for i, line in enumerate(self._lines)])
        # Probe times as multiples of their reference time.
        self.samples: list[float] = []

    def sample(self, beside_child: bool = False) -> None:
        started = time.perf_counter()
        postings: dict[str, list[str]] = {}
        for line in self._lines:
            for word in line.split():
                postings.setdefault(word, []).append(line)
        json.loads(self._blob)
        sorted(postings)
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed / (self.BESIDE_CHILD_S if beside_child else self.ALONE_S))

    def scale(self, start: int = 0, stop: int | None = None) -> float:
        """Multiply a wall time measured while samples[start:stop] were taken
        by this to get its time at the reference speed."""
        chosen = self.samples[start:stop]
        return len(chosen) / math.fsum(chosen)


class Runner:
    """Spawns CLI commands from the checkout root with `src` on the path."""

    PROBE_INTERVAL_S = 0.02

    def __init__(self, root: str, work: str, probe: Probe) -> None:
        self.root = root
        self.work = work
        self.probe = probe
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.spawned = 0

    def cli(self, argv: list[str], traced: bool = False) -> Child:
        self.spawned += 1
        out_path = os.path.join(self.work, "child.out")
        err_path = os.path.join(self.work, "child.err")
        span_path = os.path.join(self.work, "child.spans")
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "child.py"), span_path,
                   str(self.spawned), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "stormwatch.cli", *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned_at = time.time()
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            status, usage = self._reap(proc, start)
            wall = time.perf_counter() - start
            reaped_at = time.time()
        with open(out_path, encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()
        trace = None
        if traced and os.path.exists(span_path):
            from tracer import load

            trace = load(span_path)
            os.remove(span_path)
        return Child(status, wall, usage.ru_maxrss / 1024.0, stdout, stderr, trace,
                     spawned_at, reaped_at)

    def _reap(self, proc: subprocess.Popen, start: float):
        """Probe until `proc` exits (killing it after CHILD_TIMEOUT_S), then
        reap it with os.wait4 for its own rusage."""
        pidfd = os.pidfd_open(proc.pid)
        try:
            while not select.select([pidfd], [], [], self.PROBE_INTERVAL_S)[0]:
                if time.perf_counter() - start > CHILD_TIMEOUT_S:
                    proc.kill()
                self.probe.sample(beside_child=True)
        finally:
            os.close(pidfd)
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage


# ---------------------------------------------------------------------------
# Statistics


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for q in (0.99, 0.95, 0.90):
        if len(values) * (1 - q) >= 10:
            return q, nearest_rank(values, q)
    return None


def geomean(values: list[float]) -> float:
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# What a result is recorded with


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def corpus_fingerprint(seed: int, directories: list[str]) -> dict:
    """Seed, line counts, bytes and a digest over every log file."""
    digest = hashlib.sha256()
    lines = size = 0
    for directory in directories:
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".log"):
                continue
            with open(os.path.join(directory, name), "rb") as handle:
                data = handle.read()
            digest.update(name.encode())
            digest.update(data)
            lines += data.count(b"\n")
            size += len(data)
    return {"seed": seed, "lines": lines, "bytes": size, "sha256": digest.hexdigest()[:16]}


def tree_bytes(path: str) -> int:
    total = 0
    for directory, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(directory, f)) for f in files)
    return total
