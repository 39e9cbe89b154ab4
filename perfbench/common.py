"""Shared plumbing for the perfbench workloads.

Timing and percentile helpers, process memory, run metadata, the
event-loop lag probe and the synthetic pattern generator.  Nothing here
imports ``repro``: the workloads import the program, this module only
measures it.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import platform
import resource
import signal
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: A percentile is only reported when at least this many samples lie
#: beyond it; with fewer samples the next lower whole percentile is used.
TAIL_SAMPLES = 10
#: Throughput and p50 are medians over up to this many windows per run...
WINDOWS = 10
#: ...of at least this many calls each (for the p50).
MIN_WINDOW = 400


def tail_percentile(n: int, wanted: float = 99.0) -> float:
    """Highest percentile <= ``wanted`` with ``TAIL_SAMPLES`` samples above it."""
    if n <= TAIL_SAMPLES:
        return 50.0
    q = wanted
    while q > 50.0 and n * (1.0 - q / 100.0) < TAIL_SAMPLES:
        q -= 1.0
    return max(q, 50.0)


@dataclass
class Latencies:
    """Per-call latency samples (seconds) of one measured phase.

    Stored as 32-bit floats (microsecond resolution over a minute), so
    the record adds 8 bytes per call to the run's peak memory.
    """

    samples: array = field(default_factory=lambda: array("f"))
    #: Time each call completed, from ``t0`` (for windowed rates).
    ends: array = field(default_factory=lambda: array("f"))
    t0: float = field(default_factory=time.perf_counter)

    def add(self, seconds: float) -> None:
        self.samples.append(seconds)
        self.ends.append(time.perf_counter() - self.t0)

    def window_rates(self, count: int, rows_per_call: int = 1) -> List[float]:
        """Completed rows per second in each of ``count`` equal-time windows."""
        ends = np.asarray(self.ends, dtype=np.float64)
        if len(ends) < 2:
            return []
        edges = np.linspace(ends.min(), ends.max(), count + 1)
        counts, _ = np.histogram(ends, bins=edges)
        return list(counts * rows_per_call / (edges[1] - edges[0]))

    def report(self) -> Dict[str, float]:
        """Latency figures in ms, with the sample count behind them.

        * ``p50_ms``: the samples, in completion order, are cut into up to
          ``WINDOWS`` windows of equal count, at least ``MIN_WINDOW`` each,
          and the median of the per-window medians is reported, so one
          noisy stretch of a run does not decide it.
        * ``p99_ms``: over all samples, the highest percentile (at most
          99) with ``TAIL_SAMPLES`` samples beyond it, at ``p99_q``.
        """
        n = len(self.samples)
        if not n:
            return {"n": 0, "windows": 0, "p50_ms": float("nan"), "p99_q": 0.0,
                    "p99_ms": float("nan")}
        values = np.asarray(self.samples, dtype=np.float64)
        count = max(1, min(WINDOWS, n // MIN_WINDOW))
        p99_q = tail_percentile(n)
        return {
            "n": n,
            "windows": count,
            "p50_ms": median(np.median(w) for w in np.array_split(values, count)) * 1e3,
            "p99_q": p99_q,
            "p99_ms": float(np.percentile(values, p99_q)) * 1e3,
        }


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def live_children() -> List[int]:
    """PIDs of this process's live children (all threads' children)."""
    pids = set()
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return []
    for tid in tasks:
        try:
            with open(f"/proc/self/task/{tid}/children") as fh:
                pids.update(int(p) for p in fh.read().split())
        except OSError:
            continue
    return sorted(pids)


def stop_children(timeout: float = 10.0) -> None:
    """End every child process still alive and wait for it.

    The worker fleets are stopped by their servers; what can remain is
    the ``multiprocessing`` resource tracker (started for the shared-memory
    rings), which otherwise only exits after this process does.  Any
    other straggler gets ``timeout`` seconds, then SIGTERM.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + timeout
    for pid in live_children():
        try:
            while time.monotonic() < deadline:
                if os.waitpid(pid, os.WNOHANG)[0]:
                    break
                time.sleep(0.05)
            else:
                os.kill(pid, signal.SIGTERM)
                os.waitpid(pid, 0)
        except ChildProcessError:
            continue  # already reaped elsewhere


class RssPeak:
    """Peak resident memory of this process plus its children, in MB.

    Each :meth:`sample` call, which the workloads make at the end of a
    set-up or measured phase while their worker fleets are still alive,
    adds the parent's ``VmHWM`` since :meth:`reset` (which clears the
    kernel's high-water mark, so the benchmark's own input generation
    does not count) to the sum of the children's ``VmHWM``; the peak is
    the largest such sum.  The oracle checks, the report and the kernel
    line come after the last sample, so the benchmark's bookkeeping,
    which grows with the number of answers served, does not count.
    """

    def __init__(self):
        self.peak_kb = 0

    @staticmethod
    def reset() -> None:
        try:
            with open("/proc/self/clear_refs", "w") as fh:
                fh.write("5")
        except OSError:
            pass  # no reset: the peak then covers the whole process

    @staticmethod
    def _own_kb() -> int:
        return _status_kb(os.getpid(), "VmHWM") or (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        )

    def sample(self) -> None:
        kids = sum(_status_kb(pid, "VmHWM") for pid in live_children())
        self.peak_kb = max(self.peak_kb, self._own_kb() + kids)

    def mb(self) -> float:
        return (self.peak_kb or self._own_kb()) / 1024.0


# ----------------------------------------------------------------------
# event-loop lag
# ----------------------------------------------------------------------
class LoopLagProbe:
    """Oversleep probe: how late a 1 ms ``asyncio.sleep`` wakes up.

    The probe's own wake-ups load the loop, so workloads enable it only in
    traced phases (``enabled=False`` makes start/stop no-ops).
    """

    def __init__(self, enabled: bool = True, interval: float = 1e-3):
        self.enabled = enabled
        self.interval = interval
        self.lags: List[float] = []
        self._task: Optional[asyncio.Task] = None
        self._running = False

    async def _run(self) -> None:
        while self._running:
            start = time.perf_counter()
            await asyncio.sleep(self.interval)
            self.lags.append(time.perf_counter() - start - self.interval)

    def start(self) -> None:
        if self.enabled:
            self._running = True
            self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        self._running = False
        if self._task is not None:
            await self._task
            self._task = None

    def p99_ms(self) -> float:
        if not self.lags:
            return 0.0
        q = tail_percentile(len(self.lags))
        return float(np.percentile(np.asarray(self.lags), q)) * 1e3


# ----------------------------------------------------------------------
# synthetic activation patterns
# ----------------------------------------------------------------------
def clustered_patterns(
    rng: np.random.Generator,
    num_classes: int,
    width: int,
    rows_per_class: int,
    flip: float,
) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
    """Per-class prototypes and noisy training rows around them.

    Each class has a random binary prototype; a training row flips each
    bit of its prototype with probability ``flip``, which gives zones of
    many distinct, nearby patterns like a ReLU layer's.
    """
    protos = rng.integers(0, 2, size=(num_classes, width), dtype=np.uint8)
    zones = {}
    for c in range(num_classes):
        noise = (rng.random((rows_per_class, width)) < flip).astype(np.uint8)
        zones[c] = protos[c] ^ noise
    return protos, zones


def query_pool(
    rng: np.random.Generator,
    protos: np.ndarray,
    zones: Dict[int, np.ndarray],
    size: int,
    near_share: float,
    far_flip: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """A seeded pool of query rows and predicted classes.

    ``near_share`` of the rows are stored rows with 0-3 extra bit flips
    (inside or at the edge of the zone); the rest are fresh prototype
    draws at flip rate ``far_flip`` (mostly out of zone).
    """
    num_classes, width = protos.shape
    classes = rng.integers(0, num_classes, size=size)
    patterns = np.empty((size, width), dtype=np.uint8)
    near = rng.random(size) < near_share
    for i in range(size):
        c = int(classes[i])
        if near[i]:
            row = zones[c][rng.integers(0, len(zones[c]))].copy()
            flips = rng.choice(width, size=int(rng.integers(0, 4)), replace=False)
            row[flips] ^= 1
        else:
            row = protos[c] ^ (rng.random(width) < far_flip).astype(np.uint8)
        patterns[i] = row
    return patterns, classes


# ----------------------------------------------------------------------
# run metadata
# ----------------------------------------------------------------------
def _git_sha(root: str) -> str:
    """HEAD commit read straight from ``.git`` (no subprocess)."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest(root: str) -> str:
    """sha256 over ``src/**/*.py``: identifies the measured code when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def cpu_jiffies() -> Tuple[int, int]:
    """``(steal, total)`` jiffies of all CPUs from ``/proc/stat``."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def run_metadata(root: str, workload: str, seed: int, trace: bool,
                 seconds: float) -> Dict[str, object]:
    try:
        affinity: Sequence[int] = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = []
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": bool(trace),
        "nproc": os.cpu_count(),
        "cpu_affinity": list(affinity),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
        "src_digest": source_digest(root),
        "argv": sys.argv[1:],
    }
