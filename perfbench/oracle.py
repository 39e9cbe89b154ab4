"""Independent correctness oracle and kernel reference line.

The od-test NAP monitor form (SNIPPETS.md, Snippet 2): for a query row
``q`` predicted as class ``c``, the comfort level is
``min over known patterns k of popcount(k ^ q)``, and the row is inside
``Z^γ_c`` iff that minimum is at most γ.  This module implements it in
plain numpy on its own bit packing; it imports nothing from ``repro``,
so a bug in the program's kernels cannot hide in the oracle.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

#: Bound on the ``(chunk, M, words)`` XOR temporary, in bytes (small, so
#: the oracle adds little to the measured peak memory).
_CHUNK_BYTES = 1 << 20


def pack_words(patterns: np.ndarray) -> np.ndarray:
    """``(N, d)`` 0/1 rows -> ``(N, ceil(d/64))`` uint64 words."""
    patterns = np.atleast_2d(np.asarray(patterns, dtype=np.uint8))
    packed = np.packbits(patterns, axis=1)
    words = (packed.shape[1] + 7) // 8
    padded = np.zeros((packed.shape[0], words * 8), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded.view(np.uint64)


class HammingOracle:
    """Per-class ``min popcount(known ^ q)`` over explicit known sets."""

    def __init__(self, width: int, known: Dict[int, np.ndarray]):
        self.width = width
        self._known: Dict[int, np.ndarray] = {}
        for c, rows in known.items():
            self._known[int(c)] = np.unique(pack_words(rows), axis=0) if len(rows) else (
                np.zeros((0, (width + 63) // 64), dtype=np.uint64)
            )

    def add(self, c: int, rows: np.ndarray) -> None:
        """Grow class ``c``'s known set (drift absorption)."""
        if len(rows):
            merged = np.concatenate([self._known[int(c)], pack_words(rows)])
            self._known[int(c)] = np.unique(merged, axis=0)

    def distances(self, patterns: np.ndarray, classes: np.ndarray) -> np.ndarray:
        """Exact per-row distance; 0 for unmonitored classes, ``width + 1``
        for an empty zone."""
        classes = np.asarray(classes)
        queries = pack_words(patterns)
        out = np.zeros(len(queries), dtype=np.int64)
        for c, known in self._known.items():
            rows = np.flatnonzero(classes == c)
            if not len(rows):
                continue
            if not len(known):
                out[rows] = self.width + 1
                continue
            chunk = max(1, _CHUNK_BYTES // max(1, known.nbytes))
            for start in range(0, len(rows), chunk):
                pick = rows[start : start + chunk]
                if known.shape[1] == 1:
                    xor = queries[pick, 0, None] ^ known[None, :, 0]
                    out[pick] = np.bitwise_count(xor).min(axis=1)
                else:
                    xor = queries[pick, None, :] ^ known[None, :, :]
                    out[pick] = np.bitwise_count(xor).sum(axis=2).min(axis=1)
        return out

    def verdicts(self, patterns: np.ndarray, classes: np.ndarray, gamma: int) -> np.ndarray:
        """Zone membership; unmonitored classes are trusted (``True``)."""
        return self.distances(patterns, classes) <= gamma


class Mismatches:
    """Collects oracle disagreements; any entry fails the run."""

    def __init__(self, flip_first: bool = False):
        self.problems: List[str] = []
        self.checked = 0
        #: Self-test hook: corrupt the first served verdict array compared.
        self.flip_first = flip_first

    def compare(self, what: str, served: np.ndarray, expected: np.ndarray) -> None:
        served = np.asarray(served)
        expected = np.asarray(expected)
        if self.flip_first and served.dtype == bool and served.size:
            served = served.copy()
            served.flat[0] = not served.flat[0]
            self.flip_first = False
        self.checked += int(expected.size)
        if served.shape != expected.shape:
            self.problems.append(f"{what}: shape {served.shape} != {expected.shape}")
            return
        bad = np.flatnonzero(served != expected)
        if len(bad):
            i = int(bad[0])
            self.problems.append(
                f"{what}: {len(bad)} of {expected.size} differ "
                f"(first at {i}: served {served.flat[i]!r}, oracle {expected.flat[i]!r})"
            )

    def require(self, what: str, ok: bool, detail: str = "") -> None:
        self.checked += 1
        if not ok:
            self.problems.append(f"{what}: {detail}" if detail else what)

    @property
    def ok(self) -> bool:
        return not self.problems


def time_per_row(fn, rows: int, min_seconds: float = 0.2, repeats: int = 5) -> float:
    """Median microseconds per row of ``fn()`` over ``repeats`` timed
    batches, each repeated until it takes at least ``min_seconds / repeats``."""
    per_batch = min_seconds / repeats
    results = []
    for _ in range(repeats):
        calls = 0
        start = time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= per_batch:
                break
        results.append(elapsed / (calls * rows) * 1e6)
    return float(np.median(results))


def kernel_line(oracle: HammingOracle, monitor, patterns: np.ndarray,
                classes: np.ndarray, gamma: int, min_seconds: float = 0.3) -> Dict[str, float]:
    """The kernel reference line on a workload's exact rows: µs per row
    of the oracle (the Snippet-2 form) and of ``monitor.check``."""
    rows = len(patterns)
    oracle_us = time_per_row(
        lambda: oracle.verdicts(patterns, classes, gamma), rows, min_seconds
    )
    check_us = time_per_row(lambda: monitor.check(patterns, classes), rows, min_seconds)
    return {"oracle_us_per_row": oracle_us, "monitor_check_us_per_row": check_us}
