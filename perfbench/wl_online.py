"""``online``: single-row ``StreamServer.check`` calls, closed loop.

64 coroutines in one event loop each await their verdict before sending
the next row, as a perception pipeline does.  The server runs the
``serve`` CLI defaults: width-64 patterns, 10 classes, indexed bitset,
γ=2, 4 shards, ``max_batch=64``, ``max_delay_ms=2``, thread executor,
with a ``DistanceShiftDetector`` attached so every batch also computes
bounded distances.  The per-row front door (queue hop, coalescing,
detector feed on the loop) does most of the work; the kernel little.
"""

from __future__ import annotations

import asyncio
import time
import warnings
from typing import List, Optional

import numpy as np

from base import Phase, Workload
from common import Latencies, LoopLagProbe, clustered_patterns, query_pool
from layers import traced
from oracle import HammingOracle, kernel_line
from repro.monitor.monitor import NeuronActivationMonitor
from repro.monitor.shift import DistanceShiftDetector
from repro.serving.server import StreamServer
from repro.serving.shard import ShardRouter
from tracer import Tracer


class RecordingDetector(DistanceShiftDetector):
    """A distance detector that also counts every distance it is fed, so
    the oracle can check the served distances as a multiset.

    The served distances are bounded (at most ``cap + 1``), so a
    histogram of ``cap + 2`` bins holds the multiset; a distance past it
    lengthens the histogram and fails the comparison.
    """

    def __init__(self, *args, cap: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.bins = cap + 2
        self.histogram = np.zeros(self.bins, dtype=np.int64)

    def update_many(self, distances):
        counts = np.bincount(np.asarray(distances), minlength=self.bins)
        if len(counts) > len(self.histogram):
            counts[: len(self.histogram)] += self.histogram
            self.histogram = counts
        else:
            self.histogram += counts
        return super().update_many(distances)


def index_counters(monitors) -> np.ndarray:
    """``(candidates scanned, candidates a full scan would touch)`` summed
    over every band index of the given monitors' bitset zones."""
    scanned = attempted = 0.0
    for monitor in monitors:
        for zone in monitor.zones.values():
            for index in getattr(zone.backend, "_indices", {}).values():
                stats = index.statistics()
                full = stats["index_queries"] * zone.backend.num_visited()
                scanned += stats["index_scanned_fraction"] * full
                attempted += full
    return np.array([scanned, attempted])


def server_layers(stats_before, stats_after, probe: Optional[LoopLagProbe]) -> dict:
    """serving.server.* per-layer values from ``StreamServer.stats()`` rows."""
    requests = sum(r["requests"] for r in stats_after) - sum(r["requests"] for r in stats_before)
    batches = sum(r["batches"] for r in stats_after) - sum(r["batches"] for r in stats_before)
    return {
        "serving.server.mean_batch": requests / batches if batches else 0.0,
        "serving.server.batches": batches,
        "serving.server.queue_p50_ms": float(np.median([r["p50_ms"] for r in stats_after])),
        "serving.server.max_queue_depth": max(r["max_queue_depth"] for r in stats_after),
        "serving.server.loop_lag_p99_ms": probe.p99_ms() if probe else 0.0,
    }


class Online(Workload):
    name = "online"
    WIDTH = 64
    CLASSES = 10
    GAMMA = 2
    SHARDS = 4
    CALLERS = 64
    MAX_DISTANCE = 4
    WARMUP_S = 0.3
    #: Answers a caller collects before it checks them against the oracle.
    CHECK_CHUNK = 256

    def prepare(self) -> None:
        rows = 300 if self.ctx.small else 1000
        pool = 2000 if self.ctx.small else 20000
        protos, zones = clustered_patterns(self.rng, self.CLASSES, self.WIDTH, rows, flip=0.08)
        self.pool, self.pool_classes = query_pool(
            self.rng, protos, zones, pool, near_share=0.8, far_flip=0.2
        )
        self.train = np.concatenate([zones[c] for c in range(self.CLASSES)])
        self.labels = np.repeat(np.arange(self.CLASSES), rows)
        self.oracle = HammingOracle(self.WIDTH, zones)
        self.expected = self.oracle.distances(self.pool, self.pool_classes)
        # Calibration-time detector baseline: the oracle's distances of
        # a validation slice (what ``serve`` computes with the monitor).
        self.baseline = self.expected[: min(2000, len(self.expected))]
        self.cap = max(self.MAX_DISTANCE + 1, self.GAMMA)
        self.info.update(zone_rows_per_class=rows, pool_rows=pool,
                         in_zone_share=float((self.expected <= self.GAMMA).mean()))
        self.monitor = self.router = None

    def _build(self):
        monitor = NeuronActivationMonitor(
            self.WIDTH, range(self.CLASSES), gamma=self.GAMMA,
            backend="bitset", indexed=True,
        )
        monitor.record(self.train, self.labels, self.labels)
        router = ShardRouter.partition(monitor, self.SHARDS)
        # First bounded query per shard builds its band index.
        router.min_distances(self.pool[:256], self.pool_classes[:256], cap=self.cap)
        return monitor, router

    def setup_once(self, tracer: Optional[Tracer]) -> float:
        """Monitor build, partition into shards and band-index build."""
        with traced(tracer):
            start = time.perf_counter()
            self.monitor, self.router = self._build()
            return time.perf_counter() - start

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        pool, classes, n = self.pool, self.pool_classes, len(self.pool)
        with warnings.catch_warnings():
            # The overflow bin is deliberate: distances past MAX_DISTANCE
            # only need to be "far" for the detector.
            warnings.simplefilter("ignore", RuntimeWarning)
            detector = RecordingDetector(self.baseline, max_distance=self.MAX_DISTANCE,
                                         cap=self.cap)
        expected_ok = self.expected <= self.GAMMA
        expected_capped = np.minimum(self.expected, self.cap + 1)
        expected_histogram = np.zeros(detector.bins, dtype=np.int64)
        served = [0]
        latencies = Latencies()
        failed = [0]
        probe = LoopLagProbe(enabled=tracer is not None)

        def check(rows: List[int], oks: List[bool]) -> None:
            # Each caller checks its answers in chunks, so nothing served
            # is kept and the peak memory does not grow with the throughput.
            rows_array = np.asarray(rows, dtype=np.int64)
            self.checks.compare("online verdicts", np.asarray(oks, dtype=bool),
                                expected_ok[rows_array])
            expected_histogram[:] += np.bincount(expected_capped[rows_array],
                                                 minlength=detector.bins)
            served[0] += len(rows)
            rows.clear()
            oks.clear()

        async def caller(server, k, deadline, measured):
            i = (k * n) // self.CALLERS
            rows: List[int] = []
            oks: List[bool] = []
            while time.perf_counter() < deadline:
                row = i % n
                i += 1
                start = time.perf_counter()
                try:
                    ok = await server.check(pool[row], classes[row])
                except Exception:  # noqa: BLE001 — counted, run goes on
                    failed[0] += 1
                    continue
                if measured:
                    latencies.add(time.perf_counter() - start)
                rows.append(row)
                oks.append(ok)
                if len(rows) == self.CHECK_CHUNK:
                    check(rows, oks)
            if rows:
                check(rows, oks)

        async def main():
            server = StreamServer(
                self.router, max_batch=64, max_delay_ms=2.0,
                executor="thread", distance_detector=detector,
            )
            async with server:
                warm_deadline = time.perf_counter() + self.WARMUP_S
                await asyncio.gather(*(
                    caller(server, k, warm_deadline, False) for k in range(self.CALLERS)
                ))
                warm = served[0]
                failed[0] = 0
                before = server.stats()
                counters = index_counters([s.monitor for s in self.router.shards])
                probe.start()
                with traced(tracer):
                    start = time.perf_counter()
                    await asyncio.gather(*(
                        caller(server, k, start + seconds, True)
                        for k in range(self.CALLERS)
                    ))
                    elapsed = time.perf_counter() - start
                await probe.stop()
                after = server.stats()
                counters = index_counters([s.monitor for s in self.router.shards]) - counters
                self.rss.sample()
            return warm, elapsed, before, after, counters

        warm, elapsed, before, after, counters = asyncio.run(main())
        self.checks.compare("online distances (multiset)",
                            detector.histogram, expected_histogram)
        verdicts = served[0] - warm
        layers = server_layers(before, after, probe)
        layers["monitor.backends.index.scanned_fraction"] = (
            counters[0] / counters[1] if counters[1] else 0.0
        )
        return Phase(verdicts=verdicts, elapsed=elapsed, latencies=latencies,
                     attempted=verdicts + failed[0], failed=failed[0], layers=layers,
                     rows_per_call=1)

    def kernel_line(self):
        return kernel_line(self.oracle, self.monitor, self.pool, self.pool_classes, self.GAMMA)
