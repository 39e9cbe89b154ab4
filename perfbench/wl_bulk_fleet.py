"""``bulk-fleet``: successive ``check_many`` blocks through worker fleets.

One caller sends blocks of wide patterns (256 neurons, indexed bitset,
distances on) through ``executor="process"`` (shared-memory rings), then
the same stream through ``executor="cluster"`` on loopback TCP.  Each
fleet has one worker, so the caller and the worker use no more CPUs
than a 2-CPU host has; with two workers the three processes took turns
on two CPUs and the figures measured the scheduler.  The gated figures
come from the process phase, which gets most of the measured time; each
phase starts with an untimed warm-up stream whose answers are still
checked.  The zones are small enough that the kernel is cheap, so block framing, transport and worker dispatch do most of the
work and the front door (one call per block) little.

Served distances go to :class:`DistanceSink`, which keeps them for the
oracle and does nothing else.  The program's ``DistanceShiftDetector``
updates its window once per row in Python on the event loop; that feed
is measured on ``online``, and here it would bury the transport.
"""

from __future__ import annotations

import asyncio
import time
from typing import List, Optional

import numpy as np

from base import Phase, Workload
from common import WINDOWS, Latencies, LoopLagProbe, clustered_patterns, median, query_pool
from layers import traced
from oracle import HammingOracle, kernel_line
from repro.monitor.monitor import NeuronActivationMonitor
from repro.serving.server import StreamServer
from repro.serving.shard import ShardRouter
from tracer import Tracer
from wl_online import server_layers


class DistanceSink:
    """Stands in for a distance detector: the server asks for bounded
    distances (cap ``max_distance + 1``) and hands every block's
    distances to :meth:`update_many`, which only keeps them."""

    def __init__(self, max_distance: int):
        self.max_distance = max_distance
        self.seen: List[np.ndarray] = []

    def update_many(self, distances):
        self.seen.append(np.asarray(distances))
        return ()

    def take(self) -> np.ndarray:
        seen, self.seen = self.seen, []
        return np.concatenate(seen) if seen else np.zeros(0, dtype=np.int64)


class BulkFleet(Workload):
    name = "bulk-fleet"
    WIDTH = 256
    CLASSES = 10
    GAMMA = 2
    SHARDS = 4
    WORKERS = 1
    MAX_DISTANCE = 2
    #: Share of the measured time each executor's phase gets.
    SHARES = {"process": 0.7, "cluster": 0.3}
    #: Untimed blocks streamed before each phase's clock starts.
    WARMUP_S = 0.3

    def prepare(self) -> None:
        small = self.ctx.small
        rows = 40 if small else 60
        pool = 2048 if small else 16384
        self.block = 64 if small else 256
        protos, zones = clustered_patterns(self.rng, self.CLASSES, self.WIDTH, rows, flip=0.05)
        self.pool, self.pool_classes = query_pool(
            self.rng, protos, zones, pool, near_share=0.7, far_flip=0.12
        )
        self.oracle = HammingOracle(self.WIDTH, zones)
        self.expected = self.oracle.distances(self.pool, self.pool_classes)
        self.cap = max(self.MAX_DISTANCE + 1, self.GAMMA)
        self.expected_ok = self.expected <= self.GAMMA
        self.expected_capped = np.minimum(self.expected, self.cap + 1)
        train = np.concatenate([zones[c] for c in range(self.CLASSES)])
        labels = np.repeat(np.arange(self.CLASSES), rows)
        self.monitor = NeuronActivationMonitor(
            self.WIDTH, range(self.CLASSES), gamma=self.GAMMA,
            backend="bitset", indexed=True,
        )
        self.monitor.record(train, labels, labels)
        self.router = ShardRouter.partition(self.monitor, self.SHARDS)
        self.info.update(zone_rows_per_class=rows, pool_rows=pool, block_rows=self.block,
                         in_zone_share=float((self.expected <= self.GAMMA).mean()))

    def _server(self, executor: str) -> StreamServer:
        # A bulk caller already hands the server whole blocks; a coalescing
        # delay would only make each shard wait for rows that never come.
        return StreamServer(self.router, executor=executor, workers=self.WORKERS,
                            max_delay_ms=0.0, distance_detector=DistanceSink(self.MAX_DISTANCE))

    async def _start(self, executor: str) -> StreamServer:
        """Fleet spawn plus one warm-up block through every worker."""
        server = self._server(executor)
        await server.start()
        for _ in range(self.WORKERS):
            await server.check_many(self.pool[: self.block], self.pool_classes[: self.block])
        server.distance_detector.take()
        return server

    def setup_once(self, tracer: Optional[Tracer]) -> float:
        """Spawn and warm the process fleet, then the TCP fleet."""

        async def main():
            total = 0.0
            for executor in ("process", "cluster"):
                with traced(tracer):
                    start = time.perf_counter()
                    server = await self._start(executor)
                    total += time.perf_counter() - start
                self.rss.sample()
                await server.stop()
            return total

        return asyncio.run(main())

    async def _stream(self, server: StreamServer, seconds: float, offset: int,
                      tracer: Optional[Tracer]):
        """Closed-loop blocks for ``seconds``.

        Every answer is checked as it arrives (a few microseconds against
        a block's millisecond), so nothing served is kept and the peak
        memory does not grow with the throughput.
        """
        pool, classes, n, block = self.pool, self.pool_classes, len(self.pool), self.block
        detector = server.distance_detector
        mode = server.executor_mode
        latencies = Latencies()
        calls = failed = verdicts = 0
        probe = LoopLagProbe(enabled=tracer is not None)
        probe.start()
        with traced(tracer):
            start = time.perf_counter()
            while time.perf_counter() - start < seconds:
                rows = (offset + np.arange(block)) % n
                offset += block
                calls += 1
                began = time.perf_counter()
                try:
                    answer = await server.check_many(pool[rows], classes[rows])
                except Exception:  # noqa: BLE001 — counted, run goes on
                    failed += 1
                    detector.take()
                    continue
                latencies.add(time.perf_counter() - began)
                verdicts += block
                self.checks.compare(f"{mode} verdicts", answer, self.expected_ok[rows])
                self.checks.compare(f"{mode} distances (per block)",
                                    np.sort(detector.take()),
                                    np.sort(self.expected_capped[rows]))
            elapsed = time.perf_counter() - start
        await probe.stop()
        return verdicts, elapsed, latencies, calls, failed, offset, probe

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        async def main():
            result = {"warm-up": [0, 0]}
            offset = 0
            for executor in ("process", "cluster"):
                server = await self._start(executor)
                warmup = await self._stream(server, self.WARMUP_S, offset, None)
                offset = warmup[5]
                result["warm-up"][0] += warmup[3]
                result["warm-up"][1] += warmup[4]
                before = server.stats()
                outcome = await self._stream(server, seconds * self.SHARES[executor],
                                             offset, tracer)
                offset = outcome[5]
                self.rss.sample()
                result[executor] = (outcome, before, server.stats(), server.worker_stats())
                await server.stop()
            return result

        result = asyncio.run(main())
        warm_calls, warm_failed = result["warm-up"]
        (verdicts, elapsed, latencies, calls, failed, _, probe), before, after, workers = \
            result["process"]
        (tcp_verdicts, tcp_elapsed, tcp_latencies, tcp_calls, tcp_failed, _, _), _, _, \
            tcp_workers = result["cluster"]
        layers = server_layers(before, after, probe)
        layers.update({
            "serving.procpool.ring_blocks": sum(w["ring_blocks"] for w in workers),
            "serving.procpool.pipe_blocks": sum(w["pipe_blocks"] for w in workers),
            "serving.procpool.requeued_blocks": sum(w["requeued_blocks"] for w in workers),
            "serving.procpool.respawns": sum(w["respawns"] for w in workers),
            "serving.cluster.requeued_blocks": sum(w["requeued_blocks"] for w in tcp_workers),
        })
        self.info["tcp_latency"] = tcp_latencies.report()
        return Phase(
            verdicts=verdicts, elapsed=elapsed, latencies=latencies,
            attempted=calls + tcp_calls + warm_calls,
            failed=failed + tcp_failed + warm_failed, layers=layers,
            e2e={"tcp_verdicts_per_s": median(tcp_latencies.window_rates(WINDOWS, self.block))},
            rows_per_call=self.block,
        )

    def kernel_line(self):
        return kernel_line(self.oracle, self.monitor, self.pool, self.pool_classes, self.GAMMA)

