"""``drift-store``: zone writes beside reads, on a durable store.

Set-up is a cold start: ``ZoneStore.open`` plus
``NeuronActivationMonitor.from_store`` on a store prepared beforehand
(untimed) with a compacted segment and a WAL tail.  The run is a fixed
number of rounds, driven by the benchmark so that it repeats exactly:

1. bulk ``check_many`` reads on the thread executor (brute bitset), with
   a share of shifted rows that grows round by round;
2. the flagged rows are staged in the ``DriftResponder`` (which keeps the
   newest ``max_staged`` per class);
3. ``DriftResponder.respond(layout)`` and ``ShardRouter.apply_snapshot``
   (the calls the server's drift swap makes), with the store attached;
4. ``ZoneStore.compact`` every ``COMPACT_EVERY`` rounds.

The oracle follows the zones: it absorbs the same staged rows and
re-chooses γ by the calibrator's rule on its own distances, so every
read after every swap is checked.  At the end a cold reopen of the store
must be bit-identical to ``responder.monitor``.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import time
from typing import Dict, List, Optional

import numpy as np

from base import Phase, Workload
from common import Latencies, clustered_patterns, median
from layers import traced
from oracle import HammingOracle, kernel_line
from repro.monitor.calibration import GammaCalibrator
from repro.monitor.drift import DriftResponder
from repro.monitor.monitor import NeuronActivationMonitor
from repro.serving.server import StreamServer
from repro.serving.shard import ShardRouter
from repro.store import ZoneStore
from tracer import Tracer
from wl_online import server_layers


class DriftStore(Workload):
    name = "drift-store"
    WIDTH = 64
    CLASSES = 10
    GAMMA = 2
    SHARDS = 4
    COMPACT_EVERY = 2
    #: One round per this many seconds of ``--seconds``; the round sizes
    #: below make a round's timed work (reads, swap, compaction) about that.
    ROUND_SECONDS = 0.5

    def prepare(self) -> None:
        small = self.ctx.small
        self.segment_rows = 300 if small else 3000
        self.tail_rows = 50 if small else 400
        self.block = 32 if small else 96
        self.blocks_per_round = 8 if small else 200
        # Per-class staging cap: each swap absorbs at most this many rows a
        # class, so the zones (and the read cost) stay nearly stationary.
        self.max_staged = 20 if small else 100
        val_rows = 200 if small else 500
        rows = self.segment_rows + self.tail_rows
        self.protos, zones = clustered_patterns(
            self.rng, self.CLASSES, self.WIDTH, rows, flip=0.1
        )
        self.segment = {c: z[: self.segment_rows] for c, z in zones.items()}
        self.tail = {c: z[self.segment_rows:] for c, z in zones.items()}
        self.zones = zones
        # Retained validation sweep set: near-zone rows, 3% mislabelled.
        self.val_classes = self.rng.integers(0, self.CLASSES, val_rows)
        self.val = self._rows(self.val_classes, shifted=np.zeros(val_rows, dtype=bool))
        self.val_labels = self.val_classes.copy()
        wrong = self.rng.random(val_rows) < 0.03
        self.val_labels[wrong] = (self.val_labels[wrong] + 1) % self.CLASSES
        self.calibrator = GammaCalibrator()
        self.info.update(segment_rows_per_class=self.segment_rows,
                         tail_rows_per_class=self.tail_rows, block_rows=self.block,
                         blocks_per_round=self.blocks_per_round)

    def _rows(self, classes: np.ndarray, shifted: np.ndarray) -> np.ndarray:
        """Near rows (training-like, flip 0.1) or shifted rows (flip 0.3)."""
        flips = np.where(shifted, 0.3, 0.1)[:, None]
        noise = (self.rng.random((len(classes), self.WIDTH)) < flips).astype(np.uint8)
        return self.protos[classes] ^ noise

    # ------------------------------------------------------------------
    # store preparation and cold start
    # ------------------------------------------------------------------
    def _prepare_store(self) -> str:
        """A store with a compacted segment plus a WAL tail (untimed)."""
        directory = os.path.join(self.ctx.work_dir, "store")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        monitor = NeuronActivationMonitor(
            self.WIDTH, range(self.CLASSES), gamma=self.GAMMA, backend="bitset"
        )
        for c, rows in self.segment.items():
            monitor.zones[c].add_patterns(rows)
        store = ZoneStore.open(directory)
        monitor.attach_store(store)
        store.compact()
        for c, rows in self.tail.items():
            monitor.zones[c].add_patterns(rows)
        store.flush(sync=True)
        store.close()
        return directory

    @staticmethod
    def _cold_start(directory: str):
        store = ZoneStore.open(directory)
        return store, NeuronActivationMonitor.from_store(store)

    def setup_once(self, tracer: Optional[Tracer]) -> float:
        directory = self._prepare_store()
        with traced(tracer):
            start = time.perf_counter()
            store, monitor = self._cold_start(directory)
            elapsed = time.perf_counter() - start
        self.monitor = monitor
        store.close()
        return elapsed

    # ------------------------------------------------------------------
    # the rounds
    # ------------------------------------------------------------------
    def _oracle_gamma(self, oracle: HammingOracle) -> int:
        """γ by the calibrator's rule (smallest γ whose out-of-pattern
        rate meets the target), from the oracle's own distances."""
        distances = oracle.distances(self.val, self.val_classes)
        for gamma in range(self.calibrator.max_gamma + 1):
            if (distances > gamma).mean() <= self.calibrator.max_out_of_pattern_rate:
                return gamma
        return self.calibrator.max_gamma

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        rounds = max(2, int(round(seconds / self.ROUND_SECONDS)))
        directory = self._prepare_store()
        store, monitor = self._cold_start(directory)
        wal_start = store.wal_offset
        responder = DriftResponder(monitor, self.val, self.val_classes, self.val_labels,
                                   calibrator=self.calibrator, min_staged=1,
                                   max_staged=self.max_staged, store=store)
        router = ShardRouter.partition(monitor, self.SHARDS)
        layout = [(s.shard_id, list(s.classes)) for s in router.shards]
        oracle = HammingOracle(self.WIDTH, self.zones)
        gamma = store.gamma
        latencies = Latencies()
        swaps: List[float] = []
        calls = failed = verdicts = absorbed = 0
        before = after = None

        async def main():
            nonlocal calls, failed, verdicts, absorbed, gamma, before, after, elapsed
            # Whole blocks arrive at once; no coalescing delay (as bulk-fleet).
            server = StreamServer(router, executor="thread", max_delay_ms=0.0)
            async with server:
                before = server.stats()
                for r in range(rounds):
                    share = 0.1 + 0.4 * r / max(1, rounds - 1)
                    n = self.block * self.blocks_per_round
                    classes = self.rng.integers(0, self.CLASSES, n)
                    rows = self._rows(classes, self.rng.random(n) < share)
                    served = np.ones(n, dtype=bool)
                    for b in range(self.blocks_per_round):
                        part = slice(b * self.block, (b + 1) * self.block)
                        calls += 1
                        began = time.perf_counter()
                        try:
                            served[part] = await server.check_many(rows[part], classes[part])
                        except Exception:  # noqa: BLE001 — counted, run goes on
                            failed += 1
                            continue
                        took = time.perf_counter() - began
                        latencies.add(took)
                        elapsed += took
                        verdicts += self.block
                    flagged = ~served
                    began = time.perf_counter()
                    responder.staging.add(rows[flagged], classes[flagged])
                    snapshot = responder.respond(layout)
                    router.apply_snapshot(snapshot)
                    swaps.append(time.perf_counter() - began)
                    if (r + 1) % self.COMPACT_EVERY == 0:
                        store.compact()
                    elapsed += time.perf_counter() - began
                    absorbed += snapshot.absorbed_patterns
                    # Untimed: the oracle checks the reads, then follows the swap.
                    self.checks.compare(f"drift-store round {r} verdicts", served,
                                        oracle.verdicts(rows, classes, gamma))
                    # Staging keeps the newest max_staged rows per class.
                    for c in np.unique(classes[flagged]):
                        oracle.add(int(c), rows[flagged & (classes == c)][-self.max_staged:])
                    gamma = self._oracle_gamma(oracle)
                    self.checks.require(
                        f"drift-store round {r} gamma", snapshot.gamma == gamma,
                        f"snapshot chose {snapshot.gamma}, oracle {gamma}",
                    )
                    self._kernel_rows = (rows, classes, gamma)
                after = server.stats()

        elapsed = 0.0
        with traced(tracer):
            asyncio.run(main())
        self.rss.sample()
        wal_bytes = store.wal_offset - wal_start
        self._check_reopen(directory, store, responder)
        store.close()
        self.monitor, self.oracle = responder.monitor, oracle
        layers = server_layers(before, after, None)
        layers.update({
            "monitor.drift.absorbed_patterns": absorbed,
            "store.wal_bytes": wal_bytes,
        })
        return Phase(verdicts=verdicts, elapsed=elapsed, latencies=latencies,
                     attempted=calls, failed=failed, layers=layers,
                     e2e={"swap_s": median(swaps)})

    def _check_reopen(self, directory: str, store, responder) -> None:
        """A cold reopen must reproduce ``responder.monitor`` exactly."""
        store.flush(sync=True)
        reopened = ZoneStore.open(directory)
        try:
            rebuilt = NeuronActivationMonitor.from_store(reopened, attach=False)
            live = responder.monitor
            self.checks.require("drift-store reopen gamma", rebuilt.gamma == live.gamma,
                                f"{rebuilt.gamma} != {live.gamma}")
            self.checks.require("drift-store reopen epoch", reopened.epoch == responder.epoch,
                                f"{reopened.epoch} != {responder.epoch}")
            for c in live.classes:
                self.checks.compare(
                    f"drift-store reopen zone {c}",
                    _canonical(rebuilt.zones[c].backend.visited_patterns()),
                    _canonical(live.zones[c].backend.visited_patterns()),
                )
        finally:
            reopened.close()

    def kernel_line(self) -> Dict[str, float]:
        """Oracle and ``monitor.check`` on the last round's read rows."""
        patterns, classes, gamma = self._kernel_rows
        return kernel_line(self.oracle, self.monitor, patterns, classes, gamma)


def _canonical(rows: np.ndarray) -> np.ndarray:
    return np.unique(np.packbits(rows, axis=1), axis=0)
