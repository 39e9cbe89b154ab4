"""``paper-loop``: the paper's Fig. 1 loop on the committed MNIST checkpoint.

Set-up is Algorithm 1 as a user pays for it: one forward pass over the
training set (``build_monitor`` with the BDD backend, γ=2), then the
γ-enlargement of every class zone (the first ``zone_ref`` per class).
The run sends raw validation images through ``StreamServer.classify``,
closed loop, from 8 concurrent callers.  This is the only workload where
``nn`` (the forward pass) and the ``bdd`` engine do the work; the serving
layer does almost none.

The checkpoint is loaded from ``.artifacts/`` (``train_system`` trains
and caches it only if it is missing).
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional

import numpy as np

from base import Phase, Workload
from common import Latencies, LoopLagProbe
from layers import traced
from oracle import HammingOracle, kernel_line
from repro.analysis import STANDARD_CONFIGS, train_system
from repro.analysis.experiments import ExperimentConfig, TrainedSystem, build_monitor
from repro.monitor.patterns import extract_patterns
from repro.monitor.runtime import MonitoredClassifier
from repro.nn.data import stack_dataset
from repro.serving.server import StreamServer
from repro.serving.shard import MonitorShard, ShardRouter
from tracer import Tracer
from wl_online import server_layers

#: Small-scale stand-in for the self-test: a tiny system trained on the
#: fly (seconds) instead of the committed checkpoint.
SMALL_CONFIG = ExperimentConfig(name="mnist", train_size=300, val_size=200, epochs=1)


class PaperLoop(Workload):
    name = "paper-loop"
    #: A set-up is a forward pass over 4000 images (~10 s): three, not seven.
    setup_repeats = 3
    GAMMA = 2
    CALLERS = 8

    def prepare(self) -> None:
        config = SMALL_CONFIG if self.ctx.small else STANDARD_CONFIGS["mnist"]
        self.system = train_system(config)
        spec = self.system.spec
        self.val_inputs, self.val_labels = stack_dataset(self.system.val_dataset)
        # The benchmark's own pass over the validation set: the oracle's
        # patterns and predictions for every image the run will send.
        self.val_patterns, logits = extract_patterns(
            spec.model, spec.monitored_module, self.val_inputs
        )
        self.val_pred = logits.argmax(axis=1)
        self.order = self.rng.permutation(len(self.val_inputs))
        self.oracle = None
        self.info.update(checkpoint=f"mnist-{config.cache_key()}",
                         train_images=config.train_size, val_images=config.val_size)

    def setup_once(self, tracer: Optional[Tracer]) -> float:
        """Forward pass over the training set, record, γ-enlargement."""
        base = self.system
        with traced(tracer):
            start = time.perf_counter()
            # A fresh system object has no cached training patterns, so
            # every set-up pays the forward pass again.
            system = TrainedSystem(base.config, base.spec, base.train_dataset,
                                   base.val_dataset, base.train_accuracy, base.val_accuracy)
            monitor = build_monitor(system, gamma=self.GAMMA, backend="bdd")
            for zone in monitor.zones.values():
                zone.zone_ref  # materialise Z^γ
            elapsed = time.perf_counter() - start
        self.monitor = monitor
        self.engine = monitor.engine_stats()
        if self.oracle is None:
            # Algorithm 1's recording rule, applied by the benchmark: the
            # patterns of correctly predicted training images, per class.
            patterns, labels, predictions = system.patterns_of("train")
            keep = labels == predictions
            self.oracle = HammingOracle(patterns.shape[1], {
                c: patterns[keep & (labels == c)] for c in monitor.classes
            })
            self.expected = self.oracle.distances(self.val_patterns, self.val_pred)
        return elapsed

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        spec = self.system.spec
        classifier = MonitoredClassifier(spec.model, spec.monitored_module, self.monitor)
        router = ShardRouter([MonitorShard(0, self.monitor)])
        inputs, order, n = self.val_inputs, self.order, len(self.order)
        served: List[tuple] = []
        latencies = Latencies()
        failed = [0]
        probe = LoopLagProbe(enabled=tracer is not None)

        async def caller(server, k, deadline, measured):
            j = k
            while time.perf_counter() < deadline:
                image = int(order[j % n])
                j += self.CALLERS
                began = time.perf_counter()
                try:
                    verdict = await server.classify(inputs[image])
                except Exception:  # noqa: BLE001 — counted, run goes on
                    failed[0] += 1
                    continue
                if measured:
                    latencies.add(time.perf_counter() - began)
                served.append((image, verdict))

        async def main():
            server = StreamServer(router, classifier=classifier, executor="thread")
            async with server:
                warm = time.perf_counter() + 0.3
                await asyncio.gather(*(caller(server, k, warm, False)
                                       for k in range(self.CALLERS)))
                warm_count = len(served)
                failed[0] = 0
                before = server.stats()
                probe.start()
                with traced(tracer):
                    start = time.perf_counter()
                    await asyncio.gather(*(caller(server, k, start + seconds, True)
                                           for k in range(self.CALLERS)))
                    elapsed = time.perf_counter() - start
                await probe.stop()
                after = server.stats()
            self.rss.sample()
            return warm_count, elapsed, before, after

        warm_count, elapsed, before, after = asyncio.run(main())
        self._check(served)
        layers = server_layers(before, after, probe)
        layers.update(self._engine_layers())
        verdicts = len(served) - warm_count
        return Phase(verdicts=verdicts, elapsed=elapsed, latencies=latencies,
                     attempted=verdicts + failed[0], failed=failed[0], layers=layers,
                     rows_per_call=1)

    def _check(self, served) -> None:
        images = np.array([image for image, _ in served])
        predicted = np.array([v.predicted_class for _, v in served])
        supported = np.array([v.supported for _, v in served])
        self.checks.compare("paper-loop predictions", predicted, self.val_pred[images])
        oracle_ok = self.expected[images] <= self.GAMMA
        self.checks.compare("paper-loop verdicts", supported, oracle_ok)
        # Table II's two warning rates, served vs oracle, on the same images.
        correct = predicted == self.val_labels[images]
        for name, mask in (("correct", correct), ("misclassified", ~correct)):
            if mask.any():
                served_rate = float((~supported[mask]).mean())
                oracle_rate = float((~oracle_ok[mask]).mean())
                self.info[f"warning_rate_{name}"] = served_rate
                self.checks.require(f"paper-loop warning rate ({name})",
                                    served_rate == oracle_rate,
                                    f"served {served_rate:.4f}, oracle {oracle_rate:.4f}")

    def _engine_layers(self) -> Dict[str, float]:
        """bdd.* from ``engine_stats()`` of the monitor just built."""
        stats = self.engine or {}
        calls = sum(stats.get(k, 0) for k in ("ite_calls", "exists_calls", "expand_calls"))
        hits = sum(stats.get(k, 0) for k in
                   ("ite_cache_hits", "exists_cache_hits", "expand_cache_hits"))
        return {
            "bdd.live_nodes": stats.get("live_nodes", 0),
            "bdd.cache_hit_rate": hits / calls if calls else 0.0,
        }

    def kernel_line(self) -> Dict[str, float]:
        return kernel_line(self.oracle, self.monitor, self.val_patterns, self.val_pred,
                           self.GAMMA)
