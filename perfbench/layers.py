"""Which ``repro`` calls are traced, and the per-layer metric catalogue.

:func:`instrument` wraps the public entry points of every layer the
workloads touch: ``nn``, ``monitor`` and ``monitor.backends``, ``bdd``
(through the monitor's engine counters), ``serving.server``,
``serving.shard``, ``serving.procpool``, ``serving.cluster``,
``monitor.drift`` and ``store``.  The same wrappers are installed on
every workload; a layer a workload does not use simply records nothing,
and its metrics read 0.

:data:`PER_LAYER` is the catalogue a traced run emits, in order, with
units; ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Optional, Tuple

import numpy as np

from tracer import Tracer


def _nrows(value) -> int:
    return len(np.atleast_2d(np.asarray(value))) if value is not None else 0


def _nbytes(data) -> int:
    nbytes = getattr(data, "nbytes", None)
    return int(nbytes) if nbytes is not None else len(data)


def _rtt_factory(tracer: Tracer, name: str):
    """Wrap a pool/cluster ``submit``: record submit → future completion."""

    def factory(submit):
        def traced_submit(self, shard_id, patterns, *args, **kwargs):
            start = time.perf_counter()
            future = submit(self, shard_id, patterns, *args, **kwargs)
            rows = len(patterns)
            future.add_done_callback(
                lambda _f: tracer.add_duration(name, time.perf_counter() - start, rows)
            )
            return future

        return traced_submit

    return factory


@contextlib.contextmanager
def traced(tracer: Optional[Tracer]):
    """Trace every layer inside the block (no-op for ``None``)."""
    if tracer is None:
        yield
        return
    instrument(tracer)
    try:
        yield
    finally:
        tracer.restore()


def instrument(tracer: Tracer) -> None:
    """Install every layer wrapper on ``tracer`` (undo with ``restore``)."""
    import repro.monitor.drift as drift
    import repro.monitor.patterns as patterns
    import repro.store.checksum as checksum
    from repro.monitor.backends.bdd import BDDZoneBackend
    from repro.monitor.backends.index import MultiIndexHammingIndex
    from repro.monitor.calibration import GammaCalibrator
    from repro.monitor.monitor import NeuronActivationMonitor
    from repro.monitor.shift import DistanceShiftDetector
    from repro.serving.cluster import ClusterCoordinator
    from repro.serving.procpool import ProcessShardPool
    from repro.serving.server import StreamServer
    from repro.serving.shard import MonitorShard, ShardRouter
    from repro.store import ZoneStore

    t = tracer
    # nn: the forward pass behind pattern extraction.
    t.instrument(patterns, "extract_patterns", "nn.extract_patterns",
                 rows=lambda model, module, inputs, *a, **k: len(inputs))
    # monitor + backends
    t.instrument(NeuronActivationMonitor, "record", "monitor.build.record",
                 rows=lambda self, p, *a, **k: _nrows(p))
    t.instrument(NeuronActivationMonitor, "check", "monitor.check",
                 rows=lambda self, p, *a, **k: _nrows(p))
    t.instrument(NeuronActivationMonitor, "min_distances", "monitor.min_distances",
                 rows=lambda self, p, *a, **k: _nrows(p))
    t.instrument(NeuronActivationMonitor, "merge", "monitor.merge")
    t.instrument(BDDZoneBackend, "zone_ref", "monitor.backends.bdd.enlarge",
                 when=lambda self, gamma: gamma > 0 and gamma not in self._zone_cache)
    t.instrument(BDDZoneBackend, "contains_batch", "monitor.backends.bdd.contains",
                 rows=lambda self, p, *a, **k: _nrows(p))
    t.instrument(MultiIndexHammingIndex, "bounded_min_distances",
                 "monitor.backends.index.query", rows=lambda self, q: len(q))
    t.instrument(DistanceShiftDetector, "update_many", "monitor.shift.update_many",
                 rows=lambda self, d: len(d))
    t.instrument(GammaCalibrator, "calibrate_patterns", "monitor.calibration.calibrate")
    t.instrument(drift, "partition_payloads", "monitor.drift.partition_payloads")
    t.instrument(drift.DriftResponder, "respond", "monitor.drift.respond")
    # serving.server (async front door)
    t.instrument(StreamServer, "check", "serving.server.check", rows=lambda *a, **k: 1)
    t.instrument(StreamServer, "check_many", "serving.server.check_many",
                 rows=lambda self, p, *a, **k: _nrows(p))
    t.instrument(StreamServer, "classify", "serving.server.classify",
                 rows=lambda *a, **k: 1)
    # serving.shard
    for attr in ("route", "shard_for", "owns"):
        t.instrument(ShardRouter, attr, "serving.shard.route")
    t.instrument(ShardRouter, "apply_snapshot", "serving.shard.apply_snapshot")
    t.instrument(MonitorShard, "check_batch", "serving.shard.check_batch",
                 rows=lambda self, p, *a, **k: _nrows(p))
    # serving.procpool / serving.cluster
    t.instrument(ProcessShardPool, "start", "serving.fleet.start")
    t.instrument(ClusterCoordinator, "start", "serving.fleet.start")
    t.replace(ProcessShardPool, "submit", _rtt_factory(t, "serving.procpool.block_rtt"))
    t.replace(ClusterCoordinator, "submit", _rtt_factory(t, "serving.cluster.block_rtt"))
    # store
    t.instrument(ZoneStore, "open", "store.open")
    t.instrument(NeuronActivationMonitor, "from_store", "store.from_store")
    for attr in ("append_insert", "append_gamma", "append_snapshot"):
        t.instrument(ZoneStore, attr, "store.append")
    t.instrument(ZoneStore, "compact", "store.compact")
    t.instrument(checksum, "crc32c", "store.crc",
                 rows=lambda data, *a, **k: _nbytes(data))


#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("nn.extract_patterns.us_per_row", "us", "lower"),
    ("nn.extract_patterns.busy_s", "s", "lower"),
    ("monitor.build.record_s", "s", "lower"),
    ("monitor.backends.bdd.enlarge_s", "s", "lower"),
    ("monitor.backends.bdd.contains_us_per_row", "us", "lower"),
    ("monitor.check.us_per_row", "us", "lower"),
    ("monitor.backends.index.scanned_fraction", "ratio", "lower"),
    ("bdd.live_nodes", "count", "lower"),
    ("bdd.cache_hit_rate", "ratio", "higher"),
    ("serving.server.mean_batch", "rows", "higher"),
    ("serving.server.batches", "count", "higher"),
    ("serving.server.queue_p50_ms", "ms", "lower"),
    ("serving.server.max_queue_depth", "count", "lower"),
    ("serving.server.loop_lag_p99_ms", "ms", "lower"),
    ("monitor.shift.update_many.busy_s", "s", "lower"),
    ("serving.shard.route.busy_s", "s", "lower"),
    ("serving.shard.check_batch.us_per_row", "us", "lower"),
    ("serving.overhead_x", "x", "lower"),
    ("serving.procpool.block_rtt_p50_ms", "ms", "lower"),
    ("serving.procpool.ring_blocks", "count", "higher"),
    ("serving.procpool.pipe_blocks", "count", "lower"),
    ("serving.procpool.requeued_blocks", "count", "lower"),
    ("serving.procpool.respawns", "count", "lower"),
    ("serving.cluster.block_rtt_p50_ms", "ms", "lower"),
    ("serving.cluster.requeued_blocks", "count", "lower"),
    ("serving.fleet.start_s", "s", "lower"),
    ("monitor.drift.respond_s", "s", "lower"),
    ("monitor.calibration.calibrate_s", "s", "lower"),
    ("monitor.merge_s", "s", "lower"),
    ("monitor.drift.partition_payloads_s", "s", "lower"),
    ("serving.shard.apply_snapshot_s", "s", "lower"),
    ("monitor.drift.absorbed_patterns", "count", "higher"),
    ("store.open_s", "s", "lower"),
    ("store.from_store_s", "s", "lower"),
    ("store.append_s", "s", "lower"),
    ("store.wal_bytes", "B", "lower"),
    ("store.compact_s", "s", "lower"),
    ("store.crc.busy_s", "s", "lower"),
    ("store.crc.cold_start_share", "ratio", "lower"),
    ("kernel.oracle_us_per_row", "us", "lower"),
    ("kernel.monitor_check_us_per_row", "us", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("e2e.failed_share", "ratio", "lower"),
    ("e2e.latency_p99_ms", "ms", "lower"),
    ("e2e.tcp_verdicts_per_s", "1/s", "higher"),
    ("e2e.swap_s", "s", "lower"),
)

#: (name, unit, better) of every end-to-end metric an untraced run emits.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("verdicts_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def from_trace(setup: Tracer, run: Tracer) -> Dict[str, float]:
    """Per-layer values read off the traced set-up and the traced phase.

    Set-up layers (build, enlargement, fleet start, cold start) come from
    the traced set-up; serving and drift layers from the traced phase.
    Layers that appear in both (``nn``, ``store.crc``) sum both.
    """
    both = (setup, run)
    values = {
        "nn.extract_patterns.busy_s": sum(t.busy_s("nn.extract_patterns") for t in both),
        "monitor.build.record_s": setup.busy_s("monitor.build.record"),
        "monitor.backends.bdd.enlarge_s": setup.busy_s("monitor.backends.bdd.enlarge"),
        "monitor.backends.bdd.contains_us_per_row": run.self_us_per_row(
            "monitor.backends.bdd.contains"),
        "monitor.check.us_per_row": run.us_per_row("monitor.check"),
        "monitor.shift.update_many.busy_s": run.busy_s("monitor.shift.update_many"),
        "serving.shard.route.busy_s": run.busy_s("serving.shard.route"),
        "serving.shard.check_batch.us_per_row": run.us_per_row("serving.shard.check_batch"),
        "serving.procpool.block_rtt_p50_ms": run.p50_ms("serving.procpool.block_rtt"),
        "serving.cluster.block_rtt_p50_ms": run.p50_ms("serving.cluster.block_rtt"),
        "serving.fleet.start_s": setup.busy_s("serving.fleet.start"),
        "monitor.drift.respond_s": run.busy_s("monitor.drift.respond"),
        "monitor.calibration.calibrate_s": run.busy_s("monitor.calibration.calibrate"),
        "monitor.merge_s": run.busy_s("monitor.merge"),
        "monitor.drift.partition_payloads_s": run.busy_s("monitor.drift.partition_payloads"),
        "serving.shard.apply_snapshot_s": run.busy_s("serving.shard.apply_snapshot"),
        "store.open_s": setup.busy_s("store.open"),
        "store.from_store_s": setup.busy_s("store.from_store"),
        "store.append_s": run.busy_s("store.append"),
        "store.compact_s": run.busy_s("store.compact"),
        "store.crc.busy_s": sum(t.busy_s("store.crc") for t in both),
    }
    extract = [t.get("nn.extract_patterns") for t in both]
    extract_rows = sum(s.rows for s in extract)
    values["nn.extract_patterns.us_per_row"] = (
        sum(s.total_s for s in extract) / extract_rows * 1e6 if extract_rows else 0.0
    )
    cold = setup.busy_s("store.open") + setup.busy_s("store.from_store")
    values["store.crc.cold_start_share"] = (
        setup.busy_s("store.crc") / cold if cold else 0.0
    )
    return values
