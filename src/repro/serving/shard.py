"""Sharding monitors into independently queryable slices.

A :class:`~repro.monitor.monitor.NeuronActivationMonitor` is a dictionary
of per-class comfort zones over one projection — an embarrassingly
partitionable structure: any subset of classes is itself a complete
monitor for the decisions predicted as those classes.  A
:class:`MonitorShard` wraps such a slice; :class:`ShardRouter` partitions
a monitor into shards, routes query rows to the shard owning their
predicted class, and reassembles the full monitor with
:meth:`NeuronActivationMonitor.merge` (the exact inverse of
:meth:`ShardRouter.partition`).  Every one of these hops moves zones in
one form — the monitor config plus sorted packed ``Z^0`` rows — which is
also the :meth:`MonitorShard.to_payload` wire form.

Detection monitors shard along their natural axis instead: one shard per
grid cell (:func:`shard_detection_monitor`), each wrapping that cell's
complete per-class monitor.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.monitor.detection import DetectionMonitor
from repro.monitor.monitor import NeuronActivationMonitor


class MonitorShard:
    """One independently queryable slice of a monitor.

    Thin, stateless wrapper pairing a shard id with the slice's monitor;
    all storage and vectorised querying stays in the monitor's zone
    backends, so a shard can live in its own worker, process or host.
    :meth:`to_payload` / :meth:`from_payload` are the wire form for the
    "own host" case: the monitor config plus sorted packed ``Z^0`` rows
    per class, from which any process can rebuild a bit-identical shard
    with its own local backends (shared-nothing rehydration — see
    :class:`~repro.serving.executor.ShardExecutor`).
    """

    def __init__(self, shard_id: int, monitor: NeuronActivationMonitor):
        self.shard_id = shard_id
        self.monitor = monitor

    @property
    def classes(self) -> List[int]:
        """The class indices this shard serves."""
        return self.monitor.classes

    def check(self, patterns: np.ndarray, predicted_classes: np.ndarray) -> np.ndarray:
        """Vectorised zone membership for rows owned by this shard."""
        return self.monitor.check(patterns, predicted_classes)

    def min_distances(
        self,
        patterns: np.ndarray,
        predicted_classes: np.ndarray,
        cap: Optional[int] = None,
    ) -> np.ndarray:
        """Exact (or ``cap``-bounded) Hamming distances for owned rows."""
        return self.monitor.min_distances(patterns, predicted_classes, cap=cap)

    # ------------------------------------------------------------------
    # portable exchange (process/host boundary)
    # ------------------------------------------------------------------
    def to_payload(
        self, classes: Optional[Iterable[int]] = None
    ) -> Dict[str, object]:
        """Serialise this shard to a plain picklable dict.

        The dict is ``shard_id``, the monitor config
        (:meth:`NeuronActivationMonitor.store_meta` fields) and
        ``zones``: class → ``Z^0`` as deduplicated ``pack_patterns`` rows
        in byte order (:meth:`ZoneBackend.visited_packed`) — the same
        form as save/load, ``merge`` and the zone store.  The receiving
        process rebuilds its own backend of the recorded kind; nothing
        engine-internal (BDD nodes, word arrays, band indices) crosses.

        ``classes`` restricts the payload to some of the monitor's
        classes, which is how :func:`~repro.monitor.drift.partition_payloads`
        slices one monitor along a shard layout without building the
        slices.
        """
        meta = self.monitor.store_meta()
        if classes is not None:
            meta["classes"] = sorted({int(c) for c in classes})
        return {
            "shard_id": int(self.shard_id),
            **meta,
            "zones": self.monitor.packed_zones(meta["classes"]),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "MonitorShard":
        """Rebuild a shard from :meth:`to_payload` output (exact inverse).

        The rebuilt shard owns fresh local backends seeded with the
        payload's rows — verdicts and distances are bit-identical to the
        source shard's by the backend-equivalence guarantee.
        """
        monitor = NeuronActivationMonitor.from_meta(payload)
        monitor.add_packed_zones(payload["zones"])
        return cls(int(payload["shard_id"]), monitor)

    def check_batch(
        self, patterns, predicted_classes, with_distances=False,
        distance_cap=None,
    ):
        """One-kernel-pass combined query: ``(verdicts, distances | None)``.

        When the caller also wants distances (the serving layer's inline
        histogram detector), deriving verdicts from the distance kernel
        halves the backend work: ``min_distances(Q) <= gamma`` is
        protocol-equivalent to ``contains_batch(Q, gamma)``.  This is the
        single callable the :class:`~repro.serving.server.StreamServer`
        ships to its thread pool or worker processes, so a whole
        micro-batch runs off the event loop (numpy releases the GIL
        inside the kernels).

        ``distance_cap=k`` requests the *bounded* distance form
        (``min(true, k+1)`` per row — index-accelerated on the indexed
        bitset backend).  The effective cap is clamped to at least the
        monitor's γ, so verdicts stay exact for any requested cap; the
        serving layer passes the attached detector's overflow bin, which
        keeps the histogram/alarm stream bit-identical too.
        """
        # One local reference for the whole batch: a concurrent zone swap
        # (``ShardRouter.apply_snapshot`` rebinds ``self.monitor``) must
        # never split a batch across epochs — every read below (check,
        # gamma clamp, distance kernel, verdict derivation) sees the same
        # monitor object.
        monitor = self.monitor
        if not with_distances:
            return monitor.check(patterns, predicted_classes), None
        cap = None
        if distance_cap is not None:
            cap = max(int(distance_cap), monitor.gamma)
        distances = monitor.min_distances(
            patterns, predicted_classes, cap=cap
        )
        return distances <= monitor.gamma, distances

    def __repr__(self) -> str:
        return f"MonitorShard(id={self.shard_id}, classes={self.classes})"


def owner_table(classes_by_shard: Iterable[Tuple[int, Iterable[int]]]) -> np.ndarray:
    """Dense class → shard-id lookup (``-1`` = no shard monitors the class).

    Built once per shard layout from ``(shard_id, classes)`` pairs, so
    routing a block is one fancy-index instead of a membership test per
    shard.  Rejects a class owned by two shards and negative class ids.
    """
    pairs = [(int(shard_id), [int(c) for c in classes])
             for shard_id, classes in classes_by_shard]
    top = max((c for _, classes in pairs for c in classes), default=-1)
    owner = np.full(top + 1, -1, dtype=np.int64)
    for shard_id, classes in pairs:
        for c in classes:
            if c < 0:
                raise ValueError(f"class ids must be non-negative, got {c}")
            if owner[c] >= 0:
                raise ValueError(f"class {c} is owned by two shards")
            owner[c] = shard_id
    return owner


def route_rows(owner: np.ndarray, predicted_classes) -> Dict[int, np.ndarray]:
    """Group query rows by owning shard: shard_id → ascending row indices.

    Rows whose class is negative, past the end of ``owner`` or owned by
    no shard appear under no shard (trusted unmonitored, mirroring
    ``NeuronActivationMonitor.check``).
    """
    classes = np.atleast_1d(np.asarray(predicted_classes)).ravel()
    ids = classes.astype(np.int64, copy=False)
    valid = (ids >= 0) & (ids < len(owner))
    if classes.dtype.kind not in "iu":
        valid &= ids == classes  # a fractional class id names no class
    shard_of = np.full(len(ids), -1, dtype=np.int64)
    shard_of[valid] = owner[ids[valid]]
    return {
        int(shard_id): np.flatnonzero(shard_of == shard_id)
        for shard_id in np.unique(shard_of[shard_of >= 0])
    }


class ShardRouter:
    """Partition a classification monitor per-class and route queries.

    The router is the synchronous core of the serving layer: it owns the
    class → shard map and stitches per-shard vectorised answers back into
    request order.  The async :class:`~repro.serving.server.StreamServer`
    adds queueing and micro-batching on top.
    """

    def __init__(self, shards: Sequence[MonitorShard]):
        if not shards:
            raise ValueError("router needs at least one shard")
        self.shards = list(shards)
        self.epoch = 0
        self._shard_by_id: Dict[int, MonitorShard] = {}
        for shard in self.shards:
            if shard.shard_id in self._shard_by_id:
                raise ValueError(f"duplicate shard id {shard.shard_id}")
            self._shard_by_id[shard.shard_id] = shard
        self._index_owners(owner_table((s.shard_id, s.classes) for s in self.shards))

    def _index_owners(self, table: np.ndarray) -> None:
        """Install a dense :func:`owner_table` plus its scalar-lookup form
        (``shard_for``/``owns`` answer one row at a time)."""
        self._table = table
        self._owner: Dict[int, MonitorShard] = {
            c: self._shard_by_id[int(shard_id)]
            for c, shard_id in enumerate(self._table.tolist())
            if shard_id >= 0
        }

    @classmethod
    def partition(
        cls, monitor: NeuronActivationMonitor, num_shards: int
    ) -> "ShardRouter":
        """Split a monitor's classes round-robin into ``num_shards`` slices.

        Each shard is rebuilt from a :meth:`MonitorShard.to_payload`
        slice of the monitor — the one exchange form — so partitioning
        works across backends and :meth:`assemble` is an exact inverse.
        """
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        num_shards = min(num_shards, len(monitor.classes))
        return cls([
            MonitorShard.from_payload(
                MonitorShard(shard_id, monitor).to_payload(
                    monitor.classes[shard_id::num_shards]
                )
            )
            for shard_id in range(num_shards)
        ])

    def assemble(self) -> NeuronActivationMonitor:
        """Merge the shards back into one monitor (inverse of partition)."""
        return NeuronActivationMonitor.merge([s.monitor for s in self.shards])

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_for(self, predicted_class: int) -> MonitorShard:
        """The shard owning a class (``KeyError`` for unmonitored ones)."""
        return self._owner[predicted_class]

    def owns(self, predicted_class: int) -> bool:
        """Whether any shard monitors this class."""
        return predicted_class in self._owner

    def route(self, predicted_classes: np.ndarray) -> Dict[int, np.ndarray]:
        """Group query rows by owning shard: shard_id → row indices.

        Rows predicted as unmonitored classes appear under no shard (they
        are trusted unmonitored, mirroring ``NeuronActivationMonitor.check``).
        """
        return route_rows(self._table, predicted_classes)

    def check(self, patterns: np.ndarray, predicted_classes: np.ndarray) -> np.ndarray:
        """Synchronous routed check: dispatch per shard, stitch results."""
        patterns = np.atleast_2d(patterns)
        predicted_classes = np.asarray(predicted_classes)
        supported = np.ones(len(patterns), dtype=bool)
        for shard_id, rows in self.route(predicted_classes).items():
            shard = self._shard_by_id[shard_id]
            supported[rows] = shard.check(patterns[rows], predicted_classes[rows])
        return supported

    def min_distances(
        self,
        patterns: np.ndarray,
        predicted_classes: np.ndarray,
        cap: Optional[int] = None,
    ) -> np.ndarray:
        """Synchronous routed distances (0 for unmonitored classes)."""
        patterns = np.atleast_2d(patterns)
        predicted_classes = np.asarray(predicted_classes)
        distances = np.zeros(len(patterns), dtype=np.int64)
        for shard_id, rows in self.route(predicted_classes).items():
            shard = self._shard_by_id[shard_id]
            distances[rows] = shard.min_distances(
                patterns[rows], predicted_classes[rows], cap=cap
            )
        return distances

    def set_gamma(self, gamma: int) -> None:
        """Change γ on every shard (zones recompute lazily)."""
        for shard in self.shards:
            shard.monitor.set_gamma(gamma)

    def apply_snapshot(self, snapshot) -> None:
        """Swap every shard to a :class:`~repro.monitor.drift.ZoneSnapshot`.

        The in-process mirror of
        :meth:`~repro.serving.procpool.ProcessShardPool.apply_snapshot`:
        all replacement monitors are rehydrated from the payloads *first*
        (the expensive part — building backends, seeding visited sets),
        then each shard's ``monitor`` reference is rebound in one quick
        loop.  Combined with :meth:`MonitorShard.check_batch` taking a
        single local reference per batch, no batch ever mixes epochs —
        a batch sees either the old zones or the new ones, wholly.

        Raises ``ValueError`` for a non-monotonic epoch or a payload set
        that does not cover this router's shards.
        """
        if snapshot.epoch <= self.epoch:
            raise ValueError(
                f"snapshot epoch {snapshot.epoch} is not newer than the "
                f"router epoch {self.epoch}"
            )
        payload_by_shard = {int(p["shard_id"]): p for p in snapshot.payloads}
        if set(payload_by_shard) != set(self._shard_by_id):
            raise ValueError(
                f"snapshot shards {sorted(payload_by_shard)} do not match "
                f"the router's shards {sorted(self._shard_by_id)}"
            )
        rebuilt = {
            shard_id: MonitorShard.from_payload(payload).monitor
            for shard_id, payload in payload_by_shard.items()
        }
        table = owner_table((sid, m.classes) for sid, m in rebuilt.items())
        for shard in self.shards:
            shard.monitor = rebuilt[shard.shard_id]
        self._index_owners(table)
        self.epoch = int(snapshot.epoch)

    def __len__(self) -> int:
        return len(self.shards)

    def __repr__(self) -> str:
        sizes = [len(s.classes) for s in self.shards]
        return f"ShardRouter(shards={len(self.shards)}, classes_per_shard={sizes})"


def shard_detection_monitor(monitor: DetectionMonitor) -> List[MonitorShard]:
    """One shard per grid cell of a detection monitor.

    Each cell already owns a complete per-class monitor over the shared
    trunk layer, so the cell axis is the natural partition: the returned
    shard ``i`` serves cell ``i``'s proposals and can be queried (or
    hosted) independently of every other cell.
    """
    return [
        MonitorShard(cell, monitor.monitors[cell])
        for cell in range(monitor.num_cells)
    ]
