"""The neuron activation pattern monitor (Definition 3, Algorithm 1).

A monitor is the tuple of per-class comfort zones built from the training
set after the standard training process.  :meth:`NeuronActivationMonitor.build`
implements Algorithm 1 end-to-end: it feeds the training data through the
network once, records the activation pattern of every *correctly predicted*
image in the zone of its ground-truth class, then applies γ Hamming
enlargement steps.

Monitors can be restricted to a subset of classes (the paper's GTSRB
experiment only monitors the stop-sign class) and to a subset of neurons
(gradient-based selection for wide layers).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.monitor.backends import DEFAULT_BACKEND
from repro.monitor.backends.bdd import make_zone_manager
from repro.monitor.patterns import extract_patterns
from repro.monitor.zone import ComfortZone
from repro.nn.data import Dataset, stack_dataset
from repro.nn.layers import Module

PathLike = Union[str, os.PathLike]


class NeuronActivationMonitor:
    """Per-class comfort zones over (a subset of) one ReLU layer's neurons.

    Parameters
    ----------
    layer_width:
        Total number of neurons in the monitored layer.
    classes:
        The class indices to monitor (all classes of the task by default).
    gamma:
        Hamming enlargement radius shared by every zone.
    monitored_neurons:
        Indices of the neurons to monitor (all by default).  Patterns are
        projected onto these indices before zone insertion and queries, so
        unmonitored neurons are don't-cares in the abstraction.
    backend:
        Zone engine registry key: ``"bdd"`` (canonical diagram, the
        paper's engine) or ``"bitset"`` (vectorized XOR/popcount rows).
        Both give identical verdicts; see ``monitor/backends/README.md``.
    indexed:
        Arm the bitset backend's multi-index Hamming pruner, making γ
        queries sub-linear in the stored-pattern count (bitset-only; the
        pruner falls back to the brute kernel when it would not pay).
    """

    def __init__(
        self,
        layer_width: int,
        classes: Iterable[int],
        gamma: int = 0,
        monitored_neurons: Optional[Sequence[int]] = None,
        backend: str = DEFAULT_BACKEND,
        indexed: bool = False,
    ):
        if layer_width <= 0:
            raise ValueError(f"layer_width must be positive, got {layer_width}")
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        self.layer_width = layer_width
        self.classes = sorted(set(int(c) for c in classes))
        if not self.classes:
            raise ValueError("monitor needs at least one class")
        if monitored_neurons is None:
            self.monitored_neurons = np.arange(layer_width)
        else:
            self.monitored_neurons = np.asarray(sorted(set(monitored_neurons)), dtype=np.int64)
            if len(self.monitored_neurons) == 0:
                raise ValueError("monitored_neurons must be non-empty")
            if self.monitored_neurons[0] < 0 or self.monitored_neurons[-1] >= layer_width:
                raise ValueError(
                    f"monitored neuron indices must lie in [0, {layer_width})"
                )
        self.gamma = gamma
        self.backend_name = backend
        self.indexed = bool(indexed)
        # BDD zones share one manager: same variables, shared node table,
        # one GC/reorder policy (env-configurable via make_zone_manager).
        self._manager = (
            make_zone_manager(len(self.monitored_neurons))
            if backend == "bdd" else None
        )
        self.zones: Dict[int, ComfortZone] = {
            c: ComfortZone(
                len(self.monitored_neurons), gamma,
                manager=self._manager, backend=backend, indexed=self.indexed,
            )
            for c in self.classes
        }
        #: Attached :class:`~repro.store.ZoneStore` (``None`` = volatile).
        self._store = None

    # ------------------------------------------------------------------
    # construction (Algorithm 1)
    # ------------------------------------------------------------------
    def project(self, patterns: np.ndarray) -> np.ndarray:
        """Restrict full-layer patterns to the monitored neuron subset."""
        patterns = np.atleast_2d(patterns)
        if patterns.shape[1] != self.layer_width:
            raise ValueError(
                f"patterns have width {patterns.shape[1]}, expected {self.layer_width}"
            )
        return patterns[:, self.monitored_neurons]

    def record(self, patterns: np.ndarray, labels: np.ndarray, predictions: np.ndarray) -> int:
        """Insert patterns of correctly-predicted examples into their zones.

        Implements Algorithm 1 lines 4-8: a pattern is added to ``Z^0_c``
        only when the ground truth is ``c`` *and* the network predicted
        ``c``.  Returns the number of patterns recorded.
        """
        labels = np.asarray(labels)
        predictions = np.asarray(predictions)
        if not (len(patterns) == len(labels) == len(predictions)):
            raise ValueError(
                f"length mismatch: {len(patterns)} patterns, {len(labels)} labels, "
                f"{len(predictions)} predictions"
            )
        projected = self.project(patterns)
        recorded = 0
        for c in self.classes:
            mask = (labels == c) & (predictions == c)
            if not mask.any():
                continue
            self.zones[c].add_patterns(projected[mask])
            recorded += int(mask.sum())
        return recorded

    @classmethod
    def build(
        cls,
        model: Module,
        monitored_module: Module,
        train_dataset: Dataset,
        gamma: int = 0,
        classes: Optional[Iterable[int]] = None,
        monitored_neurons: Optional[Sequence[int]] = None,
        batch_size: int = 256,
        backend: str = DEFAULT_BACKEND,
        indexed: bool = False,
    ) -> "NeuronActivationMonitor":
        """Run Algorithm 1: one sweep over the training set, then enlarge.

        ``classes`` defaults to every label present in the training set.
        """
        inputs, labels = stack_dataset(train_dataset)
        patterns, logits = extract_patterns(model, monitored_module, inputs, batch_size)
        predictions = logits.argmax(axis=1)
        if classes is None:
            classes = np.unique(labels).tolist()
        monitor = cls(
            layer_width=patterns.shape[1],
            classes=classes,
            gamma=gamma,
            monitored_neurons=monitored_neurons,
            backend=backend,
            indexed=indexed,
        )
        monitor.record(patterns, labels, predictions)
        return monitor

    # ------------------------------------------------------------------
    # runtime queries
    # ------------------------------------------------------------------
    def is_known(self, pattern: np.ndarray, predicted_class: int) -> bool:
        """Is this full-layer pattern inside the predicted class's zone?

        Patterns from classes the monitor does not cover raise ``KeyError``
        — callers decide whether uncovered classes mean "always trusted"
        (see :class:`~repro.monitor.runtime.MonitoredClassifier`).
        """
        if predicted_class not in self.zones:
            raise KeyError(f"class {predicted_class} is not monitored")
        projected = self.project(pattern)[0]
        return self.zones[predicted_class].contains(projected)

    def check(self, patterns: np.ndarray, predicted_classes: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`is_known`; unmonitored classes return True.

        Returns a boolean array: ``True`` = pattern supported by training
        (inside the zone), ``False`` = out-of-pattern warning.
        """
        patterns = np.atleast_2d(patterns)
        predicted_classes = np.asarray(predicted_classes)
        projected = self.project(patterns)
        supported = np.ones(len(patterns), dtype=bool)
        for c, zone in self.zones.items():
            mask = predicted_classes == c
            if mask.any():
                supported[mask] = zone.contains_batch(projected[mask])
        return supported

    def min_distances(
        self,
        patterns: np.ndarray,
        predicted_classes: np.ndarray,
        cap: Optional[int] = None,
    ) -> np.ndarray:
        """Exact per-row Hamming distance to the predicted class's ``Z^0``.

        The distance refines :meth:`check`'s binary verdict into "how far
        out-of-distribution": ``distance <= gamma`` iff the row is
        supported.  Rows predicted as an unmonitored class get distance 0
        (the monitor has no opinion, mirroring ``check``'s ``True``); an
        empty zone yields the ``d + 1`` sentinel of the backends.

        ``cap=k`` bounds every answer at ``k + 1`` ("exact distance, or
        > k"), which lets the indexed bitset backend serve the query from
        its pigeonhole shortlist instead of scanning all stored rows.
        """
        patterns = np.atleast_2d(patterns)
        predicted_classes = np.asarray(predicted_classes)
        projected = self.project(patterns)
        distances = np.zeros(len(patterns), dtype=np.int64)
        for c, zone in self.zones.items():
            mask = predicted_classes == c
            if mask.any():
                distances[mask] = zone.min_distances(projected[mask], cap=cap)
        return distances

    def monitors_class(self, class_index: int) -> bool:
        """Whether the monitor has a zone for this class."""
        return class_index in self.zones

    def set_gamma(self, gamma: int) -> None:
        """Change γ on every zone (lazily recomputed on next query)."""
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        changed = gamma != self.gamma
        self.gamma = gamma
        for zone in self.zones.values():
            zone.set_gamma(gamma)
        if changed and self._store is not None:
            self._store.append_gamma(gamma)

    def statistics(self) -> Dict[int, Dict[str, float]]:
        """Per-class zone statistics."""
        return {c: zone.statistics() for c, zone in self.zones.items()}

    def engine_stats(self) -> Optional[Dict[str, float]]:
        """Shared BDD engine counters (``None`` for non-BDD monitors).

        One dict for the whole monitor — all zones share one manager —
        with live/physical node counts, unique-table size, GC and
        reorder activity and the operation-cache hit rates (see
        :meth:`repro.bdd.manager.BDDManager.cache_stats`).  The CLI's
        ``evaluate``/``sweep``/``serve`` commands print this line.
        """
        if self._manager is None:
            return None
        return self._manager.cache_stats()

    def reorder(self, method: str = "sift", **kwargs) -> Optional[Dict[str, int]]:
        """Sift the shared BDD manager (no-op ``None`` for non-BDD)."""
        if self._manager is None:
            return None
        return self._manager.reorder(method=method, **kwargs)

    def __repr__(self) -> str:
        return (
            f"NeuronActivationMonitor(classes={self.classes}, gamma={self.gamma}, "
            f"monitored={len(self.monitored_neurons)}/{self.layer_width}, "
            f"backend={self.backend_name!r})"
        )

    @classmethod
    def merge(
        cls,
        monitors: Sequence["NeuronActivationMonitor"],
        gamma: Optional[int] = None,
        indexed: Optional[bool] = None,
    ) -> "NeuronActivationMonitor":
        """Union several monitors built over the same monitored neurons.

        Useful when training data is processed in shards (e.g. a fleet of
        vehicles each contributes patterns): the merged monitor's zones are
        the set union of the inputs' visited sets, with the zone backend
        taken from the first monitor.  All inputs must agree on
        ``layer_width`` and ``monitored_neurons``; backends may differ
        (the visited sets are exchanged as sorted packed rows, see
        :meth:`packed_zones`).

        ``gamma`` and ``indexed`` must either agree across the inputs or
        be chosen explicitly via the keyword overrides — silently adopting
        the first monitor's values would let a drift-loop absorption of a
        staging zone quietly change the radius (or drop the index) of the
        published monitor.
        """
        if not monitors:
            raise ValueError("merge needs at least one monitor")
        first = monitors[0]
        for other in monitors[1:]:
            if other.layer_width != first.layer_width:
                raise ValueError(
                    f"layer width mismatch: {other.layer_width} vs {first.layer_width}"
                )
            if not np.array_equal(other.monitored_neurons, first.monitored_neurons):
                raise ValueError("monitored neuron sets differ; cannot merge")
        if gamma is None:
            gammas = sorted({m.gamma for m in monitors})
            if len(gammas) > 1:
                raise ValueError(
                    f"gamma differs across monitors ({gammas}); "
                    f"pass gamma= to choose the merged radius explicitly"
                )
            gamma = first.gamma
        if indexed is None:
            flags = {m.indexed for m in monitors}
            if len(flags) > 1:
                raise ValueError(
                    "indexed differs across monitors; "
                    "pass indexed= to choose explicitly"
                )
            indexed = first.indexed
        merged = cls.from_meta({
            **first.store_meta(),
            "classes": sorted({c for m in monitors for c in m.classes}),
            "gamma": gamma,
            "indexed": indexed,
        })
        for monitor in monitors:
            merged.add_packed_zones(monitor.packed_zones())
        return merged

    # ------------------------------------------------------------------
    # the exchange form: config (store_meta) + sorted packed rows
    # ------------------------------------------------------------------
    def store_meta(self) -> Dict[str, object]:
        """The monitor config — the one writer of it.

        A store's META record, the ``.npz`` ``meta`` entry (which keeps
        ``monitored_neurons`` as its own array) and the shard payloads
        all carry exactly these fields; :meth:`from_meta` reads them
        back.
        """
        return {
            "layer_width": self.layer_width,
            "gamma": self.gamma,
            "classes": self.classes,
            "pattern_width": int(len(self.monitored_neurons)),
            "backend": self.backend_name,
            "indexed": self.indexed,
            "monitored_neurons": [int(i) for i in self.monitored_neurons],
        }

    @classmethod
    def from_meta(
        cls, meta: Mapping[str, object], backend: Optional[str] = None
    ) -> "NeuronActivationMonitor":
        """An empty monitor from a :meth:`store_meta` config — the one
        reader of it.

        ``backend`` overrides the recorded engine (the zones travel as
        plain packed rows, so any engine can ingest any other's).
        Indexing is bitset-only and is dropped when the engine cannot
        honour it.  ``pattern_width`` is derived, not read.
        """
        backend = backend or meta.get("backend", DEFAULT_BACKEND)
        return cls(
            layer_width=int(meta["layer_width"]),
            classes=[int(c) for c in meta["classes"]],
            gamma=int(meta["gamma"]),
            monitored_neurons=meta.get("monitored_neurons"),
            backend=backend,
            indexed=bool(meta.get("indexed", False)) and backend == "bitset",
        )

    def subset(self, classes: Iterable[int]) -> "NeuronActivationMonitor":
        """An empty sibling over ``classes``: same layer, projection, γ,
        backend and index flag."""
        return self.from_meta({**self.store_meta(), "classes": list(classes)})

    def packed_zones(
        self, classes: Optional[Iterable[int]] = None
    ) -> Dict[int, np.ndarray]:
        """Class → ``Z^0`` as sorted, deduplicated packed rows
        (:meth:`ZoneBackend.visited_packed`), for all or some classes."""
        classes = self.classes if classes is None else classes
        return {int(c): self.zones[c].backend.visited_packed() for c in classes}

    def add_packed_zones(self, zones: Mapping[int, np.ndarray]) -> None:
        """Union :meth:`packed_zones` output into this monitor's zones.

        The rows take the verified sorted fast path of
        :meth:`ComfortZone.add_packed`; rows that are not in fact sorted
        and unique are caught by that check and ingested the general
        way.
        """
        for c, rows in zones.items():
            self.zones[int(c)].add_packed(rows, assume_sorted_unique=True)

    # ------------------------------------------------------------------
    # durable store (crash-consistent WAL + segments)
    # ------------------------------------------------------------------
    def attach_store(self, store) -> None:
        """Write-through this monitor to a :class:`~repro.store.ZoneStore`.

        A fresh store is initialized with this monitor's config and the
        current visited sets; an existing store must agree on the layer
        / projection / class layout (γ may differ — it is a logged,
        replayable quantity, not identity).  From here on every fresh
        pattern insert and every γ change is appended to the store's
        WAL, so a crash at any point recovers to the last append.
        """
        from repro.store import StoreError

        meta = self.store_meta()
        if not store.initialized:
            store.initialize(meta)
            for c, rows in self.packed_zones().items():
                if len(rows):
                    store.append_insert(c, rows)
        else:
            existing = store.meta
            for key in ("layer_width", "pattern_width"):
                if int(existing[key]) != int(meta[key]):
                    raise StoreError(
                        f"store {key}={existing[key]} does not match "
                        f"monitor {key}={meta[key]}"
                    )
            if [int(c) for c in existing["classes"]] != meta["classes"]:
                raise StoreError(
                    f"store classes {existing['classes']} do not match "
                    f"monitor classes {meta['classes']}"
                )
            if "monitored_neurons" in existing and list(
                existing["monitored_neurons"]
            ) != meta["monitored_neurons"]:
                raise StoreError("store monitored neuron set differs from monitor")
        self._store = store
        for c, zone in self.zones.items():
            zone.attach_sink(
                lambda rows, _c=c: store.append_insert(_c, rows)
            )

    def detach_store(self) -> None:
        """Stop write-through (the store keeps everything logged so far)."""
        self._store = None
        for zone in self.zones.values():
            zone.attach_sink(None)

    @property
    def store(self):
        return self._store

    @classmethod
    def from_store(
        cls,
        store,
        backend: Optional[str] = None,
        attach: bool = True,
    ) -> "NeuronActivationMonitor":
        """Cold-start a monitor from a store directory or open store.

        Recovery replays the newest valid segment plus the WAL tail into
        fresh zones as packed rows.  Segment bodies are deduplicated and
        byte-sorted by compaction — the exchange form — so they take the
        sorted fast path; the WAL tail is raw append order and takes the
        general one.  ``backend`` overrides the recorded engine, exactly
        like :meth:`load`.  With ``attach=True`` the rebuilt monitor
        immediately writes through to the same store.
        """
        from repro.store import ZoneStore

        if isinstance(store, (str, os.PathLike)):
            store = ZoneStore.open(store)
        state = store.state()
        monitor = cls.from_meta({**state.meta, "gamma": state.gamma}, backend)
        # Rows logged under a class the config does not name are ignored.
        monitor.add_packed_zones(
            {c: rows for c, rows in state.segment_rows.items() if c in monitor.zones}
        )
        for c, tail in state.tail_rows.items():
            if c in monitor.zones:
                monitor.zones[c].add_packed(tail)
        if attach:
            monitor.attach_store(store)
        return monitor

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> None:
        """Serialise to ``.npz``: the config plus each class's sorted
        packed ``Z^0`` rows.

        Storing ``Z^0`` rather than ``Z^γ`` keeps files small and lets γ
        (and even the backend) be changed after reload.  Keys: ``meta``
        (the :meth:`store_meta` JSON minus ``monitored_neurons``, which
        is its own array), ``class_<c>`` rows and ``count_<c>`` (their
        row count, kept for older readers).
        """
        meta = self.store_meta()
        arrays = {"monitored_neurons": np.asarray(meta.pop("monitored_neurons"))}
        for c, rows in self.packed_zones().items():
            arrays[f"class_{c}"] = rows
            arrays[f"count_{c}"] = np.array([len(rows)])
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path: PathLike, backend: Optional[str] = None) -> "NeuronActivationMonitor":
        """Restore a monitor saved by :meth:`save`.

        ``backend`` overrides the zone engine recorded in the file — the
        on-disk format is a plain pattern set, so a monitor saved from the
        BDD engine can be served by the bitset engine and vice versa.
        """
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta"]).decode())
            meta["monitored_neurons"] = archive["monitored_neurons"]
            monitor = cls.from_meta(meta, backend)
            monitor.add_packed_zones(
                {c: archive[f"class_{c}"] for c in monitor.classes}
            )
        return monitor
