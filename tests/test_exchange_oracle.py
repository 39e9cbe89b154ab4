"""One oracle over every hop that moves zones between monitors.

Partition, merge, shard payloads, drift snapshots, save/load and the
zone store all move a monitor as its config plus, per class, ``Z^0`` as
sorted deduplicated packed rows.  Each hop here takes a source monitor
(with an empty class and a monitored-neuron subset whose width is not a
whole number of bytes) to a rebuilt one, on every backend, and the
rebuilt monitor must hold the same sorted packed rows and give the same
verdicts and distances on random queries.
"""

import pickle

import numpy as np
import pytest

from repro.monitor import NeuronActivationMonitor
from repro.monitor.drift import ZoneSnapshot, partition_payloads
from repro.monitor.zone import ComfortZone
from repro.serving.shard import MonitorShard, ShardRouter
from repro.store import ZoneStore

LAYER = 24
MONITORED = [0, 2, 3, 5, 7, 8, 11, 13, 16, 17, 19, 22, 23]  # 13 bits
CLASSES = [0, 1, 2, 3, 4]
EMPTY_CLASS = 4
BACKENDS = {
    "bitset": dict(backend="bitset"),
    "bitset+indexed": dict(backend="bitset", indexed=True),
    "bdd": dict(backend="bdd"),
}


def _source(backend="bitset", indexed=False):
    rng = np.random.default_rng(11)
    patterns = (rng.random((300, LAYER)) < 0.4).astype(np.uint8)
    labels = rng.integers(0, EMPTY_CLASS, len(patterns))
    monitor = NeuronActivationMonitor(
        LAYER, CLASSES, gamma=2, monitored_neurons=MONITORED,
        backend=backend, indexed=indexed,
    )
    # Two inserts, so the bitset engine holds rows out of sorted order.
    monitor.record(patterns[150:], labels[150:], labels[150:])
    monitor.record(patterns[:150], labels[:150], labels[:150])
    assert monitor.zones[EMPTY_CLASS].is_empty()
    return monitor


def _queries(n=250):
    rng = np.random.default_rng(12)
    patterns = (rng.random((n, LAYER)) < 0.4).astype(np.uint8)
    return patterns, rng.integers(0, len(CLASSES) + 2, n)


def _layout(monitor):
    return [(0, monitor.classes[0::2]), (1, monitor.classes[1::2])]


# ----------------------------------------------------------------------
# the hops: source monitor (+ scratch dir) -> rebuilt monitor
# ----------------------------------------------------------------------
def _partition_assemble(monitor, tmp_path):
    return ShardRouter.partition(monitor, 2).assemble()


def _payload_round_trip(monitor, tmp_path):
    payload = pickle.loads(pickle.dumps(MonitorShard(0, monitor).to_payload()))
    return MonitorShard.from_payload(payload).monitor


def _save_load(monitor, tmp_path):
    path = tmp_path / "monitor.npz"
    monitor.save(path)
    return NeuronActivationMonitor.load(path)


def _store_tail(monitor, tmp_path):
    store = ZoneStore.open(tmp_path / "store")
    monitor.attach_store(store)
    monitor.detach_store()
    store.close()
    return NeuronActivationMonitor.from_store(tmp_path / "store", attach=False)


def _store_segment(monitor, tmp_path):
    store = ZoneStore.open(tmp_path / "store")
    monitor.attach_store(store)
    monitor.detach_store()
    store.compact()
    store.close()
    return NeuronActivationMonitor.from_store(tmp_path / "store", attach=False)


def _merge_overlapping(monitor, tmp_path):
    # Two halves that share class 2, whose rows are split between them.
    zones = monitor.packed_zones()
    left, right = monitor.subset([0, 1, 2]), monitor.subset([2, 3, 4])
    left.add_packed_zones({0: zones[0], 1: zones[1], 2: zones[2][0::2]})
    right.add_packed_zones({2: zones[2][1::2], 3: zones[3], 4: zones[4]})
    return NeuronActivationMonitor.merge([left, right])


def _snapshot_apply(monitor, tmp_path):
    router = ShardRouter.partition(monitor.subset(monitor.classes), 2)
    snapshot = ZoneSnapshot(
        epoch=1, gamma=monitor.gamma,
        payloads=tuple(partition_payloads(monitor, _layout(monitor))),
    )
    router.apply_snapshot(snapshot)
    return router.assemble()


HOPS = {
    "partition->assemble": _partition_assemble,
    "to_payload->from_payload": _payload_round_trip,
    "save->load": _save_load,
    "attach_store->from_store (wal tail)": _store_tail,
    "attach_store->from_store (segment)": _store_segment,
    "merge": _merge_overlapping,
    "partition_payloads->apply_snapshot": _snapshot_apply,
}


def _assert_same(got, want, same_engine=True):
    assert got.classes == want.classes
    assert got.gamma == want.gamma
    assert got.layer_width == want.layer_width
    np.testing.assert_array_equal(got.monitored_neurons, want.monitored_neurons)
    if same_engine:
        assert (got.backend_name, got.indexed) == (want.backend_name, want.indexed)
    got_zones, want_zones = got.packed_zones(), want.packed_zones()
    for c in want.classes:
        rows = want_zones[c]
        np.testing.assert_array_equal(np.unique(rows, axis=0), rows)
        np.testing.assert_array_equal(got_zones[c], rows)
    assert len(want_zones[EMPTY_CLASS]) == 0
    patterns, classes = _queries()
    np.testing.assert_array_equal(
        got.check(patterns, classes), want.check(patterns, classes)
    )
    np.testing.assert_array_equal(
        got.min_distances(patterns, classes), want.min_distances(patterns, classes)
    )
    np.testing.assert_array_equal(
        got.min_distances(patterns, classes, cap=1),
        want.min_distances(patterns, classes, cap=1),
    )


@pytest.mark.parametrize("hop", sorted(HOPS))
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_hop_preserves_zones_verdicts_and_distances(backend, hop, tmp_path):
    source = _source(**BACKENDS[backend])
    _assert_same(HOPS[hop](source, tmp_path), source)


def test_bdd_zones_cross_into_bitset(tmp_path):
    source = _source("bdd")
    path = tmp_path / "monitor.npz"
    source.save(path)
    _assert_same(
        NeuronActivationMonitor.load(path, backend="bitset"), source,
        same_engine=False,
    )
    target = NeuronActivationMonitor(
        LAYER, CLASSES, gamma=2, monitored_neurons=MONITORED, backend="bitset"
    )
    merged = NeuronActivationMonitor.merge([target, source])
    assert merged.backend_name == "bitset"
    _assert_same(merged, source, same_engine=False)


def test_legacy_npz_layout_with_unsorted_rows_loads(tmp_path):
    """Files whose ``class_<c>`` rows are in insertion order (not the
    sorted exchange order) with a ``count_<c>`` entry still load to the
    same zones: the sorted fast path's check catches the order."""
    import json

    source = _source("bitset")
    arrays = {"monitored_neurons": np.asarray(MONITORED)}
    for c in CLASSES:
        rows = source.packed_zones()[c][::-1]
        arrays[f"class_{c}"] = rows
        arrays[f"count_{c}"] = np.array([len(rows)])
    meta = {
        "layer_width": LAYER, "gamma": 2, "classes": CLASSES,
        "pattern_width": len(MONITORED), "backend": "bitset", "indexed": False,
    }
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(tmp_path / "legacy.npz", **arrays)
    _assert_same(NeuronActivationMonitor.load(tmp_path / "legacy.npz"), source)


# ----------------------------------------------------------------------
# the sorted fast path's verification
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mangle", ["reversed", "duplicated", "swapped pair"])
def test_false_sorted_claim_is_caught_and_ingested_correctly(mangle):
    width = 13
    rng = np.random.default_rng(3)
    patterns = (rng.random((120, width)) < 0.5).astype(np.uint8)
    rows = np.unique(np.packbits(patterns, axis=1), axis=0)
    if mangle == "reversed":
        claimed = rows[::-1]
    elif mangle == "duplicated":
        claimed = np.repeat(rows, 2, axis=0)
    else:
        claimed = rows.copy()
        claimed[[10, 11]] = claimed[[11, 10]]
    zone = ComfortZone(width, gamma=1, backend="bitset")
    zone.add_packed(claimed, assume_sorted_unique=True)
    reference = ComfortZone(width, gamma=1, backend="bitset")
    reference.add_patterns(patterns)
    np.testing.assert_array_equal(zone.backend.visited_packed(), rows)
    assert zone.num_visited_patterns == len(rows)
    # Exact membership runs on the sorted structure: every stored row
    # must be found again, and a later insert must merge in order.
    assert zone.backend.contains_batch(patterns, 0).all()
    extra = (rng.random((40, width)) < 0.5).astype(np.uint8)
    zone.add_patterns(extra)
    reference.add_patterns(extra)
    np.testing.assert_array_equal(
        zone.backend.visited_packed(), reference.backend.visited_packed()
    )
    queries = (rng.random((200, width)) < 0.5).astype(np.uint8)
    np.testing.assert_array_equal(
        zone.contains_batch(queries), reference.contains_batch(queries)
    )
    np.testing.assert_array_equal(
        zone.min_distances(queries), reference.min_distances(queries)
    )
