"""Concurrency tests of the shard-executor core, on both fleets.

Submitting threads, per-worker reply pumps and the death handler share
the in-flight maps, the ring free queues and the stats counters of
:class:`~repro.serving.executor.ShardExecutor`.  The stress test drives
more submitting threads (and workers) than cores through both fleets
with a shortened interpreter switch interval, and asserts what a lost
or doubled update would break: every block answered exactly once with
the monolith's verdicts, and the per-worker stats counting every row
once.  The γ test holds a respawned worker inside its join handshake
while γ changes, and asserts the change still reaches it.
"""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.monitor import NeuronActivationMonitor
from repro.serving import ClusterCoordinator, ProcessShardPool, ShardRouter

WIDTH = 16
CLASSES = list(range(6))


def _build_monitor():
    rng = np.random.default_rng(0)
    patterns = (rng.random((200, WIDTH)) < 0.4).astype(np.uint8)
    labels = rng.integers(0, len(CLASSES), len(patterns))
    monitor = NeuronActivationMonitor(WIDTH, CLASSES, gamma=1, backend="bitset")
    monitor.record(patterns, labels, labels)
    return monitor


@pytest.mark.parametrize("fleet", ["process", "cluster"])
def test_contended_submitters_lose_and_duplicate_nothing(fleet):
    monitor = _build_monitor()
    router = ShardRouter.partition(monitor, 3)
    rng = np.random.default_rng(3)
    patterns = (rng.random((600, WIDTH)) < 0.4).astype(np.uint8)
    classes = rng.integers(0, len(CLASSES), 600)
    expected = monitor.check(patterns, classes)
    blocks = [
        (shard_id, rows[start : start + 12])
        for shard_id, rows in router.route(classes).items()
        for start in range(0, len(rows), 12)
    ]
    if fleet == "process":
        executor = ProcessShardPool(router.shards, num_workers=3)
    else:
        executor = ClusterCoordinator(router.shards, workers=3, ready_timeout=60)
    answers, errors = [], []

    def submitter(part):
        try:
            futures = [
                (rows, executor.submit(shard_id, patterns[rows], classes[rows]))
                for shard_id, rows in part
            ]
            for rows, future in futures:
                answers.append((rows, future.result(timeout=60)[0]))
        except Exception as exc:  # noqa: BLE001 — asserted below
            errors.append(exc)

    switch = sys.getswitchinterval()
    with executor:
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=submitter, args=(blocks[i::6],))
                for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        stats = executor.stats()
    assert not errors, errors[0]
    assert len(answers) == len(blocks)
    for rows, verdicts in answers:
        np.testing.assert_array_equal(verdicts, expected[rows])
    assert sum(row["requests"] for row in stats) == sum(len(r) for _, r in blocks)
    assert sum(row["batches"] for row in stats) == len(blocks)


@pytest.mark.parametrize("fleet", ["process", "cluster"])
def test_gamma_change_during_a_respawn_handshake_reaches_the_joiner(
    fleet, monkeypatch
):
    """A worker that read the old γ in its join handshake and is
    installed after ``set_gamma`` went out must still serve at the new
    γ: the executor stamps each worker's γ and re-syncs a lagging one."""
    monitor = _build_monitor()
    router = ShardRouter.partition(monitor, 2)
    rng = np.random.default_rng(5)
    patterns = (rng.random((400, WIDTH)) < 0.4).astype(np.uint8)
    classes = rng.integers(0, len(CLASSES), 400)
    new_gamma = 3
    expected = NeuronActivationMonitor.merge([monitor], gamma=new_gamma).check(
        patterns, classes
    )
    # The γ change must flip verdicts in every shard, or a stale worker
    # could pass unnoticed.
    stale = monitor.check(patterns, classes)
    for shard in router.shards:
        owned = np.isin(classes, shard.classes)
        assert (expected[owned] != stale[owned]).any()
    # One holder per shard, so the respawned worker alone serves its shard.
    if fleet == "process":
        executor = ProcessShardPool(router.shards, num_workers=2, dispatch="owner")
    else:
        executor = ClusterCoordinator(
            router.shards, workers=2, replicas=1, ready_timeout=60
        )
    in_handshake, release = threading.Event(), threading.Event()
    with executor:
        install = executor._install

        def slow_install(worker):
            in_handshake.set()
            release.wait(30)
            return install(worker)

        monkeypatch.setattr(executor, "_install", slow_install)
        os.kill(executor.worker_pids()[0], signal.SIGKILL)
        assert in_handshake.wait(30), "no respawn reached its handshake"
        setter = threading.Thread(target=executor.set_gamma, args=(new_gamma,))
        setter.start()
        time.sleep(0.3)  # the broadcast reaches the survivor first
        release.set()
        setter.join(60)
        assert not setter.is_alive()
        np.testing.assert_array_equal(executor.check(patterns, classes), expected)
