"""One threaded shard-executor core under the process pool and the TCP cluster.

:class:`~repro.serving.procpool.ProcessShardPool` (worker processes over
``multiprocessing`` pipes) and :class:`~repro.serving.cluster.ClusterCoordinator`
(workers dialling in over TCP) are the same executor on two transports.
Everything they share lives here, once:

* **Worker links.**  Every worker is a pipe-shaped link with ``send`` /
  ``recv`` / ``close``: a ``multiprocessing`` pipe end or a blocking
  :class:`~repro.serving.netproto.FrameConnection`.  Each link has one
  reply pump thread; sends are serialised by a per-link lock and never
  happen under the executor lock.
* **Wire messages.**  Blocks travel as ``("req", req_id, shard_id, mode,
  payload, rows, width, classes, cap)`` and come back as ``("ok"|"err",
  req_id, result)``; the control plane is ``init`` → ``ready`` (warm-up
  handshake), ``gamma`` → ``gamma_ok``, ``zone`` → ``zone_ok`` (zone
  resync or shard re-placement), ``ping`` → ``pong`` and ``stop`` →
  ``bye``.  Shards cross as ``MonitorShard.to_payload()`` dicts and rows
  as ``pack_patterns`` matrices, so nothing engine-internal is shipped.
  :func:`serve_link` is the one worker loop that answers them.
* **Placement and dispatch.**  Each worker holds a set of shards.  A
  block goes to the live holder of its shard with the fewest
  outstanding blocks; ties rotate, so a fleet that drains faster than
  it fills is not starved at its tail.  With no live holder the caller
  waits (on a condition, bounded by ``ready_timeout``) for one to join,
  and fails fast with :class:`WorkerCrashError` once every holder's
  slot is retired.
* **Failure model.**  A dead link is drained: its unanswered blocks are
  reclaimed, the subclass's replacement policy runs (respawn, reconnect
  window, or retirement with the shards re-placed), and only then is the
  death counted and the blocks requeued through dispatch.  Callers see
  a latency blip, never a lost or duplicated answer.
* **Fleet-atomic zone swap.**  ``apply_snapshot`` holds new blocks,
  drains every in-flight one, installs the new payloads/γ/epoch, re-syncs
  every worker whose epoch lags (and any worker that joined mid-swap),
  then replays the held blocks — no block is answered by a mixed-epoch
  fleet.  The same resync rehydrates a worker whose placement grew (the
  cluster's re-place) and carries ``set_gamma``: every worker is stamped
  with the γ it holds, so one that joined with the old γ lags and is
  caught like an epoch lag.

Subclasses supply the transport: how workers join (spawned processes or
registrations on a listen socket), how a block is framed (the pool's
shared-memory rings), the replacement policy after a death, and their
own ``start``/``stop``.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.devtools.lint.runtime import named_lock
from repro.monitor.monitor import NeuronActivationMonitor
from repro.monitor.patterns import pack_patterns, unpack_patterns
from repro.serving import shmring
from repro.serving.netproto import ProtocolError
from repro.serving.server import ShardServingStats
from repro.serving.shard import MonitorShard, ShardRouter, owner_table, route_rows


class WorkerCrashError(RuntimeError):
    """A shard worker died more times than the respawn budget allows."""


#: What a dropped link raises: pipe EOF, socket errors, torn frames.
LINK_ERRORS = (EOFError, OSError, ProtocolError)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _rehydrate(payloads, gamma) -> Dict[int, MonitorShard]:
    """A fresh local shard map from ``to_payload()`` dicts, at γ if given."""
    shards = {}
    for payload in payloads:
        shard = MonitorShard.from_payload(payload)
        shards[shard.shard_id] = shard
    if gamma is not None:
        for shard in shards.values():
            shard.monitor.set_gamma(gamma)
    return shards


def _answer_block(shards: Dict[int, MonitorShard], msg, rings=None) -> tuple:
    """Run one ``("req", ...)`` block against the local shard map.

    Returns the reply tuple.  A ``("shm", slot)`` payload is gathered
    from the request ring and answered into the response ring at the
    same slot.  Rows are unpacked at the *sender's* width, so a
    wrong-width block fails the monitor's own validation.  Modes are
    ``"check"`` (verdicts), ``"both"`` (verdicts + exact distances from
    one kernel) and ``"dist"`` (``cap``-bounded distances).  A bad block
    fails itself, never the worker.
    """
    _, req_id, shard_id, mode, packed, rows, width, classes, cap = msg
    try:
        slot = -1
        if type(packed) is tuple:
            slot = packed[1]
            packed, classes = shmring.read_request(rings, slot, rows, width)
        shard = shards[shard_id]
        patterns = unpack_patterns(packed, width)[:rows]
        if mode == "check":
            result = (shard.check(patterns, classes), None)
        elif mode == "both":
            result = shard.check_batch(
                patterns, classes, with_distances=True, distance_cap=cap
            )
        elif mode == "dist":
            result = (None, shard.min_distances(patterns, classes, cap=cap))
        else:
            raise ValueError(f"unknown request mode {mode!r}")
        if slot < 0:
            return ("ok", req_id, result)
        verdicts, distances = result
        shmring.frame_response(rings, slot, verdicts, distances)
        return ("ok", req_id, ("shm", slot, verdicts is not None,
                               distances is not None))
    except Exception as exc:  # noqa: BLE001 — shipped to the caller
        return ("err", req_id, exc)


def serve_link(conn, hello=None) -> bool:
    """The worker serve loop, for either transport; closes ``conn``.

    Sends ``hello`` first when given (the cluster's registration), then
    answers messages until the ``("stop",)`` sentinel — replying
    ``("bye",)`` so the coordinator can tell a drain from a crash — or
    until the link drops.  ``init`` and ``zone`` both replace the whole
    shard map and apply the coordinator's *current* γ between two
    blocks, so every block sees exactly one zone version; ``init`` may
    also carry a ring spec to attach to the parent's shared-memory
    rings (segment lifetime stays the parent's job).  Returns ``True``
    on a graceful stop and ``False`` on a dropped link.
    """
    shards: Dict[int, MonitorShard] = {}
    rings = None
    try:
        if hello is not None:
            conn.send(hello)
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "req":
                reply = _answer_block(shards, msg, rings)
                try:
                    conn.send(reply)
                except (EOFError, OSError):
                    raise
                except Exception:  # unpicklable or oversized reply: degrade
                    conn.send(("err", msg[1], RuntimeError(repr(reply[2]))))
            elif kind == "init":
                shards = _rehydrate(msg[1], msg[2])
                if msg[3] is not None:
                    rings = shmring.AttachedRings(msg[3])
                conn.send(("ready", len(shards)))
            elif kind == "zone":
                shards = _rehydrate(msg[1], msg[2])
                conn.send(("zone_ok", msg[3]))
            elif kind == "gamma":
                for shard in shards.values():
                    shard.monitor.set_gamma(msg[1])
                conn.send(("gamma_ok", msg[2]))
            elif kind == "ping":
                conn.send(("pong", msg[1]))
            elif kind == "stop":
                conn.send(("bye",))
                return True
    except LINK_ERRORS:
        return False
    finally:
        if rings is not None:
            rings.close()
        conn.close()


# ----------------------------------------------------------------------
# coordinator-side bookkeeping
# ----------------------------------------------------------------------
class _Pending:
    """One in-flight block: the request (kept verbatim for requeue after
    a worker death) plus the caller's future.  ``slot`` is the ring slot
    the block occupies on the pool's shm transport (``-1`` = none);
    exactly one owner ever releases it — the pump on reply, or whoever
    pops the entry from the in-flight map on the death/requeue paths."""

    __slots__ = (
        "req_id", "shard_id", "mode", "packed", "rows", "width",
        "classes", "cap", "slot", "future", "enqueued_at",
    )

    def __init__(self, req_id, shard_id, mode, patterns, classes, cap):
        patterns = np.atleast_2d(np.asarray(patterns, dtype=np.uint8))
        self.req_id = req_id
        self.shard_id = shard_id
        self.mode = mode
        self.packed = pack_patterns(patterns)
        self.rows, self.width = patterns.shape
        self.classes = np.atleast_1d(np.asarray(classes))
        self.cap = cap
        self.slot = -1
        self.future: Future = Future()
        self.enqueued_at = time.perf_counter()

    def wire(self, ring_slot=None):
        """The ``("req", ...)`` message.  A ring slot descriptor replaces
        the packed rows and class ids; ``width`` still travels, so the
        worker reshapes and validates the rows at the sender's width."""
        rows, classes = self.packed, self.classes
        if ring_slot is not None:
            rows, classes = ring_slot, None
        return ("req", self.req_id, self.shard_id, self.mode,
                rows, self.rows, self.width, classes, self.cap)


class _WorkerHandle:
    """Coordinator-side view of one worker link.

    ``key`` names the worker's slot (a pool index or a cluster worker
    name) and survives the link; the rest belongs to this link: the
    in-flight block map the death handler drains, the ack events of
    pending γ/zone handshakes, the held shard set, the zone epoch and γ
    the worker was last synced to, and ``last_seen`` (refreshed by every
    inbound frame; the cluster's heartbeat reads it).
    """

    __slots__ = (
        "key", "conn", "pid", "process", "send_lock", "pump",
        "shard_ids", "inflight", "acks", "epoch", "gamma", "dead",
        "stopped", "last_seen",
    )

    def __init__(self, key, conn, pid, process=None):
        self.key = key
        self.conn = conn
        self.pid = pid
        self.process = process
        self.send_lock = named_lock("_WorkerHandle.send_lock")
        self.pump: Optional[threading.Thread] = None
        self.shard_ids: Set[int] = set()
        self.inflight: Dict[int, _Pending] = {}
        self.acks: Dict[int, threading.Event] = {}
        self.epoch = 0
        self.gamma: Optional[int] = None
        self.dead = False
        self.stopped = False
        self.last_seen = time.monotonic()

    @property
    def live(self) -> bool:
        return not self.dead and not self.stopped


class ShardExecutor:
    """The shared core: dispatch, reply pumps, death handling, zone swap.

    Subclasses fill ``self._placement`` (worker key → shard ids) and
    implement ``start``/``stop`` and :meth:`_replace`.  ``self._lock``
    is the one executor lock, shared with the subclass.
    """

    #: Subject of user-facing errors ("pool is not running").
    _noun = "executor"
    #: Constructor argument ``from_store`` reads the default shard count from.
    _size_arg = "workers"
    #: ``stats()`` transport tag.
    _transport = "pipe"

    def __init__(self, shards: Sequence[MonitorShard], max_respawns: int,
                 ready_timeout: float):
        shards = list(shards)
        if not shards:
            raise ValueError(f"{self._noun} needs at least one shard")
        self._lock = named_lock("ShardExecutor._lock")
        self.max_respawns = max_respawns
        self.ready_timeout = ready_timeout
        self._payload_of: Dict[int, dict] = {}
        for shard in shards:
            if shard.shard_id in self._payload_of:
                raise ValueError(f"duplicate shard id {shard.shard_id}")
            self._payload_of[shard.shard_id] = shard.to_payload()
        self._owner = owner_table(
            (sid, payload["classes"]) for sid, payload in self._payload_of.items()
        )
        # Signalled whenever the fleet changes: a worker joins, dies or is
        # resynced, a swap's drain empties a queue, or the executor stops.
        self._changed = threading.Condition(self._lock)
        # Serialises zone resyncs, so two never interleave frames on a link.
        self._sync_lock = named_lock("ShardExecutor._sync_lock")
        self._req_ids = itertools.count()
        self._ack_ids = itertools.count()
        self._workers: Dict[object, _WorkerHandle] = {}
        self._joining: Set[_WorkerHandle] = set()
        self._placement: Dict[object, Set[int]] = {}
        self._retired: Set[object] = set()
        self._stats: Dict[object, ShardServingStats] = {}
        self._deaths: Dict[object, int] = {}
        self._dying = 0  # deaths detected whose handling has not returned
        self._requeued: Dict[object, int] = {}
        self._dispatch_clock = 0  # rotates shortest-queue tie-breaking
        self._gamma: Optional[int] = None
        self._epoch = 0
        self._swapping = False
        self._held: List[_Pending] = []
        self._swaps = 0
        self._running = False
        self._stopping = False

    @classmethod
    def from_store(
        cls,
        store,
        num_shards: Optional[int] = None,
        backend: Optional[str] = None,
        **kwargs,
    ):
        """Rehydrate a fleet from a crash-consistent zone store.

        *store* is a :class:`~repro.store.ZoneStore` (or its directory
        path).  The recovered monitor — segment map plus WAL tail replay
        — is partitioned round-robin into ``num_shards`` slices (default:
        the fleet size), and the zone epoch and γ are stamped from the
        store before any worker joins, so every warm-up handshake
        rehydrates at exactly the recorded epoch and later snapshots must
        be strictly newer.  Remaining keyword arguments go to the
        constructor verbatim.
        """
        from repro.store import ZoneStore

        if not isinstance(store, ZoneStore):
            store = ZoneStore.open(store)
        monitor = NeuronActivationMonitor.from_store(
            store, backend=backend, attach=False
        )
        if num_shards is None:
            num_shards = int(kwargs.get(cls._size_arg, 2))
        executor = cls(ShardRouter.partition(monitor, num_shards).shards, **kwargs)
        with executor._lock:
            executor._gamma = int(store.gamma)
            executor._epoch = int(store.epoch)
        return executor

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _join(self, worker: _WorkerHandle) -> Tuple[List[dict], Optional[int]]:
        """(Lock held.)  Stamp a joining worker with its shard set, the
        current epoch and γ; return the payloads and γ its handshake
        carries.  Payloads, γ and epoch are read together, so the worker
        is wholly pre- or post-swap, never mixed, and a swap or γ change
        that lands before it is installed finds it stale and re-syncs it."""
        worker.shard_ids = set(self._placement[worker.key])
        worker.epoch = self._epoch
        worker.gamma = self._gamma
        self._joining.add(worker)
        payloads = [self._payload_of[sid] for sid in sorted(worker.shard_ids)]
        return payloads, self._gamma

    def _abandon(self, worker: _WorkerHandle) -> None:
        """A joining worker failed its handshake."""
        with self._lock:
            self._joining.discard(worker)
            self._changed.notify_all()

    def _install(self, worker: _WorkerHandle) -> bool:
        """Publish a handshaken worker to dispatch; ``False`` (and nothing
        published) when the executor is stopping."""
        with self._lock:
            self._joining.discard(worker)
            self._changed.notify_all()
            if not self._running or self._stopping:
                return False
            self._workers[worker.key] = worker
            self._stats.setdefault(worker.key, ShardServingStats(shard_id=-1))
            return True

    def _send(self, worker: _WorkerHandle, message) -> bool:
        """Send one message on a worker link; ``False`` if the link is gone."""
        try:
            with worker.send_lock:
                worker.conn.send(message)
        except LINK_ERRORS + (ValueError,):
            return False
        return True

    def _begin_start(self) -> bool:
        """Mark the executor running; ``False`` if it already was."""
        with self._lock:
            if self._running:
                return False
            self._running = True
            self._stopping = False
            return True

    def _begin_stop(self) -> Optional[List[_WorkerHandle]]:
        """Mark the executor stopping, wake every waiter, and queue the
        stop sentinel FIFO behind each live worker's in-flight blocks.
        Returns the workers to join (``None`` when not running)."""
        with self._lock:
            if not self._running:
                return None
            self._stopping = True
            self._changed.notify_all()
            workers = list(self._workers.values())
        for worker in workers:
            if worker.live:
                self._send(worker, ("stop",))
        return workers

    def _end_stop(self) -> None:
        with self._lock:
            self._workers.clear()
            self._running = False
            self._stopping = False

    # ------------------------------------------------------------------
    # submission + dispatch
    # ------------------------------------------------------------------
    def submit(
        self,
        shard_id: int,
        patterns: np.ndarray,
        predicted_classes: np.ndarray,
        with_distances: bool = False,
        distance_cap: Optional[int] = None,
    ) -> Future:
        """Ship one row block to a worker holding ``shard_id``.

        Returns a :class:`concurrent.futures.Future` resolving to the
        ``(verdicts, distances | None)`` pair of
        :meth:`MonitorShard.check_batch` — the executor-shaped call the
        :class:`~repro.serving.server.StreamServer` awaits per coalesced
        batch.  ``distance_cap`` bounds the distances; verdicts stay
        exact for any cap.
        """
        return self._enqueue(
            shard_id, "both" if with_distances else "check",
            patterns, predicted_classes, distance_cap,
        )

    def submit_distances(
        self,
        shard_id: int,
        patterns: np.ndarray,
        predicted_classes: np.ndarray,
        cap: Optional[int] = None,
    ) -> Future:
        """Block future resolving to ``(None, min_distances)`` —
        ``cap``-bounded when requested (see
        :meth:`ZoneBackend.min_distances`)."""
        return self._enqueue(shard_id, "dist", patterns, predicted_classes, cap)

    def _enqueue(self, shard_id, mode, patterns, classes, cap) -> Future:
        if shard_id not in self._payload_of:
            raise KeyError(f"no shard {shard_id} in this {self._noun}")
        pending = _Pending(next(self._req_ids), shard_id, mode, patterns, classes, cap)
        self._dispatch(pending)
        return pending.future

    def _dispatch(self, pending: _Pending) -> None:
        """Register + send one block, surviving worker-death races.

        The entry enters the chosen worker's in-flight map under the
        lock *before* the send, so a death handler's drain always sees
        it.  If the send fails, the handler has drained and requeued the
        entry — unless the worker had already said ``bye``, in which case
        this thread reclaims it and retries (and learns the executor is
        stopping).
        """
        while True:
            with self._lock:
                worker = self._pick(pending)
            if worker is None:
                return  # held until the zone swap in progress completes
            if self._send_block(worker, pending):
                return
            with self._lock:
                if worker.inflight.pop(pending.req_id, None) is None:
                    return  # the death handler requeued it
            self._reclaim(worker, pending)

    def _pick(self, pending: _Pending) -> Optional[_WorkerHandle]:
        """(Lock held.)  Choose the block's worker and register it there.

        The live holder of the block's shard with the shortest queue
        wins; ties rotate.  During a zone swap the block is held instead
        (``None``).  With no live holder this waits for one to join,
        failing fast once every holder's slot is retired.
        """
        deadline = None
        while True:
            if not self._running or self._stopping:
                raise RuntimeError(f"{self._noun} is not running")
            if self._swapping:
                self._held.append(pending)
                return None
            live = [w for w in self._live() if pending.shard_id in w.shard_ids]
            if live:
                break
            holders = [
                key for key, shard_ids in self._placement.items()
                if pending.shard_id in shard_ids
            ]
            if holders and all(key in self._retired for key in holders):
                raise WorkerCrashError(
                    f"every worker holding shard {pending.shard_id} exceeded "
                    f"its respawn budget ({self.max_respawns})"
                )
            if deadline is None:
                deadline = time.monotonic() + self.ready_timeout
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerCrashError(
                    f"no worker holding shard {pending.shard_id} came back "
                    f"within {self.ready_timeout}s"
                )
            self._changed.wait(remaining)
        rr = self._dispatch_clock
        self._dispatch_clock = rr + 1
        n = len(live)
        worker = live[
            min(range(n), key=lambda i: (len(live[i].inflight), (i - rr) % n))
        ]
        worker.inflight[pending.req_id] = pending
        stats = self._stats[worker.key]
        depth = len(worker.inflight)
        stats.queue_depth = depth
        if depth > stats.max_queue_depth:
            stats.max_queue_depth = depth
        return worker

    def _send_block(self, worker: _WorkerHandle, pending: _Pending) -> bool:
        """Frame + send one registered block; ``False`` means the link
        died mid-send (the death handler has run)."""
        if self._send(worker, self._frame(worker, pending)):
            return True
        self._on_death(worker)
        return False

    def _frame(self, worker: _WorkerHandle, pending: _Pending):
        """The wire message for a block (the pool frames into its rings)."""
        return pending.wire()

    def _unframe(self, worker: _WorkerHandle, pending: _Pending, kind, result):
        """A reply for a block that occupied a ring slot (pool only)."""
        return result

    def _reclaim(self, worker: _WorkerHandle, pending: _Pending) -> None:
        """Release whatever transport resource a drained block held."""

    def _redispatch(self, pending: _Pending) -> None:
        try:
            self._dispatch(pending)
        except (RuntimeError, KeyError) as exc:
            if not pending.future.done():
                pending.future.set_exception(exc)

    # ------------------------------------------------------------------
    # reply pump + death handling
    # ------------------------------------------------------------------
    def _pump(self, worker: _WorkerHandle) -> None:
        """Resolve one link's replies until ``bye`` or the link drops (a
        drop is a death)."""
        conn = worker.conn
        while True:
            try:
                msg = conn.recv()
            except LINK_ERRORS:
                break
            worker.last_seen = time.monotonic()
            kind = msg[0]
            if kind == "ok" or kind == "err":
                self._resolve(worker, kind, msg[1], msg[2])
            elif kind == "gamma_ok" or kind == "zone_ok":
                event = worker.acks.pop(msg[1], None)
                if event is not None:
                    event.set()
            elif kind == "bye":
                worker.stopped = True
                return
        self._on_death(worker)

    def _resolve(self, worker: _WorkerHandle, kind, req_id, result) -> None:
        with self._lock:
            pending = worker.inflight.pop(req_id, None)
            if pending is None:
                return  # already drained and requeued after a death verdict
            stats = self._stats[worker.key]
            stats.requests += pending.rows
            stats.batches += 1
            if pending.rows > stats.max_batch:
                stats.max_batch = pending.rows
            stats.queue_depth = len(worker.inflight)
            stats.latencies.append(time.perf_counter() - pending.enqueued_at)
            if self._swapping and not worker.inflight:
                self._changed.notify_all()  # a swap's drain may be waiting
        if pending.slot >= 0:
            result = self._unframe(worker, pending, kind, result)
        if not pending.future.done():
            if kind == "ok":
                pending.future.set_result(result)
            else:
                pending.future.set_exception(result)

    def _on_death(self, worker: _WorkerHandle) -> None:
        """Drain, reclaim, replace, count, requeue.

        The death is counted only once :meth:`_replace` has returned, so
        ``total_respawns`` never runs ahead of the replacement.  Requeued
        blocks go through dispatch, which holds them during a zone swap,
        so none lands on a stale worker.
        """
        with self._lock:
            if worker.dead or worker.stopped:
                return
            worker.dead = True
            if self._workers.get(worker.key) is worker:
                del self._workers[worker.key]
            pending = list(worker.inflight.values())
            worker.inflight.clear()
            acks = list(worker.acks.values())
            worker.acks.clear()
            exhausted = self._deaths.get(worker.key, 0) >= self.max_respawns
            stopping = self._stopping or not self._running
            self._dying += 1
            self._changed.notify_all()
        outcome = "stopping"
        try:
            worker.conn.close()
            if worker.process is not None and worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5)
            for entry in pending:
                self._reclaim(worker, entry)
            for event in acks:  # unblock γ/zone broadcasters
                event.set()
            if not stopping:
                outcome = self._replace(worker, exhausted)
        finally:
            with self._lock:
                self._dying -= 1
                if outcome == "retired":
                    self._retired.add(worker.key)
                if outcome in ("respawned", "retired"):
                    self._deaths[worker.key] = self._deaths.get(worker.key, 0) + 1
                if outcome != "stopping":
                    self._requeued[worker.key] = (
                        self._requeued.get(worker.key, 0) + len(pending)
                    )
                self._changed.notify_all()
        if outcome == "stopping":
            error = WorkerCrashError(
                f"{self._noun} worker {worker.key!r} died during shutdown"
            )
            for entry in pending:
                if not entry.future.done():
                    entry.future.set_exception(error)
            return
        for entry in pending:
            self._redispatch(entry)

    def _replace(self, worker: _WorkerHandle, exhausted: bool) -> str:
        """Replacement policy for a dead worker; ``exhausted`` says its
        respawn budget is spent.  Returns ``"respawned"`` (a replacement
        is installed or launched), ``"retired"`` (the slot is gone for
        good) or ``"waiting"`` (the worker may still come back by
        itself; the death is not counted as a respawn)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # synchronous routed queries (ShardRouter mirror)
    # ------------------------------------------------------------------
    def _route(self, predicted_classes) -> Dict[int, np.ndarray]:
        return route_rows(self._owner, predicted_classes)

    def owns(self, predicted_class: int) -> bool:
        """Whether any shard of this fleet monitors the class."""
        owner = self._owner
        c = int(predicted_class)
        return bool(0 <= c < len(owner) and owner[c] >= 0)

    def check(
        self, patterns: np.ndarray, predicted_classes: np.ndarray
    ) -> np.ndarray:
        """Synchronous routed check across the fleet — the executor
        mirror of :meth:`ShardRouter.check` (unmonitored classes are
        trusted ``True``)."""
        return self._gather(patterns, predicted_classes, distances=False)

    def min_distances(
        self,
        patterns: np.ndarray,
        predicted_classes: np.ndarray,
        cap: Optional[int] = None,
    ) -> np.ndarray:
        """Synchronous routed distances (0 for unmonitored classes),
        ``cap``-bounded when requested."""
        return self._gather(patterns, predicted_classes, distances=True, cap=cap)

    def _gather(self, patterns, predicted_classes, distances, cap=None):
        patterns = np.atleast_2d(np.asarray(patterns))
        predicted_classes = np.asarray(predicted_classes)
        out = np.zeros(len(patterns), np.int64) if distances else np.ones(len(patterns), bool)
        blocks = [
            (rows, self._enqueue(shard_id, "dist" if distances else "check",
                                 patterns[rows], predicted_classes[rows], cap))
            for shard_id, rows in self._route(predicted_classes).items()
        ]
        for rows, future in blocks:
            answer = future.result(timeout=self.ready_timeout)
            out[rows] = answer[1] if distances else answer[0]
        return out

    # ------------------------------------------------------------------
    # γ + zone-epoch resync
    # ------------------------------------------------------------------
    def set_gamma(self, gamma: int) -> None:
        """Change γ fleet-wide and wait until every worker acked it (the
        executor mirror of :meth:`ShardRouter.set_gamma`).  Runs as a
        :meth:`_sync_fleet` round, so a worker that was mid-join with
        the old γ is re-synced too; ``RuntimeError`` if the round does
        not finish within ``ready_timeout``."""
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        with self._lock:
            if not self._running:
                raise RuntimeError(f"{self._noun} is not running")
            self._gamma = int(gamma)
        self._sync_fleet()

    def _live(self) -> List[_WorkerHandle]:
        """(Lock held.)  The published workers that have not died or stopped."""
        return [w for w in self._workers.values() if w.live]

    def _ack_targets(self, workers) -> List[Tuple[_WorkerHandle, int, threading.Event]]:
        """(Lock held.)  Register one ack event per worker."""
        targets = []
        for worker in workers:
            ack_id = next(self._ack_ids)
            event = threading.Event()
            worker.acks[ack_id] = event
            targets.append((worker, ack_id, event))
        return targets

    @property
    def epoch(self) -> int:
        """Zone epoch the fleet currently serves (0 = as constructed)."""
        with self._lock:
            return self._epoch

    def apply_snapshot(self, snapshot) -> None:
        """Install a :class:`~repro.monitor.drift.ZoneSnapshot` fleet-wide.

        The γ-resync handshake generalised to whole zones, in three
        phases, so no block is ever answered by a mixed-epoch fleet:

        1. **Drain.**  New dispatches (and death-handler requeues) are
           *held*, then the swap waits until no worker has an unanswered
           block — all pre-swap blocks are answered by pre-swap zones.
        2. **Install.**  Payloads, routing table, γ and epoch are
           replaced together under the lock: from this instant any
           joining worker rehydrates at the new epoch.
        3. **Rehydrate + replay.**  :meth:`_sync_fleet` sends every live
           worker whose epoch lags a ``("zone", payloads, γ, ack)``
           message and awaits it, until the whole fleet — including
           workers that joined mid-swap — is at the new epoch.  Only then
           are the held blocks replayed.

        Raises ``ValueError`` for a non-monotonic epoch or a payload set
        that does not cover the fleet's shards, ``RuntimeError`` when the
        executor is stopped or another swap is live.
        """
        payload_by_shard: Dict[int, dict] = {}
        for payload in snapshot.payloads:
            shard_id = int(payload["shard_id"])
            if shard_id in payload_by_shard:
                raise ValueError(f"snapshot has duplicate shard id {shard_id}")
            payload_by_shard[shard_id] = payload
        owner = owner_table(
            (sid, payload["classes"]) for sid, payload in payload_by_shard.items()
        )
        with self._lock:
            if not self._running or self._stopping:
                raise RuntimeError(f"{self._noun} is not running")
            if self._swapping:
                raise RuntimeError("another snapshot swap is in progress")
            if snapshot.epoch <= self._epoch:
                raise ValueError(
                    f"snapshot epoch {snapshot.epoch} is not newer than the "
                    f"fleet epoch {self._epoch}"
                )
            if set(payload_by_shard) != set(self._payload_of):
                raise ValueError(
                    f"snapshot shards {sorted(payload_by_shard)} do not match "
                    f"the {self._noun}'s shards {sorted(self._payload_of)}"
                )
            self._swapping = True
        try:
            with self._lock:
                self._await(
                    lambda: not any(w.inflight for w in self._workers.values()),
                    "zone swap drain",
                )
                self._payload_of = payload_by_shard
                self._owner = owner
                self._gamma = int(snapshot.gamma)
                self._epoch = int(snapshot.epoch)
            self._sync_fleet()
            with self._lock:
                self._swaps += 1
        finally:
            with self._lock:
                self._swapping = False
                held, self._held = self._held, []
            for entry in held:
                self._redispatch(entry)

    def _await(self, ready, what: str) -> None:
        """(Lock held.)  Wait for ``ready()`` on the fleet-change condition."""
        deadline = time.monotonic() + self.ready_timeout
        while not ready():
            if self._stopping or not self._running:
                raise RuntimeError(f"{self._noun} stopped during the {what}")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"{what} did not finish within {self.ready_timeout}s"
                )
            self._changed.wait(remaining)

    def _sync_fleet(self) -> None:
        """Bring every live worker to the current epoch, placement and γ.

        A worker whose epoch lags (a zone swap) or whose placement grew
        (a cluster re-place) gets a ``("zone", payloads, γ, ack)`` message
        with its full shard set; one whose γ alone lags gets ``("gamma",
        γ, ack)``.  Each is awaited; only a genuine ack stamps the new
        state and lets dispatch offer it the new shards.  Rounds repeat
        until no live worker is stale and none is mid-join (a worker that
        read pre-swap payloads or the old γ joins with a lagging stamp,
        and the next round fixes it).  A link that fails the send is cut;
        its pump runs the death path, which releases the ack.
        """
        deadline = time.monotonic() + self.ready_timeout
        with self._sync_lock:
            while True:
                with self._lock:
                    self._await(
                        lambda: not self._joining or bool(self._stale()),
                        "zone resync",
                    )
                    stale = self._stale()
                    if not stale:
                        return
                    epoch, gamma = self._epoch, self._gamma
                    targets = []
                    for worker, ack_id, event in self._ack_targets(stale):
                        shard_ids = self._placement[worker.key]
                        if worker.epoch == epoch and worker.shard_ids == shard_ids:
                            message = ("gamma", gamma, ack_id)
                        else:
                            message = (
                                "zone",
                                [self._payload_of[sid] for sid in sorted(shard_ids)],
                                gamma, ack_id,
                            )
                        targets.append((worker, event, set(shard_ids), message))
                for worker, _event, _ids, message in targets:
                    if not self._send(worker, message):
                        worker.conn.close()
                for worker, event, shard_ids, _message in targets:
                    # A death releases its acks only after marking the
                    # worker dead, so a set event on a live worker is a
                    # genuine ack.
                    if event.wait(timeout=self.ready_timeout) and not worker.dead:
                        with self._lock:
                            worker.shard_ids = shard_ids
                            worker.epoch = epoch
                            worker.gamma = gamma
                            self._changed.notify_all()
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"zone resync did not finish within {self.ready_timeout}s"
                    )

    def _stale(self) -> List[_WorkerHandle]:
        """(Lock held.)  Live workers behind the current epoch, placement
        or γ."""
        return [
            w for w in self._live()
            if w.epoch != self._epoch or w.gamma != self._gamma
            or w.shard_ids != self._placement[w.key]
        ]

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> List[Dict[str, float]]:
        """Per-worker serving rows: the :class:`ShardServingStats`
        counters keyed by worker slot, plus pid, respawn/requeue
        accounting, zone epoch, held-shard count and transport tag."""
        rows = []
        with self._lock:
            for key in sorted(self._stats):
                row = self._stats[key].as_dict()
                row.pop("shard")
                row["worker"] = key
                worker = self._workers.get(key)
                row["pid"] = worker.pid if worker is not None else -1
                row["respawns"] = self._deaths.get(key, 0)
                row["requeued_blocks"] = self._requeued.get(key, 0)
                row["epoch"] = worker.epoch if worker is not None else -1
                row["shards"] = len(worker.shard_ids) if worker is not None else 0
                row["transport"] = self._transport
                rows.append(row)
        return rows

    @property
    def total_swaps(self) -> int:
        """How many zone snapshots have been installed fleet-wide."""
        with self._lock:
            return self._swaps

    @property
    def total_respawns(self) -> int:
        """How many worker deaths have been handled.  A death counts once
        its handling step has returned: the pool's replacement is
        installed in its slot, the cluster's replacement process is
        launched, or the slot is retired because its respawn budget is
        spent.  An external cluster worker that drops is not counted.
        A death already detected is waited for (up to ``ready_timeout``),
        so the count never lags a crash the executor has seen."""
        with self._lock:
            self._changed.wait_for(lambda: not self._dying, self.ready_timeout)
            return sum(self._deaths.values())

    @property
    def total_requeued(self) -> int:
        """How many in-flight blocks were replayed after a worker death
        (settled like :attr:`total_respawns`)."""
        with self._lock:
            self._changed.wait_for(lambda: not self._dying, self.ready_timeout)
            return sum(self._requeued.values())

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (fault-injection hook)."""
        with self._lock:
            return [
                w.pid for w in self._live()
                if w.process is None or w.process.is_alive()
            ]
