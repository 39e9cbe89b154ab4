"""Shared-nothing multiprocess shard workers.

A :class:`ProcessShardPool` spawns N worker processes, each hosting
:class:`~repro.serving.shard.MonitorShard`\\ s rehydrated from their
``to_payload()`` form (config plus sorted packed rows, never
live backend objects), so any backend's shards rehydrate into any
process.  Dispatch, reply pumps, crash requeue, the fleet-atomic zone
swap, γ broadcast and stats are the shared executor core
(:mod:`repro.serving.executor`); this module adds only what is specific
to local processes:

* **Process spawn.**  ``start()`` forks (or spawns) each worker with
  :func:`~repro.serving.executor.serve_link` as its target and completes
  the warm-up handshake (init payloads + current γ down, ``("ready",
  n)`` back), so a pool that returns from ``start()`` is fully
  rehydrated.  A crashed worker is respawned into the same slot from
  the retained payloads at the current γ and epoch; a slot that crashes
  more than ``max_respawns`` times is retired.
* **Placement.**  ``dispatch="balance"`` (the default) gives every
  worker every shard, so each block goes to the shortest queue;
  ``dispatch="owner"`` gives each shard one home slot (round-robin,
  lowest memory, deterministic placement — the fault suites use it to
  aim SIGKILLs).  Both are holder sets of the core, of size all and 1.
* **Shared-memory rings.**  On the default ``transport="shm"`` (opt out
  with ``REPRO_SERVING_SHM=0``) each block's packed rows and int64
  class ids are memcpy'd into a slot of the worker's preallocated
  :mod:`~repro.serving.shmring` request ring and only a ``("shm",
  slot)`` descriptor crosses the pipe; the worker answers into the
  paired response slot.  Blocks that do not fit a slot, or arrive while
  every slot is in flight, fall back to the pickled pipe block by
  block.  Slots held by a SIGKILL'd worker are reclaimed by the death
  drain; segments are unlinked when a slot is retired and at ``stop()``.
* **Shutdown.**  ``stop()`` queues the stop sentinel FIFO behind every
  in-flight block, joins the workers and every pump thread, and only
  then unlinks the rings.  A pump that misses its join window is named
  in a ``RuntimeWarning`` and its ring stays mapped (unlinked, not
  closed) so a late reply never touches a dead mapping.

Start method: ``"fork"`` where available, else ``"spawn"``; payloads
always travel through the init message, never through fork memory, so
rehydration is exercised identically either way.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import warnings
from typing import Dict, List, Optional, Sequence

from repro.serving import shmring
from repro.serving.executor import (
    ShardExecutor,
    WorkerCrashError,
    _WorkerHandle,
    serve_link,
)
from repro.serving.shard import MonitorShard


class ProcessShardPool(ShardExecutor):
    """N worker processes serving a partition of monitor shards.

    Parameters
    ----------
    shards:
        The :class:`MonitorShard` slices to distribute over the workers.
        Only their portable payloads are retained by the parent — the
        pool never touches the live monitors again, so the caller may
        discard them.
    num_workers:
        Worker process count (capped at the shard count).
    context:
        ``multiprocessing`` start method (``"fork"``/``"spawn"``/
        ``"forkserver"``); default is ``"fork"`` where available, else
        ``"spawn"``.
    max_respawns:
        Crash budget per worker slot; a slot past it is retired and
        blocks only it could serve fail with :class:`WorkerCrashError`.
    ready_timeout:
        Seconds to wait for a warm-up handshake, a live worker, a drain.
    transport:
        ``"shm"`` (default; opt out globally with ``REPRO_SERVING_SHM=0``)
        ships row blocks through preallocated shared-memory rings,
        ``"pipe"`` pickles every block over the pipe.
    dispatch:
        ``"balance"`` (default; override with ``REPRO_SERVING_DISPATCH``)
        replicates every shard into every worker and sends each block to
        the shortest outstanding-block queue; ``"owner"`` keeps the
        disjoint round-robin shard→worker partition.
    ring_slots / ring_slot_bytes:
        Per-worker ring geometry (defaults 32 slots × 64 KiB, env
        ``REPRO_SERVING_SHM_SLOTS`` / ``REPRO_SERVING_SHM_SLOT_BYTES``).
        Oversized blocks fall back to the pipe, so the slot width bounds
        the fast path, never correctness.
    """

    _noun = "pool"
    _size_arg = "num_workers"

    def __init__(
        self,
        shards: Sequence[MonitorShard],
        num_workers: int = 2,
        context: Optional[str] = None,
        max_respawns: int = 5,
        ready_timeout: float = 120.0,
        transport: Optional[str] = None,
        dispatch: Optional[str] = None,
        ring_slots: Optional[int] = None,
        ring_slot_bytes: Optional[int] = None,
    ):
        super().__init__(shards, max_respawns, ready_timeout)
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.num_workers = min(num_workers, len(self._payload_of))
        self._ctx = mp.get_context(
            context or ("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        )
        if transport is None:
            transport = (
                "pipe" if os.environ.get("REPRO_SERVING_SHM", "1") == "0"
                else "shm"
            )
        if transport not in ("shm", "pipe"):
            raise ValueError(f"unknown transport {transport!r}")
        self._transport = transport
        if dispatch is None:
            dispatch = os.environ.get("REPRO_SERVING_DISPATCH", "balance")
        if dispatch not in ("balance", "owner"):
            raise ValueError(f"unknown dispatch {dispatch!r}")
        self._dispatch_mode = dispatch
        self._ring_slots = int(
            ring_slots or os.environ.get("REPRO_SERVING_SHM_SLOTS", 32)
        )
        self._ring_slot_bytes = int(
            ring_slot_bytes
            or os.environ.get("REPRO_SERVING_SHM_SLOT_BYTES", 65536)
        )
        # Home slot per shard: its only holder under owner dispatch.
        self._worker_of: Dict[int, int] = {
            shard_id: position % self.num_workers
            for position, shard_id in enumerate(self._payload_of)
        }
        for slot in range(self.num_workers):
            self._placement[slot] = {
                shard_id for shard_id, home in self._worker_of.items()
                if dispatch == "balance" or home == slot
            }
        self._rings: List[Optional[shmring.RingPair]] = [None] * self.num_workers
        self._ring_blocks = [0] * self.num_workers
        self._pipe_blocks = [0] * self.num_workers
        self._pumps: List[threading.Thread] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every worker and complete its warm-up handshake
        (idempotent); returning means all shards are rehydrated."""
        if not self._begin_start():
            return
        try:
            if self._transport == "shm":
                for index in range(self.num_workers):
                    if self._rings[index] is None:
                        self._rings[index] = shmring.RingPair(
                            f"{os.getpid()}-{index}",
                            self._ring_slots, self._ring_slot_bytes,
                        )
            for index in range(self.num_workers):
                self._spawn(index)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Graceful drain: the stop sentinel queues FIFO behind every
        in-flight block, so workers answer everything before exiting."""
        workers = self._begin_stop()
        if workers is None:
            return
        wedged: List[threading.Thread] = []
        for worker in workers:
            worker.process.join(timeout=self.ready_timeout)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5)
            if worker.pump is not None:
                worker.pump.join(timeout=self.ready_timeout)
                if worker.pump.is_alive():
                    wedged.append(worker.pump)
            worker.conn.close()
        # A death handler racing this shutdown runs on a dead worker's
        # pump and may be mid-spawn: wait for every pump ever started
        # before unlinking, or the replacement attaches to a segment
        # that no longer exists.
        current = threading.current_thread()
        for pump in self._pumps:
            if pump is not current:
                pump.join(timeout=self.ready_timeout)
                if pump.is_alive() and pump not in wedged:
                    wedged.append(pump)
        self._pumps.clear()
        # A pump that outlived its join window may still hold (or be
        # about to take) numpy views into its worker's ring slots: say so
        # and keep those mappings alive — unlink drops the /dev/shm name,
        # the close is skipped, and the OS reclaims the mapping at exit.
        keep_mapped = set()
        if wedged:
            names = ", ".join(sorted(pump.name for pump in wedged))
            warnings.warn(
                f"pump thread(s) failed to join within "
                f"{self.ready_timeout}s at pool shutdown: {names}; their "
                f"ring mappings are kept alive (unlinked, not closed)",
                RuntimeWarning,
                stacklevel=2,
            )
            for pump in wedged:
                # Pump names are "repro-shard-pump-<slot>" (see _spawn).
                try:
                    keep_mapped.add(int(pump.name.rsplit("-", 1)[1]))
                except ValueError:
                    pass
        self._destroy_rings(keep_mapped=keep_mapped)
        self._end_stop()

    def _destroy_rings(self, keep_mapped=frozenset()) -> None:
        """Unlink + unmap every ring segment (the shm fault suite asserts
        nothing is left under ``/dev/shm``).  Slots in ``keep_mapped``
        are unlinked but stay mapped in ``self._rings``."""
        for index, ring in enumerate(self._rings):
            if ring is not None:
                ring.unlink()
                if index in keep_mapped:
                    continue
                ring.close()
                self._rings[index] = None

    def _spawn(self, index: int) -> None:
        """Start one worker process in slot ``index``, hand it the slot's
        payloads at the current γ and epoch, and publish it."""
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=serve_link,
            args=(child_conn,),
            daemon=True,
            name=f"repro-shard-worker-{index}",
        )
        process.start()
        child_conn.close()
        worker = _WorkerHandle(index, parent_conn, process.pid, process)
        with self._lock:
            payloads, gamma = self._join(worker)
        ring = self._rings[index]
        try:
            parent_conn.send(
                ("init", payloads, gamma, ring.spec() if ring is not None else None)
            )
            if not parent_conn.poll(self.ready_timeout):
                raise RuntimeError("warm-up handshake timed out")
            msg = parent_conn.recv()
            if msg[0] != "ready":
                raise RuntimeError(f"unexpected handshake reply {msg[0]!r}")
        except (EOFError, OSError, RuntimeError) as exc:
            self._abandon(worker)
            process.kill()
            process.join(timeout=5)
            parent_conn.close()
            raise WorkerCrashError(
                f"worker {index} failed its warm-up handshake: {exc}"
            ) from exc
        worker.pump = threading.Thread(
            target=self._pump,
            args=(worker,),
            daemon=True,
            name=f"repro-shard-pump-{index}",
        )
        if not self._install(worker):  # stop() began during the handshake
            process.kill()
            process.join(timeout=5)
            parent_conn.close()
            return
        worker.pump.start()
        self._pumps.append(worker.pump)

    def _replace(self, worker: _WorkerHandle, exhausted: bool) -> str:
        """Respawn the slot from the retained payloads; retire it (and
        unlink its segments — nothing will attach to them again) once
        its budget is spent or the replacement fails its handshake."""
        if not exhausted:
            try:
                self._spawn(worker.key)
                return "respawned"
            except (WorkerCrashError, OSError):
                pass
        ring = self._rings[worker.key]
        if ring is not None:
            ring.unlink()  # the mapping stays until stop(): late replies read it
        return "retired"

    # ------------------------------------------------------------------
    # ring transport
    # ------------------------------------------------------------------
    def _frame(self, worker, pending):
        # The slot layout is one integer class id per row: anything else
        # (odd caller-shaped blocks fail validation worker-side) rides
        # the pipe, as do oversized blocks and ring-exhausted overflow.
        ring = self._rings[worker.key]
        if (
            ring is not None
            and len(pending.classes) == pending.rows
            and pending.classes.dtype.kind in "iu"
            and ring.fits(pending.rows, pending.packed.nbytes)
        ):
            slot = ring.acquire()
            if slot >= 0:
                shmring.frame_request(ring, slot, pending.packed, pending.classes)
                pending.slot = slot
                return pending.wire(("shm", slot))
        return pending.wire()

    def _send_block(self, worker, pending) -> bool:
        if not super()._send_block(worker, pending):
            return False
        with self._lock:
            if pending.slot >= 0:
                self._ring_blocks[worker.key] += 1
            else:
                self._pipe_blocks[worker.key] += 1
        return True

    def _unframe(self, worker, pending, kind, result):
        # Popping the entry made this thread the slot's owner: copy the
        # response out, then recycle the index.
        ring = self._rings[worker.key]
        if kind == "ok":
            _tag, slot, has_verdicts, has_distances = result
            result = shmring.read_response(
                ring, slot, pending.rows, has_verdicts, has_distances
            )
        self._reclaim(worker, pending)
        return result

    def _reclaim(self, worker, pending) -> None:
        if pending.slot >= 0:
            ring = self._rings[worker.key]
            if ring is not None:
                ring.release(pending.slot)
            pending.slot = -1

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> List[Dict[str, float]]:
        """Per-worker serving rows (see :meth:`ShardExecutor.stats`) plus
        how many blocks each slot carried through its ring or the pipe."""
        rows = super().stats()
        for row in rows:
            row["ring_blocks"] = self._ring_blocks[row["worker"]]
            row["pipe_blocks"] = self._pipe_blocks[row["worker"]]
        return rows

    @property
    def total_ring_blocks(self) -> int:
        """How many blocks travelled through the shared-memory rings."""
        return sum(self._ring_blocks)

    @property
    def total_pipe_blocks(self) -> int:
        """How many blocks travelled as pickled pipe tuples (the whole
        workload on ``transport="pipe"``; oversized/overflow fallbacks
        on ``"shm"``)."""
        return sum(self._pipe_blocks)

    def __len__(self) -> int:
        return self.num_workers

    def __repr__(self) -> str:
        return (
            f"ProcessShardPool(workers={self.num_workers}, "
            f"shards={len(self._payload_of)}, "
            f"method={self._ctx.get_start_method()!r}, "
            f"transport={self._transport!r}, "
            f"dispatch={self._dispatch_mode!r}, "
            f"running={self._running})"
        )
