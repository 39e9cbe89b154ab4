"""Cross-host TCP shard cluster: coordinator, remote workers, failover.

:class:`ClusterCoordinator` is the shared executor core
(:mod:`repro.serving.executor`) with workers that dial in over TCP
instead of being forked: the same wire messages, dispatch, requeue, zone
swap and stats as the process pool, each worker link a blocking
:class:`~repro.serving.netproto.FrameConnection`.  What is specific to
the cluster:

* **Registration.**  The coordinator listens on a socket; an accept
  thread hands every connection to its own thread, which reads the
  worker's ``("register", name, pid)``, reserves its shard placement,
  runs the ``("init", payloads, γ, None)`` → ``("ready", n)`` handshake
  (the pool's init message with no ring spec — TCP has no shared
  memory), and then becomes that link's reply pump.  ``start()`` returns
  once ``workers`` registrations have completed.
* **Placement and replicas.**  Each shard has a replica set of workers
  holding it.  ``replicas=0`` (default) fully replicates every shard into
  every worker — the pool's ``balance`` dispatch; ``replicas=r`` caps the
  set at ``r`` holders, assigned least-loaded-first as workers register.
  A name that registers again reclaims its previous set.
* **Failure model** — the pool's respawn/requeue generalised to
  "reconnect, else re-place":

  1. A worker vanishes: its socket drops, or it stays silent past
     ``heartbeat_timeout`` (a heartbeat thread pings every
     ``heartbeat_interval``; any inbound frame counts as liveness).
  2. Its unanswered blocks are drained and requeued through dispatch,
     which waits (bounded by ``ready_timeout``) for a live holder.
  3. *Reconnect:* a self-spawned local worker is relaunched (budgeted by
     ``max_respawns``); an external worker gets ``reconnect_grace``
     seconds to dial back in under its name.
  4. *Re-place:* if it stays gone (or the budget is spent), every shard
     it held is pushed to the least-loaded survivors in a ``("zone",
     payloads, γ, ack)`` message before they may serve it — frames are
     FIFO per connection, so the rehydration lands before any requeued
     block.

:func:`run_worker` is the worker side: one :func:`serve_link` loop per
registration, redialling after a dropped connection.  ``python -m repro
serve-worker host:port`` is a thin wrapper.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.serving import netproto
from repro.serving.executor import (
    LINK_ERRORS,
    ShardExecutor,
    WorkerCrashError,
    _WorkerHandle,
    serve_link,
)
# The worker-side block kernel, re-exported for hand-rolled protocol workers.
from repro.serving.executor import _answer_block as _answer_block
from repro.serving.shard import MonitorShard


#: Environment overrides for the coordinator's liveness clock — the
#: constructor arguments still win when passed explicitly.
ENV_HEARTBEAT_INTERVAL = "REPRO_CLUSTER_HEARTBEAT_INTERVAL"
ENV_HEARTBEAT_TIMEOUT = "REPRO_CLUSTER_HEARTBEAT_TIMEOUT"

DEFAULT_HEARTBEAT_INTERVAL = 1.0
DEFAULT_HEARTBEAT_TIMEOUT = 15.0


def _env_seconds(name: str, default: float) -> float:
    """A positive float from the environment, or *default* when unset."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number of seconds, got {raw!r}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def parse_address(address: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """``"host:port"`` (or a ``(host, port)`` pair) → ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"cluster address must be 'host:port', got {address!r}"
        )
    return host, int(port)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def run_worker(
    address: Union[str, Tuple[str, int]],
    name: Optional[str] = None,
    reconnect_attempts: int = 0,
    reconnect_backoff: float = 0.5,
) -> None:
    """Serve shards for the coordinator at ``address`` until it stops us.

    Connects, registers, rehydrates whatever shard payloads the
    coordinator assigns, and answers block frames until the ``("stop",)``
    sentinel.  A dropped connection is retried up to
    ``reconnect_attempts`` times (``reconnect_backoff`` seconds between
    dials) — re-registering under the same name lets the coordinator
    treat it as the same worker coming back.
    """
    host, port = parse_address(address)
    if name is None:
        name = f"{socket.gethostname()}-{os.getpid()}"
    attempts_left = int(reconnect_attempts)
    while True:
        try:
            sock = socket.create_connection((host, port))
        except OSError:
            if attempts_left <= 0:
                raise
        else:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = netproto.FrameConnection(sock)
            if serve_link(conn, hello=("register", name, os.getpid())):
                return  # graceful stop
            if attempts_left <= 0:
                return
        attempts_left -= 1
        time.sleep(reconnect_backoff)


def _local_worker_main(host: str, port: int, name: str) -> None:
    """Entry point of a coordinator-spawned local worker process."""
    # Generous dial retries: a respawned worker may beat the listening
    # socket's accept loop by a few milliseconds under load.
    run_worker((host, port), name=name, reconnect_attempts=20,
               reconnect_backoff=0.1)


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
class ClusterCoordinator(ShardExecutor):
    """A TCP shard cluster behind the process pool's executor surface.

    Parameters
    ----------
    shards:
        The :class:`MonitorShard` slices to place over the fleet.  Only
        their portable payloads are retained, exactly like the pool.
    listen:
        ``None`` (default) binds a loopback socket on an ephemeral port
        and **self-hosts**: ``workers`` local worker processes are
        spawned and dial back in (the zero-config mode used by
        ``executor="cluster"`` tests/CI).  A ``"host:port"`` string (or
        pair) binds there and waits for ``workers`` externally-launched
        ``python -m repro serve-worker`` registrations instead.
    workers:
        Fleet size ``start()`` waits for before returning.
    replicas:
        Per-shard replica-set size; ``0`` = every worker holds every
        shard (balance-style dispatch over the whole fleet).
    context:
        ``multiprocessing`` start method for self-spawned workers.
    max_respawns:
        Respawn budget per self-spawned worker name.
    ready_timeout:
        Bound on ``start()``, block-dispatch wait, drains and handshakes.
    heartbeat_interval / heartbeat_timeout:
        Liveness ping cadence and the silence threshold after which a
        connection is declared dead.  ``None`` (default) reads
        ``REPRO_CLUSTER_HEARTBEAT_INTERVAL`` /
        ``REPRO_CLUSTER_HEARTBEAT_TIMEOUT`` from the environment,
        falling back to 1 s / 15 s.  The timeout must comfortably
        exceed the slowest expected kernel: a worker mid-batch answers
        pings only between blocks — a slow-but-alive worker whose
        silence stays *at or under* the threshold is never declared
        dead (the sweep fires strictly past it).
    reconnect_grace:
        How long a vanished *external* worker may re-register before its
        shards are re-placed on the survivors.
    """

    _noun = "cluster"
    _size_arg = "workers"
    _transport = "tcp"

    def __init__(
        self,
        shards: Sequence[MonitorShard],
        listen: Optional[Union[str, Tuple[str, int]]] = None,
        workers: int = 2,
        replicas: int = 0,
        context: Optional[str] = None,
        max_respawns: int = 5,
        ready_timeout: float = 60.0,
        heartbeat_interval: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
        reconnect_grace: float = 2.0,
    ):
        super().__init__(shards, max_respawns, ready_timeout)
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if replicas < 0:
            raise ValueError(f"replicas must be non-negative, got {replicas}")
        self.workers = workers
        self.replicas = replicas
        self.heartbeat_interval = (
            float(heartbeat_interval) if heartbeat_interval is not None
            else _env_seconds(ENV_HEARTBEAT_INTERVAL, DEFAULT_HEARTBEAT_INTERVAL)
        )
        self.heartbeat_timeout = (
            float(heartbeat_timeout) if heartbeat_timeout is not None
            else _env_seconds(ENV_HEARTBEAT_TIMEOUT, DEFAULT_HEARTBEAT_TIMEOUT)
        )
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {self.heartbeat_interval}"
            )
        if self.heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be positive, got {self.heartbeat_timeout}"
            )
        self.reconnect_grace = reconnect_grace
        self._spawn_local = listen is None
        self._bind = ("127.0.0.1", 0) if listen is None else parse_address(listen)
        self._ctx = mp.get_context(
            context or ("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        )
        self._spawned_procs: Dict[str, "mp.process.BaseProcess"] = {}
        self._listener: Optional[socket.socket] = None
        self._address: Optional[Tuple[str, int]] = None
        self._threads: List[threading.Thread] = []
        self._timers: List[threading.Timer] = []
        self._halt = threading.Event()

    @property
    def _workers_by_name(self) -> Dict[str, _WorkerHandle]:
        """Registered worker links by name."""
        return self._workers

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` workers dial (after ``start()``)."""
        if self._address is None:
            raise RuntimeError("cluster is not listening; call start()")
        return self._address

    def start(self) -> None:
        """Bind the listener, gather the fleet, return once ``workers``
        registrations have completed their init handshake (idempotent)."""
        if not self._begin_start():
            return
        self._halt.clear()
        try:
            self._listener = socket.create_server(self._bind)
            host, port = self._listener.getsockname()[:2]
            self._address = (host, port)
            for target, name in ((self._accept, "repro-cluster-accept"),
                                 (self._heartbeat, "repro-cluster-heartbeat")):
                thread = threading.Thread(target=target, name=name, daemon=True)
                thread.start()
                self._threads.append(thread)
            if self._spawn_local:
                for index in range(self.workers):
                    self._spawn_process(f"local-{index}")
            with self._lock:
                registered = self._changed.wait_for(
                    lambda: len(self._live()) >= self.workers,
                    timeout=self.ready_timeout,
                )
                count = len(self._live())
            if not registered:
                raise WorkerCrashError(
                    f"only {count} of {self.workers} workers registered "
                    f"within {self.ready_timeout}s"
                )
        except BaseException:
            self.stop()
            raise

    def _spawn_process(self, name: str) -> None:
        """Launch one local worker process that dials back in under
        ``name`` (initial fleet and the respawn path)."""
        host, port = self._address
        process = self._ctx.Process(
            target=_local_worker_main,
            args=(host, port, name),
            daemon=True,
            name=f"repro-cluster-worker-{name}",
        )
        process.start()
        self._spawned_procs[name] = process

    def stop(self) -> None:
        """Graceful drain: stop sentinels queue FIFO behind in-flight
        blocks on every connection, then the listener closes (idempotent;
        safe before ``start()``)."""
        workers = self._begin_stop()
        if workers is None:
            return
        self._halt.set()
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        deadline = time.monotonic() + self.ready_timeout
        for worker in workers:
            if worker.pump is not None and worker.pump is not threading.current_thread():
                worker.pump.join(timeout=max(0.0, deadline - time.monotonic()))
            worker.conn.close()
        if self._listener is not None:
            try:
                self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
            except OSError:
                pass
            self._listener.close()
            self._listener = None
        for thread in self._threads:
            thread.join(timeout=self.ready_timeout)
        self._threads.clear()
        for process in self._spawned_procs.values():
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
        self._spawned_procs.clear()
        self._address = None
        self._end_stop()

    # ------------------------------------------------------------------
    # registration + placement
    # ------------------------------------------------------------------
    def _accept(self) -> None:
        """Hand every incoming connection to its own registration thread."""
        listener = self._listener
        while True:
            try:
                sock, _peer = listener.accept()
            except OSError:
                return  # listener closed by stop()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._serve_conn, args=(sock,),
                name="repro-cluster-conn", daemon=True,
            ).start()

    def _serve_conn(self, sock: socket.socket) -> None:
        """One connection's life: register → init handshake → reply pump."""
        conn = netproto.FrameConnection(sock)
        worker = None
        try:
            sock.settimeout(self.ready_timeout)
            msg = conn.recv()
            if not isinstance(msg, tuple) or msg[0] != "register":
                raise netproto.ProtocolError(f"expected a registration, got {msg!r}")
            name, pid = str(msg[1]), int(msg[2])
            with self._lock:
                stale = self._workers.get(name)
                if self._stopping or (stale is not None and stale.live):
                    raise netproto.ProtocolError(f"worker name {name!r} is taken")
                # Placement is reserved before the handshake, so
                # concurrent registrations see each other's claims.
                if not self._placement.get(name):
                    self._placement[name] = self._assign_shards()
                worker = _WorkerHandle(name, conn, pid)
                payloads, gamma = self._join(worker)
            conn.send(("init", payloads, gamma, None))
            if conn.recv()[0] != "ready":
                raise netproto.ProtocolError("worker failed its init handshake")
            sock.settimeout(None)
        except LINK_ERRORS + (ValueError, TypeError, IndexError):
            if worker is not None:
                self._abandon(worker)
            conn.close()
            return
        worker.pump = threading.current_thread()
        worker.last_seen = time.monotonic()
        if self._install(worker):
            self._pump(worker)
        else:
            conn.close()

    def _assign_shards(self) -> Set[int]:
        """(Lock held.)  Shard set for a newly registering worker name.

        With ``replicas=0`` every worker holds every shard.  With
        ``replicas=r`` it takes up to its fair share (``ceil(shards·r /
        workers)``) of the most under-replicated shards, so a
        sequentially registering fleet converges on ~r holders per shard
        instead of the first arrival hoarding everything.
        """
        if self.replicas == 0:
            return set(self._payload_of)
        holders = {sid: 0 for sid in self._payload_of}
        for worker in [*self._workers.values(), *self._joining]:
            if worker.live:
                for sid in worker.shard_ids:
                    holders[sid] += 1
        share = max(1, -(-len(holders) * self.replicas // self.workers))
        deficits = sorted(
            (sid for sid, count in holders.items() if count < self.replicas),
            key=lambda sid: (holders[sid], sid),
        )
        assigned = set(deficits[:share])
        if not assigned:  # replica targets all met: still host something
            assigned = {min(holders, key=lambda sid: (holders[sid], sid))}
        return assigned

    # ------------------------------------------------------------------
    # failure handling: heartbeat, reconnect, re-place
    # ------------------------------------------------------------------
    def _heartbeat(self) -> None:
        """Ping live connections; cut the ones silent past the timeout
        (their pump then sees the closed link and runs the death path)."""
        while not self._halt.wait(self.heartbeat_interval):
            now = time.monotonic()
            with self._lock:
                workers = self._live()
            for worker in workers:
                if (now - worker.last_seen > self.heartbeat_timeout
                        or not self._send(worker, ("ping", now))):
                    worker.conn.close()

    def _replace(self, worker: _WorkerHandle, exhausted: bool) -> str:
        """Relaunch a local worker under its name while its budget lasts,
        else re-place its shards and retire the name; give an external
        worker its reconnect window first."""
        if not self._spawn_local:
            timer = threading.Timer(
                self.reconnect_grace, self._grace_expired, args=(worker.key,)
            )
            timer.daemon = True
            self._timers.append(timer)
            timer.start()
            return "waiting"
        stale = self._spawned_procs.get(worker.key)
        if stale is not None and stale.is_alive():
            stale.kill()
        if not exhausted:
            self._spawn_process(worker.key)
            return "respawned"
        self._replace_shards(worker.key)
        return "retired"

    def _grace_expired(self, name: str) -> None:
        with self._lock:
            back = name in self._workers and self._workers[name].live
            stopping = self._stopping or not self._running
        if not back and not stopping:
            self._replace_shards(name)

    def _replace_shards(self, name: str) -> None:
        """Re-place a lost worker's shards onto the least-loaded survivors.

        Every shard it held that is below its replica target gets new
        holders in the placement; the zone resync then rehydrates each
        grown survivor with its new *full* payload set, and only after
        its ack is it offered the shard, so no block for it can overtake
        the rehydration.  A resync cut short by shutdown or timeout
        leaves dispatch waiting for a holder until its own deadline.
        """
        with self._lock:
            survivors = self._live()
            for sid in sorted(self._placement.get(name, ())):
                want = len(survivors) if self.replicas == 0 else self.replicas
                holders = sum(sid in self._placement[w.key] for w in survivors)
                candidates = sorted(
                    (w for w in survivors if sid not in self._placement[w.key]),
                    key=lambda w: (len(self._placement[w.key]), w.key),
                )
                for target in candidates[: max(0, want - holders)]:
                    self._placement[target.key].add(sid)
        try:
            self._sync_fleet()
        except RuntimeError:
            pass

    # ------------------------------------------------------------------
    # observability + fault injection
    # ------------------------------------------------------------------
    def worker_names(self) -> List[str]:
        """Names of the live registered workers."""
        with self._lock:
            return [worker.key for worker in self._live()]

    def drop_connection(self, name: str) -> bool:
        """Abort one worker's connection (fault-injection hook for the
        dropped-connection suites); ``True`` if the worker was live."""
        with self._lock:
            worker = self._workers.get(name)
        if worker is None or not worker.live:
            return False
        worker.conn.close()
        self._on_death(worker)
        return True

    def __len__(self) -> int:
        return len(self._workers)

    def __repr__(self) -> str:
        return (
            f"ClusterCoordinator(workers={self.workers}, "
            f"shards={len(self._payload_of)}, "
            f"replicas={self.replicas or 'all'}, "
            f"address={self._address}, running={self._running})"
        )

