"""The spawn slot source: replicas as supervised ``repro-serve worker`` children.

A :class:`ReplicaSupervisor` is a :class:`~repro.serving.replicas.ReplicaSet`
whose :class:`SpawnSource` fills each slot with a ``repro-serve worker``
child process — a full
:class:`~repro.serving.service.SolveService` behind a
:class:`~repro.serving.framing.FramedIngress` on a loopback port — proxied
by a :class:`~repro.serving.handles.ProcessReplicaHandle`.  Routing,
re-homing and parking of a dead child's orphans, scaling and the event
log all belong to the set; the source adds only the process lifecycle:

* **Spawn** — children are started with disjoint seed blocks and announce
  their ephemeral port through a port file; the parent connects a framed
  client and subscribes to wire heartbeats.
* **Watch** — a monitor thread runs three detectors: a dead framed
  connection (crash, ``kill -9``) surfaces instantly through the client's
  reader thread; an exited process whose socket lingers is force-detected
  via ``poll()``; a child that is *alive but silent* past
  ``heartbeat_timeout`` is killed so it re-enters the crash path.  In all
  three cases routing has already health-gated the replica out: a stale
  heartbeat reads as not-accepting before the supervisor reacts.
* **Restart** — a crashed child is reaped and respawned with exponential
  backoff (``restart_backoff * 2**(restarts-1)``, capped), up to
  ``max_restarts`` per slot; a slot that keeps dying is given up rather
  than allowed to flap forever.
* **Retire** — a scaled-down child gets SIGTERM only after the set has
  drained it, so scale-down never loses an accepted job.

The source's own events are ``spawn``, ``heartbeat_stall``,
``restart_scheduled``, ``restarted``, ``gave_up`` and ``child_exit``;
see :mod:`repro.serving.events` for the whole schema.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import ServiceError
from .handles import Orphan, ProcessReplicaHandle
from .policy import BackoffPolicy
from .replicas import ReplicaSet

#: service_kwargs key -> the ``repro-serve worker`` flag that carries it to a child.
_KWARG_FLAGS: Dict[str, str] = {
    "workers": "--workers",
    "max_batch_size": "--batch-size",
    "max_batch_delay": "--batch-delay-ms",   # seconds -> ms at encode time
    "queue_capacity": "--queue-capacity",
    "default_algorithm": "--algorithm",
}


def _worker_argv(service_kwargs: Dict[str, Any]) -> List[str]:
    """Translate SolveService kwargs into ``repro-serve worker`` flags."""
    argv: List[str] = []
    for key, value in service_kwargs.items():
        flag = _KWARG_FLAGS.get(key)
        if flag is None:
            raise ValueError(
                f"service kwarg {key!r} has no worker flag; "
                f"supported: {sorted(_KWARG_FLAGS)}"
            )
        if key == "max_batch_delay":
            value = float(value) * 1e3
        argv.extend([flag, str(value)])
    return argv


def _reap(proc: subprocess.Popen) -> None:
    """Collect a child's exit status and release its pipe."""
    if proc.stdin is not None:
        try:
            proc.stdin.close()
        except OSError:
            pass
    try:
        proc.wait(timeout=10.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


@dataclass
class _Child:
    """One slot's process state (guarded by the source's lock)."""

    replica_id: int
    proc: Optional[subprocess.Popen] = None
    handle: Optional[ProcessReplicaHandle] = None
    restarts: int = 0
    restart_at: Optional[float] = None   #: monotonic instant of the next respawn
    spawned: int = 0                     #: total spawns (port-file nonce)


class SpawnSource:
    """Slot source spawning one ``repro-serve worker`` child per slot.

    ``service_kwargs`` reach each child's ``SolveService`` as CLI flags;
    replica ``i`` is seeded ``seed + 1000 * i`` exactly as the in-process
    source seeds it, so a process deployment draws the same RANDOM-winner
    streams as an in-process one.  ``auth_secret``, when given, is the
    framed secret every child requires and every handle presents; it
    reaches the children through their environment
    (``REPRO_AUTH_SECRET``), never their command line.  Without it the
    children require none, whatever this process's environment holds.
    """

    keeps_spares = False

    def __init__(
        self,
        *,
        service_kwargs: Optional[Dict[str, Any]] = None,
        seed: int = 0,
        host: str = "127.0.0.1",
        heartbeat_interval: float = 0.05,
        heartbeat_timeout: Optional[float] = None,
        restart_backoff: float = 0.25,
        restart_backoff_cap: float = 5.0,
        max_restarts: int = 5,
        spawn_timeout: float = 30.0,
        shutdown_timeout: float = 30.0,
        auth_secret: Optional[str] = None,
    ) -> None:
        self.service_kwargs = dict(service_kwargs or {})
        self.auth_secret = auth_secret
        _worker_argv(self.service_kwargs)  # validate keys before any spawn
        self.seed = int(seed)
        self.host = host
        self.heartbeat_interval = float(heartbeat_interval)
        if not 0.001 <= self.heartbeat_interval <= 60.0:
            raise ValueError(
                f"heartbeat_interval must be in [0.001, 60] seconds, "
                f"got {self.heartbeat_interval}"
            )
        self.heartbeat_timeout = (
            float(heartbeat_timeout) if heartbeat_timeout is not None
            else max(1.0, 20.0 * self.heartbeat_interval)
        )
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError(
                f"heartbeat_timeout ({self.heartbeat_timeout}s) must exceed "
                f"heartbeat_interval ({self.heartbeat_interval}s)"
            )
        #: One backoff curve for the whole restart schedule (jitter-free so
        #: restart timing stays deterministic for the event-log tests).
        self._restart_policy = BackoffPolicy(
            base=float(restart_backoff), cap=float(restart_backoff_cap),
            multiplier=2.0, jitter=0.0,
        )
        self.max_restarts = int(max_restarts)
        self.spawn_timeout = float(spawn_timeout)
        self.shutdown_timeout = float(shutdown_timeout)
        self._lock = threading.RLock()
        self._children: Dict[int, _Child] = {}
        self._fleet: Optional[ReplicaSet] = None
        self._monitor: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._closing = False
        self._tmpdir: Optional[str] = None

    # ------------------------------------------------------------------
    # the slot-source contract
    # ------------------------------------------------------------------
    def open(self, fleet: ReplicaSet, replica_id: int) -> ProcessReplicaHandle:
        """Spawn slot ``replica_id``'s child and connect its handle."""
        with self._lock:
            self._fleet = fleet
            if self._tmpdir is None:
                self._tmpdir = tempfile.mkdtemp(prefix="repro-replicas-")
            child = self._children[replica_id] = _Child(replica_id)
            if self._monitor is None:
                self._monitor = threading.Thread(
                    target=self._monitor_loop, name="repro-replica-supervisor",
                    daemon=True,
                )
                self._monitor.start()
        return self._spawn(child)

    def release(self, replica_id: int, handle: ProcessReplicaHandle) -> None:
        """SIGTERM a scaled-down child after the set drained it, then reap."""
        with self._lock:
            child = self._children[replica_id]
            proc, child.proc = child.proc, None
            child.restart_at = None
        if proc is not None:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=self.shutdown_timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
            _reap(proc)
            self._record("child_exit", replica_id, pid=proc.pid,
                         exit_code=proc.returncode, retired=True)
        handle.close()

    def close(self, handles: List[ProcessReplicaHandle], *, drain: bool,
              timeout: Optional[float]) -> None:
        """Stop every child — SIGTERM-drain by default, SIGKILL otherwise.

        A SIGTERM'd worker stops admission, flushes its queue through its
        batcher, pushes every pending answer over the framed connection,
        and exits 0 — so a draining shutdown loses nothing.  The monitor
        is stopped *first* so no restart races the teardown.
        """
        with self._lock:
            self._closing = True
            children = list(self._children.values())
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        budget = self.shutdown_timeout if timeout is None else float(timeout)
        deadline = time.monotonic() + budget
        procs = [(c.replica_id, c.proc) for c in children if c.proc is not None]
        for _, proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM if drain else signal.SIGKILL)
        for replica_id, proc in procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
            _reap(proc)
            self._record("child_exit", replica_id, pid=proc.pid,
                         exit_code=proc.returncode)
        for handle in handles:
            handle.close()
        if self._tmpdir is not None:
            shutil.rmtree(self._tmpdir, ignore_errors=True)

    # ------------------------------------------------------------------
    # spawning
    # ------------------------------------------------------------------
    def _record(self, event: str, replica_id: Optional[int] = None, **fields: Any) -> None:
        assert self._fleet is not None
        self._fleet.record(event, replica_id, **fields)

    def _child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        # The child must import the same `repro` this parent runs, even
        # when the parent was launched via a src-layout checkout.
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_dir if not existing else src_dir + os.pathsep + existing
        # `worker --auth-secret` defaults to this variable: the child then
        # requires exactly the secret its handle presents.
        env.pop("REPRO_AUTH_SECRET", None)
        if self.auth_secret is not None:
            env["REPRO_AUTH_SECRET"] = self.auth_secret
        return env

    def _spawn(self, child: _Child) -> ProcessReplicaHandle:
        """Start one worker process and connect its framed handle."""
        child.spawned += 1
        port_file = os.path.join(
            self._tmpdir, f"replica-{child.replica_id}-{child.spawned}.port"
        )
        argv = [
            sys.executable, "-m", "repro.serving", "worker", "--quiet",
            "--host", self.host, "--port", "0",
            "--port-file", port_file,
            "--seed", str(self.seed + 1000 * child.replica_id),
            *_worker_argv(self.service_kwargs),
        ]
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,   # child exits on EOF if this parent dies
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=self._child_env(),
        )
        deadline = time.monotonic() + self.spawn_timeout
        port: Optional[int] = None
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                _reap(proc)
                raise ServiceError(
                    f"replica {child.replica_id} worker exited with code "
                    f"{proc.returncode} before announcing its port"
                )
            try:
                with open(port_file, "r", encoding="utf-8") as fh:
                    text = fh.read().strip()
                if text:
                    port = int(text)
                    break
            except (FileNotFoundError, ValueError):
                pass
            time.sleep(0.01)
        if port is None:
            proc.kill()
            _reap(proc)
            raise ServiceError(
                f"replica {child.replica_id} worker did not announce a port "
                f"within {self.spawn_timeout}s"
            )
        try:
            handle = ProcessReplicaHandle(
                child.replica_id, self.host, port,
                heartbeat_interval=self.heartbeat_interval,
                stale_after=self.heartbeat_timeout,
                on_death=self._lost,
                on_health_event=lambda h, kind: self._record(kind, h.replica_id),
                auth_secret=self.auth_secret,
            )
        except BaseException:
            proc.kill()
            _reap(proc)
            raise
        handle.pid = proc.pid
        handle.restarts = child.restarts
        child.proc = proc
        child.handle = handle
        self._record("spawn", child.replica_id, pid=proc.pid, port=port,
                     restarts=child.restarts)
        return handle

    # ------------------------------------------------------------------
    # death, monitor and restart
    # ------------------------------------------------------------------
    def _lost(self, handle: ProcessReplicaHandle, orphans: List[Orphan]) -> None:
        """A child's framed connection dropped (crash, kill, stall-kill)."""
        with self._lock:
            child = self._children[handle.replica_id]
            proc = None
            if not self._closing:
                # A scaled-down child's proc was already taken by release().
                proc, child.proc = child.proc, None
        exit_code = None
        if proc is not None:
            _reap(proc)
            exit_code = proc.returncode
        assert self._fleet is not None
        if self._fleet.replica_lost(handle, orphans, pid=handle.pid, exit_code=exit_code):
            self._schedule_restart(child)

    def _schedule_restart(self, child: _Child, **fields: Any) -> None:
        with self._lock:
            child.restarts += 1
            delay = None
            if child.restarts <= self.max_restarts:
                delay = self._restart_policy.delay(child.restarts - 1)
                child.restart_at = time.monotonic() + delay
        if delay is None:
            assert self._fleet is not None
            self._fleet.replica_gave_up(child.replica_id, restarts=child.restarts - 1)
            return
        self._record("restart_scheduled", child.replica_id,
                     delay=round(delay, 4), attempt=child.restarts, **fields)

    def _monitor_loop(self) -> None:
        tick = max(0.01, self.heartbeat_interval / 2.0)
        while not self._stop.wait(tick):
            now = time.monotonic()
            with self._lock:
                children = list(self._children.values())
            for child in children:
                with self._lock:
                    if self._closing:
                        return
                    handle, proc = child.handle, child.proc
                    due = child.restart_at is not None and now >= child.restart_at
                if due:
                    self._restart(child)
                    continue
                if handle is None or proc is None or not handle.live:
                    continue
                if proc.poll() is not None:
                    # The process is gone but its socket has not signalled
                    # yet (e.g. a forked grandchild holds the fd open).
                    handle.mark_lost()
                elif handle.heartbeat_age > self.heartbeat_timeout:
                    # Alive but silent: kill it so the crash path (death ->
                    # re-home -> restart) takes over.  Routing already
                    # stopped placing work here when the heartbeat staled.
                    self._record("heartbeat_stall", child.replica_id, pid=handle.pid,
                                 age=round(handle.heartbeat_age, 4))
                    proc.kill()

    def _restart(self, child: _Child) -> None:
        with self._lock:
            if self._closing:
                return
            child.restart_at = None
        try:
            handle = self._spawn(child)
        except ServiceError as exc:
            self._schedule_restart(child, error=str(exc))
            return
        assert self._fleet is not None
        if not self._fleet.replica_back(child.replica_id, "restarted", handle,
                                        pid=handle.pid):
            self.release(child.replica_id, handle)  # scaled down meanwhile


class ReplicaSupervisor(ReplicaSet):
    """N replica processes: a :class:`ReplicaSet` over a :class:`SpawnSource`.

    Parameters mirror the set's where they overlap; the rest configure
    the spawn source.  Children spawn at construction; :meth:`start`
    returns the running supervisor.
    """

    def __init__(
        self,
        replicas: int = 3,
        *,
        service_kwargs: Optional[Dict[str, Any]] = None,
        seed: int = 0,
        host: str = "127.0.0.1",
        heartbeat_interval: float = 0.05,
        heartbeat_timeout: Optional[float] = None,
        restart_backoff: float = 0.25,
        restart_backoff_cap: float = 5.0,
        max_restarts: int = 5,
        spill_inflight: Optional[int] = None,
        auto_eject_after: int = 3,
        spawn_timeout: float = 30.0,
        shutdown_timeout: float = 30.0,
        event_log: Optional[str] = None,
        auth_secret: Optional[str] = None,
    ) -> None:
        super().__init__(
            replicas,
            source=SpawnSource(
                service_kwargs=service_kwargs, seed=seed, host=host,
                heartbeat_interval=heartbeat_interval,
                heartbeat_timeout=heartbeat_timeout,
                restart_backoff=restart_backoff,
                restart_backoff_cap=restart_backoff_cap,
                max_restarts=max_restarts, spawn_timeout=spawn_timeout,
                shutdown_timeout=shutdown_timeout, auth_secret=auth_secret,
            ),
            spill_inflight=spill_inflight,
            auto_eject_after=auto_eject_after,
            event_log=event_log,
        )
