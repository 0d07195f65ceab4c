"""Structured lifecycle events of the replica fleet.

A :class:`~repro.serving.replicas.ReplicaSet` narrates its lifecycle —
spawns/connects, deaths, re-homing, restarts/reconnects, breaker
transitions — as structured events through one :class:`EventRecorder`,
whichever slot source (spawn, dial) fills its slots, so the schema is
identical across deployment shapes and CI collects every log with the
same tooling.

An event is a flat JSON-able dict::

    {"ts": <unix seconds>, "event": "<kind>", "replica": <id>, ...fields}

Known kinds (the union across slot sources): ``spawn``, ``connect``,
``death``, ``rehome``, ``rehome_failed``, ``orphans_parked``,
``restart_scheduled``, ``restarted``, ``reconnected``,
``heartbeat_stall``, ``breaker_open``, ``breaker_closed``, ``gave_up``,
``child_exit``, ``shutdown``; plus the autoscaling kinds emitted by
:class:`~repro.serving.autoscale.PoolController`: ``scale_up``,
``scale_down``, ``scale_blocked`` (a sustained breach the controller
declined to act on — cooldown or min/max bound — so capacity incidents
are reconstructable from the log alone).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

__all__ = ["EventRecorder"]


class EventRecorder:
    """Append-only event list, optionally mirrored to a JSONL file."""

    def __init__(self, event_log: Optional[str] = None) -> None:
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []
        self._log_path = event_log
        self._log_file = None

    def open(self) -> None:
        """Open the JSONL mirror (no-op without an ``event_log`` path)."""
        if not self._log_path:
            return
        log_dir = os.path.dirname(self._log_path)
        if log_dir:
            os.makedirs(log_dir, exist_ok=True)
        with self._lock:
            if self._log_file is None:
                self._log_file = open(self._log_path, "a", encoding="utf-8")

    def record(
        self, event: str, replica_id: Optional[int] = None, **fields: Any
    ) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"ts": round(time.time(), 4), "event": event}
        if replica_id is not None:
            entry["replica"] = int(replica_id)
        entry.update(fields)
        with self._lock:
            self._events.append(entry)
            if self._log_file is not None:
                self._log_file.write(json.dumps(entry) + "\n")
                self._log_file.flush()
        return entry

    def events(self) -> List[Dict[str, Any]]:
        """Snapshot of every event so far (oldest first)."""
        with self._lock:
            return [dict(e) for e in self._events]

    def close(self) -> None:
        with self._lock:
            log, self._log_file = self._log_file, None
        if log is not None:
            log.close()
