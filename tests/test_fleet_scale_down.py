"""Scale-down never retires the last slot that can serve.

An ejected slot and a spawn slot that has given up both stay in the pool
count, yet neither takes work.  Retiring the one slot that still serves
would leave every submit failing while the pool looks idle, so the
controller would never scale back up.  ``scale_down`` must refuse then,
and may still retire a slot that cannot serve.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.serving import JobStatus, ReplicaSet, ReplicaSupervisor

F = np.array([1, 2, 0, 0, 3])
B = np.array([0, 1, 0, 0, 1])


@pytest.mark.parametrize("ejected, retired", [(0, None), (1, 1)])
def test_scale_down_after_an_eject_keeps_a_serving_slot(ejected, retired):
    replica_set = ReplicaSet(2, workers=1, max_batch_delay=0.001)
    try:
        replica_set.eject(ejected, drain=False)
        assert replica_set.scale_down() == retired
        assert replica_set.accepting
        assert replica_set.solve(F, B, timeout=30.0).status is JobStatus.DONE
    finally:
        replica_set.shutdown()


def test_scale_down_after_a_spawn_slot_gave_up_keeps_a_serving_slot():
    sup = ReplicaSupervisor(
        2,
        service_kwargs=dict(workers=1, max_batch_delay=0.001),
        heartbeat_interval=0.05,
        max_restarts=0,
    ).start()
    try:
        os.kill(sup.handle(0).pid, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while not any(e["event"] == "gave_up" for e in sup.events()):
            assert time.monotonic() < deadline, "slot 0 never gave up"
            time.sleep(0.02)
        assert sup.scale_down() is None
        assert sup.active_replicas == 2
        assert sup.accepting
        assert sup.solve(F, B, timeout=30.0).status is JobStatus.DONE
    finally:
        sup.shutdown(drain=False)
