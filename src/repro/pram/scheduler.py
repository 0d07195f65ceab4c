"""Brent-scheduling simulation: turning (time, work) into p-processor time.

A PRAM algorithm with parallel time ``T`` and work ``W`` can be executed on
``p`` physical processors in time ``O(W/p + T)`` (Brent's scheduling
principle).  The paper's improvement from ``O(n log n)`` to
``O(n log log n)`` work therefore translates directly into fewer processors
needed to reach the ``O(log n)`` running time — experiment E7 plots exactly
this.

The scheduler here works from the per-step work profile recorded by a
:class:`~repro.pram.metrics.CostCounter` (or from an explicit profile) and
computes the exact Brent bound ``sum_i ceil(w_i / p)`` as well as the
commonly quoted approximation ``W/p + T``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..errors import SchedulingError


@dataclass
class SpeedupPoint:
    """Simulated execution of a fixed algorithm run on ``p`` processors."""

    processors: int
    #: exact Brent time: sum over steps of ceil(step_work / p)
    brent_time: int
    #: the W/p + T approximation (float)
    approx_time: float
    #: speedup relative to one processor (work / brent_time)
    speedup: float
    #: efficiency = speedup / p
    efficiency: float


class StepProfile:
    """Per-step work profile of a simulated PRAM execution.

    Algorithms do not need to record this explicitly: a coarse profile can
    be synthesised from aggregate ``(time, work)`` by assuming the work is
    spread evenly over the steps (``from_aggregate``), which is exact for
    the Brent *approximation* and a good proxy for the exact bound.  Tests
    exercise both constructions.
    """

    def __init__(self, step_work: Sequence[int]) -> None:
        arr = np.asarray(list(step_work), dtype=np.int64)
        if len(arr) and arr.min() < 0:
            raise SchedulingError("step work must be non-negative")
        self.step_work = arr

    @classmethod
    def from_aggregate(cls, time: int, work: int) -> "StepProfile":
        """Spread ``work`` uniformly over ``time`` steps (remainder on the first)."""
        if time < 0 or work < 0:
            raise SchedulingError("time and work must be non-negative")
        if time == 0:
            if work:
                raise SchedulingError("cannot have work with zero time")
            return cls([])
        base = work // time
        rem = work - base * time
        steps = np.full(time, base, dtype=np.int64)
        steps[:rem] += 1
        return cls(steps)

    @property
    def time(self) -> int:
        return int(len(self.step_work))

    @property
    def work(self) -> int:
        return int(self.step_work.sum())

    def brent_time(self, processors: int) -> int:
        """Exact scheduled time on ``processors`` processors."""
        if processors < 1:
            raise SchedulingError("processors must be >= 1")
        if self.time == 0:
            return 0
        return int(np.ceil(self.step_work / processors).astype(np.int64).sum())

    def schedule(self, processors: int) -> SpeedupPoint:
        """Simulate execution on ``processors`` processors."""
        t = self.brent_time(processors)
        w = self.work
        approx = w / processors + self.time
        base = self.brent_time(1)
        speedup = (base / t) if t else 1.0
        return SpeedupPoint(
            processors=processors,
            brent_time=t,
            approx_time=approx,
            speedup=speedup,
            efficiency=speedup / processors,
        )

    def sweep(self, processor_counts: Iterable[int]) -> List[SpeedupPoint]:
        """Schedule over a sweep of processor counts."""
        return [self.schedule(p) for p in processor_counts]


def processors_for_time(profile: StepProfile, target_time: int) -> int:
    """Smallest processor count whose Brent time is at most ``target_time``.

    Binary search over p; returns ``-1`` when even p = work (one processor
    per operation) cannot reach the target (i.e. target < parallel time).
    """
    if target_time < profile.time:
        return -1
    lo, hi = 1, max(1, profile.work)
    if profile.brent_time(hi) > target_time:
        return -1
    while lo < hi:
        mid = (lo + hi) // 2
        if profile.brent_time(mid) <= target_time:
            hi = mid
        else:
            lo = mid + 1
    return lo


def speedup_table(
    profiles: Dict[str, StepProfile],
    processor_counts: Sequence[int],
) -> List[Dict[str, object]]:
    """Build rows comparing several algorithms across a processor sweep.

    Returns a list of dict rows (one per (algorithm, p) pair) convenient for
    :mod:`repro.analysis.tables`.
    """
    rows: List[Dict[str, object]] = []
    for name, profile in profiles.items():
        for point in profile.sweep(processor_counts):
            rows.append(
                {
                    "algorithm": name,
                    "processors": point.processors,
                    "brent_time": point.brent_time,
                    "approx_time": round(point.approx_time, 2),
                    "speedup": round(point.speedup, 3),
                    "efficiency": round(point.efficiency, 4),
                }
            )
    return rows
