"""Tests for Brent scheduling (StepProfile, speedup sweeps)."""
import pytest

from repro.errors import SchedulingError
from repro.pram.scheduler import StepProfile, processors_for_time, speedup_table


def test_from_aggregate_spreads_work():
    p = StepProfile.from_aggregate(time=4, work=10)
    assert p.time == 4
    assert p.work == 10
    assert p.step_work.tolist() == [3, 3, 2, 2]


def test_from_aggregate_zero_time_requires_zero_work():
    assert StepProfile.from_aggregate(0, 0).time == 0
    with pytest.raises(SchedulingError):
        StepProfile.from_aggregate(0, 5)


def test_brent_time_limits():
    p = StepProfile([8, 4, 2])
    assert p.brent_time(1) == 14            # one processor: total work
    assert p.brent_time(10**9) == 3         # unlimited processors: parallel time
    assert p.brent_time(4) == 2 + 1 + 1


def test_brent_time_monotone_in_processors():
    p = StepProfile.from_aggregate(20, 1000)
    times = [p.brent_time(k) for k in (1, 2, 4, 8, 16, 64)]
    assert all(a >= b for a, b in zip(times, times[1:]))


def test_schedule_speedup_and_efficiency():
    p = StepProfile([10, 10])
    point = p.schedule(2)
    assert point.brent_time == 10
    assert point.speedup == pytest.approx(2.0)
    assert point.efficiency == pytest.approx(1.0)


def test_processors_for_time():
    p = StepProfile([16, 16])
    assert processors_for_time(p, 2) == 16
    assert processors_for_time(p, 32) == 1
    assert processors_for_time(p, 1) == -1  # below parallel time


def test_invalid_processor_count():
    with pytest.raises(SchedulingError):
        StepProfile([1]).brent_time(0)
    with pytest.raises(SchedulingError):
        StepProfile([-1])


def test_speedup_table_rows():
    rows = speedup_table({"a": StepProfile([4, 4]), "b": StepProfile([2])}, [1, 2])
    assert len(rows) == 4
    assert {r["algorithm"] for r in rows} == {"a", "b"}
    assert all("efficiency" in r for r in rows)
