"""The open-loop generator and what is built on it: per-phase accounting
of a rate schedule, the capacity-knee rule, and the step load."""
import json
import pathlib
import sys

from repro.serving import CapacityModel, SolveService
from repro.serving.bench import find_knee, run_open_loop, run_step_load

REPO = pathlib.Path(__file__).resolve().parents[1]


def test_two_phase_schedule_accounts_for_every_offered_request():
    schedule = [(40.0, 0.25), (120.0, 0.25)]
    # More worker threads than cores settle responses concurrently, and a
    # short switch interval interleaves them often, so a lost update of a
    # settle counter would show; the small queue sheds some at the door.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with SolveService(workers=4, queue_capacity=4) as backend:
            result = run_open_loop(backend, schedule, size=16, seed=0)
    finally:
        sys.setswitchinterval(interval)
    phases = result["phases"]
    assert [p["offered"] for p in phases] == [round(r * s) for r, s in schedule]
    assert [p["start_s"] for p in phases] == [0.0, 0.25]
    for phase in phases:
        assert phase["admitted"] + phase["rejected"] == phase["offered"]
        assert phase["completed"] + phase["failed"] == phase["admitted"]
        assert phase["lost"] == 0
        assert sum(phase["admitted_by_class"].values()) == phase["admitted"]
        assert sum(phase["shed_by_class"].values()) == phase["rejected"]
        if phase["completed"]:
            assert 0 < phase["p50_ms"] <= phase["p95_ms"] <= phase["p99_ms"]
    # the last request waits for its slot: phase 2's start plus 29 intervals
    assert result["offered_wall_s"] >= 0.25 + 29 / 120.0
    assert result["offered_wall_s"] <= result["wall_s"]


def _cell(rate, *, lost=0, shed_fraction=0.0, p99_ms=10.0):
    return {"offered_rps": rate, "lost": lost, "shed_fraction": shed_fraction,
            "p99_ms": p99_ms}


def test_find_knee_skips_cells_that_lost_shed_too_much_or_missed_the_slo():
    clean = [_cell(50.0), _cell(100.0)]
    assert find_knee(clean) == 100.0
    assert find_knee(clean + [_cell(200.0, lost=1)]) == 100.0
    assert find_knee(clean + [_cell(200.0, shed_fraction=0.06)]) == 100.0
    assert find_knee(clean + [_cell(200.0, shed_fraction=0.06)],
                     max_shed_fraction=0.1) == 200.0
    assert find_knee(clean + [_cell(200.0, p99_ms=600.0)], slo_p99_ms=500.0) == 100.0
    assert find_knee(clean + [_cell(200.0, p99_ms=None)], slo_p99_ms=500.0) == 100.0
    assert find_knee(clean + [_cell(200.0, p99_ms=600.0)]) == 200.0  # no SLO
    # the knee is the highest passing rate, even above a failing one
    assert find_knee([_cell(50.0, lost=1), _cell(100.0)]) == 100.0
    assert find_knee([_cell(50.0, lost=1)]) is None


def test_short_step_load_row_has_the_committed_keys_and_loses_nothing():
    committed = json.loads((REPO / "BENCH_SERVING.json").read_text())
    model = CapacityModel.from_document(
        {"pools": [{"replicas": 1, "knee_rps": 50.0}, {"replicas": 2, "knee_rps": 200.0}]}
    )
    row = run_step_load(
        mode="predictive", capacity_model=model, base_rps=40.0, step_factor=2.0,
        duration=1.0, size=16, max_replicas=2,
    )
    for expected in committed["step_load"]["rows"]:
        assert list(row) == list(expected)
    assert row["lost"] == 0
    assert row["requests"] == round(40.0 * 0.5) + round(80.0 * 0.5)
    assert row["target_pool"] == 2  # 80 rps / 0.8 headroom needs pool 2's knee
    assert row["pool_timeline"][0][1] == 1  # the pool starts at min_replicas
