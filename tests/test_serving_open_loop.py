"""The open-loop generator and what is built on it: per-phase accounting
of a rate schedule, the capacity-knee rule, the capacity sweep and the
``--loadgen`` command that commits its ``capacity_model``."""
import json
import os
import sys

from repro.serving import SolveService
from repro.serving.__main__ import main as serving_main
from repro.serving.bench import find_knee, run_capacity_sweep, run_open_loop

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def test_find_knee_ignores_cell_order_and_is_none_without_cells():
    cells = [_cell(200.0, shed_fraction=0.5), _cell(50.0), _cell(100.0)]
    assert find_knee(cells) == find_knee(list(reversed(cells))) == 100.0
    assert find_knee([]) is None


def _check_cell(cell):
    assert cell["requests"] == round(cell["offered_rps"] * cell["duration_s"])
    assert cell["admitted"] + cell["rejected"] == cell["requests"]
    assert cell["shed"] == cell["requests"] - cell["completed"]
    assert cell["shed_fraction"] == round(cell["shed"] / cell["requests"], 4)
    assert cell["lost"] == 0
    assert sum(cell["admitted_by_class"].values()) == cell["admitted"]
    assert sum(cell["shed_by_class"].values()) == cell["rejected"]


def test_capacity_sweep_accounts_for_every_cell_and_derives_each_knee():
    model = run_capacity_sweep(replica_counts=(1, 2), rates_rps=(20.0, 40.0),
                               duration=0.25, size=16, workers=1)
    assert model["replica_counts"] == [1, 2]
    assert model["rates_rps"] == [20.0, 40.0]
    cells = model["cells"]
    assert [(c["replicas"], c["offered_rps"]) for c in cells] == [
        (1, 20.0), (1, 40.0), (2, 20.0), (2, 40.0)]
    for cell in cells:
        _check_cell(cell)
    assert [p["replicas"] for p in model["pools"]] == [1, 2]
    for pool in model["pools"]:
        mine = [c for c in cells if c["replicas"] == pool["replicas"]]
        assert pool["knee_rps"] == find_knee(
            mine, slo_p99_ms=model["slo_p99_ms"],
            max_shed_fraction=model["max_shed_fraction"])
        assert pool["lost"] == 0
        assert pool["max_achieved_rps"] == max(c["achieved_rps"] for c in mine)


def test_committed_capacity_model_knees_follow_from_its_cells():
    with open(os.path.join(REPO_ROOT, "BENCH_SERVING.json"), encoding="utf-8") as fh:
        model = json.load(fh)["capacity_model"]
    assert [p["replicas"] for p in model["pools"]] == model["replica_counts"]
    for pool in model["pools"]:
        mine = [c for c in model["cells"] if c["replicas"] == pool["replicas"]]
        assert [c["offered_rps"] for c in mine] == model["rates_rps"]
        for cell in mine:
            _check_cell(cell)
        assert pool["knee_rps"] == find_knee(
            mine, slo_p99_ms=model["slo_p99_ms"],
            max_shed_fraction=model["max_shed_fraction"])
        assert pool["lost"] == 0


def test_loadgen_merges_its_capacity_model_into_bench_out(tmp_path):
    out = tmp_path / "BENCH_SERVING.json"
    out.write_text(json.dumps({"experiment": "serving", "cells": [1, 2],
                               "capacity_model": {"stale": True}}))
    code = serving_main(["--loadgen", "--sweep", "--sweep-replicas", "1",
                         "--sweep-rates", "10,20", "--duration", "0.2",
                         "--size", "16", "--workers", "1",
                         "--bench-out", str(out), "--quiet"])
    assert code == 0
    document = json.loads(out.read_text())
    # the serving experiment's own keys survive; only the model is replaced
    assert document["experiment"] == "serving" and document["cells"] == [1, 2]
    model = document["capacity_model"]
    assert "stale" not in model
    assert model["replica_counts"] == [1] and model["rates_rps"] == [10.0, 20.0]
    assert [c["offered_rps"] for c in model["cells"]] == [10.0, 20.0]


def test_loadgen_without_sweep_measures_one_cell_at_the_serving_pool(tmp_path):
    out = tmp_path / "capacity.json"
    code = serving_main(["--loadgen", "--rate", "20", "--replicas", "2",
                         "--duration", "0.2", "--size", "16", "--workers", "1",
                         "--bench-out", str(out), "--quiet"])
    assert code == 0
    model = json.loads(out.read_text())["capacity_model"]
    assert model["replica_counts"] == [2] and model["rates_rps"] == [20.0]
    (cell,) = model["cells"]
    _check_cell(cell)
    assert (cell["replicas"], cell["requests"]) == (2, 4)


def test_loadgen_refuses_to_share_the_process_with_a_server(capsys):
    assert serving_main(["--loadgen", "--http", "--port", "0", "--quiet"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err
