"""Tests for the repro.bench runner subsystem: configs, artifacts, CLI."""
import json

import pytest

from repro.bench import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    BenchmarkRunner,
    SweepConfig,
    artifact_filename,
    experiment_ids,
    get_experiment,
    load_artifact,
    validate_artifact,
)
from repro.bench.cli import main as bench_main


# ----------------------------------------------------------------------
# SweepConfig
# ----------------------------------------------------------------------
def test_sweep_config_fingerprint_is_stable_and_content_sensitive():
    a = SweepConfig("e1", sizes=(256, 1024), workload="mixed", seed=0)
    b = SweepConfig("e1", sizes=[256, 1024], workload="mixed", seed=0)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint().startswith("sha256:")
    assert a.fingerprint() != SweepConfig("e1", sizes=(256, 2048), workload="mixed").fingerprint()
    assert a.fingerprint() != SweepConfig("e1", sizes=(256, 1024), workload="mixed", audit=False).fingerprint()


def test_sweep_config_dict_round_trip():
    config = SweepConfig("e3", sizes=(512,), seed=3, params={"string_family": "binary"})
    clone = SweepConfig.from_dict(json.loads(json.dumps(config.as_dict())))
    assert clone == config
    assert clone.fingerprint() == config.fingerprint()
    assert clone.extra == {"string_family": "binary"}


def test_registry_maps_config_onto_runner_kwargs():
    spec = get_experiment("e5")
    kwargs = spec.build_kwargs(SweepConfig("e5", sizes=(4, 8), seed=2))
    assert kwargs["cycle_counts"] == (4, 8)  # E5's sweep axis is cycle counts
    assert kwargs["length"] == 32 and kwargs["seed"] == 2
    assert "audit" not in kwargs and "workload" not in kwargs

    e1 = get_experiment("e1").build_kwargs(
        SweepConfig("e1", sizes=(64,), workload="permutation", audit=False)
    )
    assert e1["sizes"] == (64,) and e1["workload"] == "permutation" and e1["audit"] is False


def test_registry_rejects_unknown_experiment():
    with pytest.raises(KeyError, match="unknown experiment"):
        get_experiment("e99")
    # e1..e10 in numeric order, then named experiments alphabetically
    assert experiment_ids() == [f"e{i}" for i in range(1, 11)] + ["scaling", "serving"]


# ----------------------------------------------------------------------
# runner + artifacts
# ----------------------------------------------------------------------
def test_runner_writes_schema_versioned_artifact(tmp_path):
    runner = BenchmarkRunner(out_dir=str(tmp_path))
    result = runner.run_experiment([SweepConfig("e1", sizes=(64, 128), workload="mixed")])
    assert result.path == str(tmp_path / "BENCH_E1.json")
    document = load_artifact(result.path)
    assert document["schema"] == SCHEMA_NAME
    assert document["schema_version"] == SCHEMA_VERSION
    assert document["experiment"] == "e1"
    assert document["totals"]["work"] > 0 and document["totals"]["rows"] == len(result.rows)
    cell = document["cells"][0]
    assert cell["fingerprint"] == SweepConfig.from_dict(cell["config"]).fingerprint()
    assert cell["wall_seconds"] > 0
    assert any("E1 (Table 1)" in table for table in document["tables"])


def test_rewriting_an_artifact_preserves_sibling_sections(tmp_path):
    """Regenerating an experiment must not drop sections other tools
    maintain in the same file — e.g. the ``capacity_model`` the serving
    load sweep commits into ``BENCH_SERVING.json``."""
    path = tmp_path / "BENCH_E1.json"
    path.write_text(json.dumps({"capacity_model": {"pools": [{"replicas": 1}]}}))
    runner = BenchmarkRunner(out_dir=str(tmp_path))
    runner.run_experiment([SweepConfig("e1", sizes=(64,), workload="mixed")])
    document = load_artifact(str(path))
    assert document["experiment"] == "e1"
    assert document["capacity_model"] == {"pools": [{"replicas": 1}]}
    # a corrupt pre-existing file must not break the write
    path.write_text("{ not json")
    runner.run_experiment([SweepConfig("e1", sizes=(64,), workload="mixed")])
    assert load_artifact(str(path))["experiment"] == "e1"


def test_runner_merges_cells_of_one_experiment(tmp_path):
    runner = BenchmarkRunner(out_dir=str(tmp_path))
    result = runner.run_experiment([
        SweepConfig("e3", sizes=(64,), params={"string_family": family})
        for family in ("binary", "min_runs")
    ])
    assert len(result.cells) == 2
    families = {r["family"] for r in result.rows}
    assert families == {"binary", "min_runs"}


def test_runner_rejects_mixed_experiments():
    with pytest.raises(ValueError, match="several experiments"):
        BenchmarkRunner().run_experiment([SweepConfig("e1"), SweepConfig("e2")])
    with pytest.raises(ValueError, match="at least one"):
        BenchmarkRunner().run_experiment([])


def test_validate_artifact_rejects_bad_documents(tmp_path):
    runner = BenchmarkRunner(out_dir=None)
    result = runner.run_experiment([SweepConfig("e5", sizes=(4,))])
    good = result.artifact
    validate_artifact(good)  # no raise
    with pytest.raises(ValueError, match="missing keys"):
        validate_artifact({k: v for k, v in good.items() if k != "totals"})
    with pytest.raises(ValueError, match="schema_version"):
        validate_artifact({**good, "schema_version": SCHEMA_VERSION + 1})
    with pytest.raises(ValueError, match="not a"):
        validate_artifact({**good, "schema": "something-else"})
    bad_cell = {**good, "cells": [{"config": {}}]}
    with pytest.raises(ValueError, match="cell 0 is missing"):
        validate_artifact(bad_cell)


def test_artifact_filename():
    assert artifact_filename("e1") == "BENCH_E1.json"
    assert artifact_filename("E10") == "BENCH_E10.json"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_writes_requested_artifacts(tmp_path):
    # acceptance criterion: python -m repro.bench --experiments e1,e2
    # --sizes ... writes schema-versioned BENCH_E1.json / BENCH_E2.json
    rc = bench_main([
        "--experiments", "e1,e2",
        "--sizes", "64,128",
        "--out-dir", str(tmp_path),
        "--quiet",
    ])
    assert rc == 0
    for name in ("BENCH_E1.json", "BENCH_E2.json"):
        document = load_artifact(str(tmp_path / name))
        assert document["schema_version"] == SCHEMA_VERSION
        sizes = document["cells"][0]["config"]["sizes"]
        assert sizes == [64, 128]
    assert not (tmp_path / "BENCH_E3.json").exists()


def test_cli_no_audit_is_recorded_in_the_artifact(tmp_path):
    rc = bench_main(["-e", "e1", "-n", "64", "--no-audit", "-o", str(tmp_path), "-q"])
    assert rc == 0
    document = load_artifact(str(tmp_path / "BENCH_E1.json"))
    assert document["cells"][0]["config"]["audit"] is False


def test_cli_dry_run_writes_nothing(tmp_path):
    rc = bench_main(["-e", "e5", "-n", "4", "--dry-run", "-o", str(tmp_path), "-q"])
    assert rc == 0
    assert list(tmp_path.iterdir()) == []


def test_cli_list(capsys):
    assert bench_main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "e1" in out and "e10" in out


def test_multi_workload_cells_are_labelled_with_every_workload():
    runner = BenchmarkRunner()
    result = runner.run_experiment([
        SweepConfig("e1", sizes=(64,), workload="mixed"),
        SweepConfig("e1", sizes=(64,), workload="permutation"),
    ])
    assert any("workload=mixed,permutation" in table for table in result.tables)


# ----------------------------------------------------------------------
# scaling experiment, --profile, --check-against (engine-overhaul PR)
# ----------------------------------------------------------------------
def test_scaling_experiment_rows_carry_wall_clock():
    runner = BenchmarkRunner()
    result = runner.run_experiment([
        SweepConfig("scaling", sizes=(64, 256), workload="mixed", seed=0)
    ])
    ours = [r for r in result.rows if r["algorithm"] == "jaja-ryu"]
    assert [r["n"] for r in ours] == [64, 256]
    for row in result.rows:
        assert row["wall_seconds"] > 0
        assert row["ns_per_node"] > 0
        assert row["charged_work"] >= row["n"] or row["algorithm"] == "paige-tarjan-bonic"
    assert any("Scaling" in table for table in result.tables)


def test_cli_profile_writes_span_report(tmp_path):
    rc = bench_main([
        "-e", "e5", "-n", "4", "-o", str(tmp_path), "-q", "--profile",
    ])
    assert rc == 0
    report = json.loads((tmp_path / "BENCH_PROFILE.json").read_text())
    assert report["schema"] == "repro.bench.profile"
    spans = {row["span"]: row for row in report["spans"]}
    assert any("partition_cycles" in s for s in spans)
    for row in report["spans"]:
        assert row["wall_seconds"] >= 0
        assert row["calls"] >= 1
        assert {"time", "work", "charged_work"} <= set(row)


def test_cli_check_against_passes_on_identical_run(tmp_path):
    assert bench_main(["-e", "e1", "-n", "64,128", "-o", str(tmp_path), "-q"]) == 0
    # identical rerun (dry) must reproduce the charged totals exactly
    assert bench_main([
        "-e", "e1", "-n", "64,128", "--dry-run", "-q",
        "--check-against", str(tmp_path),
    ]) == 0
    # a partial sweep (the CI perf-smoke shape) still checks against the
    # matching slice of the committed full sweep
    assert bench_main([
        "-e", "e1", "-n", "128", "--dry-run", "-q",
        "--check-against", str(tmp_path),
    ]) == 0


def test_cli_check_against_fails_on_tampered_totals(tmp_path, capsys):
    assert bench_main(["-e", "e5", "-n", "4", "-o", str(tmp_path), "-q"]) == 0
    path = tmp_path / "BENCH_E5.json"
    document = json.loads(path.read_text())
    document["cells"][0]["rows"][0]["work"] += 1
    path.write_text(json.dumps(document))
    rc = bench_main([
        "-e", "e5", "-n", "4", "--dry-run", "-q",
        "--check-against", str(tmp_path),
    ])
    assert rc == 3
    assert "work changed" in capsys.readouterr().err


def test_cli_check_against_fails_when_artifact_missing(tmp_path):
    rc = bench_main([
        "-e", "e5", "-n", "4", "--dry-run", "-q",
        "--check-against", str(tmp_path),
    ])
    assert rc == 3


def test_compare_charged_totals_matches_rows_by_identity():
    from repro.bench.artifacts import compare_charged_totals

    def doc(work, wall):
        return {
            "experiment": "e1",
            "cells": [{
                "fingerprint": "sha256:x",
                "rows": [{"algorithm": "a", "n": 64, "time": 2, "work": work,
                          "charged_work": work, "work/n": work / 64,
                          "wall_seconds": wall}],
            }],
        }

    # wall-clock and derived ratios may move freely; charged totals may not
    assert compare_charged_totals(doc(100, 0.5), doc(100, 9.9)) == []
    problems = compare_charged_totals(doc(101, 0.5), doc(100, 0.5))
    assert problems and any("work changed 100 -> 101" in p for p in problems)
    mismatch = compare_charged_totals(
        {"experiment": "e1", "cells": []}, {"experiment": "e2", "cells": []}
    )
    assert "experiment mismatch" in mismatch[0]


# ----------------------------------------------------------------------
# --repeat (best-of-N wall clock)
# ----------------------------------------------------------------------
def test_runner_repeat_records_count_and_keeps_charged_totals(tmp_path):
    config = SweepConfig("e1", sizes=(64,), workload="mixed")
    once = BenchmarkRunner().run_cell(config)
    thrice = BenchmarkRunner(repeat=3).run_cell(config)
    assert once.repeat == 1 and once.as_dict()["repeat"] == 1
    assert thrice.repeat == 3 and thrice.as_dict()["repeat"] == 3
    # charged totals are deterministic — repeats change only wall-clock
    def totals(cell):
        return [(r["algorithm"], r["time"], r["work"], r["charged_work"]) for r in cell.rows]

    assert totals(once) == totals(thrice)
    assert thrice.fingerprint == once.fingerprint


def test_runner_rejects_nonpositive_repeat():
    with pytest.raises(ValueError):
        BenchmarkRunner(repeat=0)


def test_cli_repeat_is_recorded_in_artifact_cells(tmp_path):
    rc = bench_main(["-e", "e1", "-n", "64", "--repeat", "2", "-o", str(tmp_path), "-q"])
    assert rc == 0
    document = load_artifact(str(tmp_path / "BENCH_E1.json"))
    assert document["cells"][0]["repeat"] == 2


def test_cli_rejects_unknown_kernel(tmp_path, capsys):
    # integer sorts have one host realisation, so there is no kernel to pick
    with pytest.raises(SystemExit) as info:
        bench_main(["-e", "e1", "-n", "64", "--kernel", "argsort", "-o", str(tmp_path), "-q"])
    assert info.value.code == 2
    assert "unrecognized arguments: --kernel" in capsys.readouterr().err


def test_cli_profile_reports_per_kernel_rows(tmp_path):
    rc = bench_main(["-e", "e1", "-n", "256", "--profile", "-o", str(tmp_path), "-q"])
    assert rc == 0
    document = json.loads((tmp_path / "BENCH_PROFILE.json").read_text())
    # kernel rows nest under the span that ran them: ".../[kernel] radix"
    kernel_rows = [
        row for row in document["spans"]
        if row["span"].rsplit("/", 1)[-1].startswith("[kernel] ")
    ]
    assert any(row["span"].endswith("/[kernel] radix") for row in kernel_rows)
    assert all(row["span"] != "[kernel] radix" for row in kernel_rows)
    # kernels run under the cost adapter: wall seconds, but zero charged cost
    assert all(row["work"] == 0 and row["charged_work"] == 0 for row in kernel_rows)
