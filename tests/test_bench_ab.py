"""``python -m repro.bench.ab``: the verdict rule on synthetic samples, and
the orchestration on a throwaway repository whose benchmark only records
where and in what order it ran."""
import json
import subprocess
import sys

import pytest

from repro.bench import ab

SPEC = {
    "command": [sys.executable, "perfbench/run.py"],
    "run_seconds": 1,
    "workloads": [{"name": "forest"}, {"name": "serve"}],
    "end_to_end": [
        {"name": "ns_per_node", "unit": "ns/node", "better": "lower", "bound": 0.25},
        {"name": "charged_work_per_node", "unit": "ops/node", "better": "lower", "bound": 0.05},
        {"name": "throughput", "unit": "rps", "better": "higher", "bound": 0.25},
    ],
}

#: Ten pairs of host noise, about +-6% around 1000.
NOISE = [1000, 1040, 970, 1010, 990, 1060, 950, 1020, 980, 1000]


def _result(ns, charged=150.0, failed=0, attempted=20):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"ns_per_node": {"value": ns, "unit": "ns/node"},
                        "charged_work_per_node": {"value": charged, "unit": "ops/node"},
                        "throughput": {"value": 1e6 / ns, "unit": "rps"}}}


def _judge(base, head):
    results = {w["name"]: {"base": base, "head": head} for w in SPEC["workloads"]}
    return ab.judge(SPEC, results)


def test_an_a_a_comparison_has_no_metric_worse():
    base = [_result(ns) for ns in NOISE]
    head = [_result(ns) for ns in NOISE[3:] + NOISE[:3]]
    lines, code = _judge(base, head)
    assert code == 0
    assert "No end-to-end metric is worse on any workload." in lines
    verdict = ab.compare_metric(NOISE, NOISE[3:] + NOISE[:3], bound=0.25)
    assert not verdict.worse and not verdict.unresolved and not verdict.claimable


def test_a_slowdown_of_1_3_in_every_pair_is_worse():
    verdict = ab.compare_metric(NOISE, [1.3 * x for x in NOISE], bound=0.25)
    assert verdict.worse and verdict.won == 0
    assert verdict.ratio == pytest.approx(1.3)
    # the same slowdown read as a rate that should be higher
    rate = ab.compare_metric([1 / x for x in NOISE], [1 / (1.3 * x) for x in NOISE],
                             bound=0.2, better="higher")
    assert rate.worse
    lines, code = _judge([_result(ns) for ns in NOISE], [_result(1.3 * ns) for ns in NOISE])
    assert code == 1
    assert any(line.startswith("WORSE: forest ns_per_node") for line in lines)


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [600, 1400, 700, 1300, 800, 1200, 650, 1350, 1000, 1000]
    verdict = ab.compare_metric(wide, wide[::-1], bound=0.25)
    assert verdict.unresolved and not verdict.worse
    assert verdict.label == "unresolved"
    # unless every run of the change beats every run of the parent
    assert not ab.compare_metric(wide, [500] * 10, bound=0.25).unresolved


def test_a_gain_is_claimable_only_with_nine_of_ten_pairs_and_a_gap_beyond_the_spread():
    faster = [0.7 * x for x in NOISE]
    assert ab.compare_metric(NOISE, faster, bound=0.25).claimable
    eight = faster[:8] + NOISE[8:]
    assert ab.compare_metric(NOISE, eight, bound=0.25).won == 8
    assert not ab.compare_metric(NOISE, eight, bound=0.25).claimable
    assert not ab.compare_metric(NOISE, [x - 1 for x in NOISE], bound=0.25).claimable


def test_an_exact_count_that_differs_in_one_pair_exits_1():
    base = [_result(ns) for ns in NOISE]
    head = [_result(ns, charged=150.0 if i else 150.5) for i, ns in enumerate(NOISE)]
    lines, code = _judge(base, head)
    assert code == 1
    assert "WORSE: forest charged_work_per_node: differs in 1 of 10 pairs" in lines


def test_one_more_failed_operation_exits_1():
    base = [_result(ns) for ns in NOISE]
    head = [_result(ns, failed=int(i == 4)) for i, ns in enumerate(NOISE)]
    lines, code = _judge(base, head)
    assert code == 1
    assert any("head failed 1/200 operations" in line for line in lines)
    assert _judge(head, head)[1] == 0


def test_the_failure_rule_compares_shares_not_counts():
    base = [_result(ns, failed=int(i == 4)) for i, ns in enumerate(NOISE)]
    # one failure in twice the operations is a smaller share
    head = [_result(ns, failed=int(i == 4), attempted=40) for i, ns in enumerate(NOISE)]
    assert _judge(base, head)[1] == 0
    # three in twice the operations is a larger one
    head = [_result(ns, failed=3 * (i == 4), attempted=40) for i, ns in enumerate(NOISE)]
    lines, code = _judge(base, head)
    assert code == 1
    assert any("head failed 3/400 operations" in line for line in lines)


def test_one_more_run_not_correct_exits_1():
    base = [_result(ns) for ns in NOISE]
    head = [_result(ns) for ns in NOISE]
    head[7] = {**head[7], "correct": False}
    lines, code = _judge(base, head)
    assert code == 1
    assert "Failed operations: base 0/200, head 0/200; runs not correct: base 0, head 1." in lines
    assert any("head failed 0/200 operations and 1 runs" in line for line in lines)


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------
#: A stand-in for perfbench: it reports canned metrics, and logs which
#: tree ran it (``src/side``), whose benchmark it is (``VERSION``) and
#: from which directory.
FAKE_RUN = """\
import json, os, sys
VERSION = {version!r}
side, mode = open("src/side").read().split()
with open({log!r}, "a") as fh:
    fh.write(json.dumps([side, VERSION, os.path.basename(os.getcwd()), sys.argv[1:]]) + "\\n")
if side == "head" and mode == "exit1":
    sys.exit(1)
if side == "head" and mode == "nojson":
    print("a table, then no result line")
    sys.exit(0)
print(json.dumps({{"correct": True, "attempted": 3, "failed": 0, "metrics": {{
    name: {{"value": 100.0 if name == "charged_work_per_node" else 1000.0, "unit": "u"}}
    for name in ("ns_per_node", "charged_work_per_node", "throughput")}}}}))
"""


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], check=True, capture_output=True)


@pytest.fixture
def fake_repo(tmp_path, monkeypatch):
    repo, log = tmp_path / "repo", tmp_path / "runs.log"
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(ab.tempfile, "tempdir", str(tmp_path / "tmp"))
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src").mkdir()
    _git(repo, "init", "-q")

    def commit(version, side, mode="ok"):
        (repo / "perfbench" / "run.py").write_text(FAKE_RUN.format(version=version, log=str(log)))
        (repo / "BENCHMARK.json").write_text(json.dumps({**SPEC, "version": version}))
        (repo / "src" / "side").write_text(f"{side} {mode}\n")
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", version)

    commit("base-benchmark", "base")
    return repo, log, commit


def _runs(log):
    return [json.loads(line) for line in log.read_text().splitlines()]


def test_the_trees_trade_directories_every_pair_and_the_first_side_every_other(
        fake_repo, monkeypatch, capsys):
    repo, log, commit = fake_repo
    commit("head-benchmark", "head")
    monkeypatch.chdir(repo)
    assert ab.main(["HEAD~1", "HEAD", "--seed", "7"]) == 0
    runs = _runs(log)
    assert len(runs) == ab.PAIRS * 2 * 2
    # both trees run BASE's benchmark with the seed and BASE's run window
    assert {version for _, version, _, _ in runs} == {"base-benchmark"}
    assert {tuple(argv[2:]) for *_, argv in runs} == {("--seed", "7", "--seconds", "1",
                                                       "--trace", "0")}
    forest = [run for run in runs if run[3][1] == "forest"]
    pairs = [forest[i:i + 2] for i in range(0, len(forest), 2)]
    base_dirs = [next(d for side, _, d, _ in pair if side == "base") for pair in pairs]
    assert base_dirs == ["a", "b"] * 5
    assert all({d for _, _, d, _ in pair} == {"a", "b"} for pair in pairs)
    assert [pair[0][0] for pair in pairs] == ["base", "base", "head", "head"] * 2 + ["base"] * 2
    # the record: both commits, every run's result line, the report
    (record,) = (repo / "BENCH_RUNS").iterdir()
    manifest = json.loads((record / "manifest.json").read_text())
    commits = [subprocess.run(["git", "-C", str(repo), "rev-parse", rev], check=True,
                              capture_output=True, text=True).stdout.strip()
               for rev in ("HEAD~1", "HEAD")]
    assert record.name == f"{commits[0][:12]}-{commits[1][:12]}-seed7"
    assert [manifest["base"]["commit"], manifest["head"]["commit"]] == commits
    assert manifest["exit_code"] == 0 and manifest["pairs"] == ab.PAIRS
    recorded = (record / "runs.jsonl").read_text().splitlines()
    assert len(recorded) == len(runs)
    assert "### `serve` (10 pairs)" in (record / "report.md").read_text()
    assert "No end-to-end metric is worse on any workload." in capsys.readouterr().out
    assert list((repo.parent / "tmp").iterdir()) == []  # the exports are gone


@pytest.mark.parametrize("mode, why", [("exit1", "exit 1"), ("nojson", "no result line")])
def test_a_run_that_fails_or_prints_no_result_ends_the_a_b_with_exit_2(
        fake_repo, monkeypatch, capsys, mode, why):
    repo, log, commit = fake_repo
    commit("head-benchmark", "head", mode)
    monkeypatch.chdir(repo)
    assert ab.main(["HEAD~1", "HEAD"]) == 2
    err = capsys.readouterr().err
    assert "error: head run of forest, pair 1" in err and why in err
    assert len(_runs(log)) == 2
    assert not (repo / "BENCH_RUNS").exists()
    assert list((repo.parent / "tmp").iterdir()) == []


def test_an_unknown_revision_exits_2(fake_repo, monkeypatch, capsys):
    repo, _, _ = fake_repo
    monkeypatch.chdir(repo)
    assert ab.main(["HEAD", "no-such-rev"]) == 2
    assert "no-such-rev" in capsys.readouterr().err


def test_a_base_without_a_benchmark_exits_2(fake_repo, monkeypatch, capsys):
    repo, log, _ = fake_repo
    _git(repo, "rm", "-q", "BENCHMARK.json")
    _git(repo, "commit", "-q", "-m", "no benchmark")
    monkeypatch.chdir(repo)
    assert ab.main(["HEAD", "HEAD~1"]) == 2
    assert "BENCHMARK.json" in capsys.readouterr().err
    assert not log.exists() and not (repo / "BENCH_RUNS").exists()
    assert list((repo.parent / "tmp").iterdir()) == []


def test_outside_a_git_repository_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert ab.main(["HEAD~1", "HEAD"]) == 2
    assert "inside a git repository" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    # the pairs, the window, the workloads and the bounds are BASE's
    (["--pairs", "20"], "--pairs"),
    (["--seconds", "5"], "--seconds"),
    (["--workload", "forest"], "--workload"),
    (["--bound", "0.5"], "--bound"),
    (["--seed", "-1"], "--seed"),
], ids=["pairs", "seconds", "workload", "bound", "negative-seed"])
def test_the_command_takes_only_base_head_and_a_seed(argv, named, capsys):
    with pytest.raises(SystemExit) as info:
        ab.main(["HEAD~1", "HEAD", *argv])
    assert info.value.code == 2
    assert named in capsys.readouterr().err
