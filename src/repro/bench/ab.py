"""Interleaved A/B of the repository benchmark: ``python -m repro.bench.ab BASE HEAD``.

Answers one question: is HEAD slower than BASE on any end-to-end metric
that BASE's ``BENCHMARK.json`` declares?  Both revisions are exported with
``git archive`` into two sibling directories whose paths have equal
length, and the HEAD tree gets BASE's ``perfbench/`` and
``BENCHMARK.json``, so the two sides differ only in the program.  Every
workload runs :data:`PAIRS` pairs at the file's ``run_seconds`` with
``--trace 0``.  The trees trade directories every pair, because a run's
``peak_rss_mib`` and CPU time have been seen to follow the directory it
runs in, and the side that runs first changes every other pair, so
placement and order both cancel.

Per workload and metric (the ten-pair rule):

* **worse**: HEAD's median is worse than BASE's by more than the
  metric's ``bound``;
* **unresolved**: BASE's interquartile range is wider than the bound,
  unless every HEAD run beats every BASE run;
* **gain claimable**: HEAD wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than BASE's
  interquartile range.

The counts in :data:`EXACT` must be equal in every pair.  Exit 0: nothing
worse; 1: a metric worse, an exact count that differs, or a larger share
of failed operations (or more incorrect runs) at HEAD; 2: a revision
could not be read, or a run failed or printed no result line.  A finished
A/B lands in ``BENCH_RUNS/<base>-<head>-seed<N>/``: ``manifest.json``
(both commits, the settings, the host, the exit code and wall time),
``runs.jsonl`` (every run's result line) and ``report.md`` (the tables
printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Pairs per workload: the fewest in which a gain can win nine tenths.
PAIRS = 10

#: End-to-end metrics that are counts, not timings: one seed, one value.
EXACT = ("charged_work_per_node", "pram_rounds")

SIDES = ("base", "head")

#: Where finished A/Bs are recorded, relative to the repository root.
RUNS_DIR = "BENCH_RUNS"

Result = Mapping[str, object]


class RunFailed(Exception):
    """A benchmark run exited non-zero, timed out or printed no result line."""


# ----------------------------------------------------------------------
# verdicts: pure functions of the samples
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Verdict:
    """One timed metric of one workload, BASE against HEAD."""

    base: Tuple[float, float, float]  # Q1, median, Q3
    head: Tuple[float, float, float]
    ratio: float  # median of the per-pair HEAD / BASE ratios
    won: int  # pairs HEAD won, ties counting for neither side
    worse: bool
    unresolved: bool
    claimable: bool

    @property
    def label(self) -> str:
        if self.worse:
            return "**worse**"
        label = "unresolved" if self.unresolved else "no worse"
        return label + ("; gain claimable" if self.claimable else "")


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """Q1, median, Q3."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))  # type: ignore[return-value]


def compare_metric(base: Sequence[float], head: Sequence[float], *,
                   bound: float, better: str = "lower") -> Verdict:
    """The verdict on one metric from its per-pair samples."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (head - base) > 0: HEAD worse
    b, h = _quartiles(base), _quartiles(head)
    spread = b[2] - b[0]
    won = sum(1 for x, y in zip(base, head) if sign * (y - x) < 0)
    every_run_better = max(sign * y for y in head) < min(sign * x for x in base)
    return Verdict(
        base=b, head=h,
        ratio=statistics.median(y / x for x, y in zip(base, head) if x),
        won=won,
        worse=sign * (h[1] - b[1]) > bound * abs(b[1]),
        unresolved=spread > bound * abs(b[1]) and not every_run_better,
        claimable=10 * won >= 9 * len(base) and sign * (b[1] - h[1]) > spread,
    )


def _num(value: float) -> str:
    return f"{value:,.1f}" if abs(value) >= 100 else f"{value:.4g}"


def judge(spec: Mapping[str, object],
          results: Mapping[str, Mapping[str, Sequence[Result]]]) -> Tuple[List[str], int]:
    """The report lines and exit code of an A/B.

    ``results[workload][side]`` lists the result lines of one side's runs
    in pair order; ``spec`` is BASE's ``BENCHMARK.json``.
    """
    lines: List[str] = []
    bad: List[str] = []
    for workload in (w["name"] for w in spec["workloads"]):  # type: ignore[union-attr]
        runs = results[workload]
        pairs = len(runs["base"])
        lines += ["", f"### `{workload}` ({pairs} pairs)", "",
                  "| metric | base | head | ratio | head better in | verdict |",
                  "|---|---:|---:|---:|---:|---|"]
        for metric in spec["end_to_end"]:  # type: ignore[union-attr]
            name = metric["name"]
            base = [float(r["metrics"][name]["value"]) for r in runs["base"]]
            head = [float(r["metrics"][name]["value"]) for r in runs["head"]]
            if name in EXACT:
                equal = sum(1 for x, y in zip(base, head) if x == y)
                if equal < pairs:
                    bad.append(f"{workload} {name}: differs in {pairs - equal} of {pairs} pairs")
                values = sorted(set(base + head))
                lines.append(
                    f"| `{name}` | {statistics.median(base):.10g} | {statistics.median(head):.10g} "
                    f"| {statistics.median(y / x for x, y in zip(base, head) if x):.4g} "
                    f"| equal in {equal}/{pairs} | "
                    + ("exact: equal |" if equal == pairs else
                       f"**exact: differs** ({', '.join(f'{v:.10g}' for v in values)}) |"))
                continue
            verdict = compare_metric(base, head, bound=metric["bound"], better=metric["better"])
            if verdict.worse:
                bad.append(f"{workload} {name}: median {_num(verdict.head[1])} against "
                           f"{_num(verdict.base[1])}, worse by more than {metric['bound']:g}")
            lines.append(
                f"| `{name}` | {_num(verdict.base[1])} [{_num(verdict.base[0])}, {_num(verdict.base[2])}] "
                f"| {_num(verdict.head[1])} [{_num(verdict.head[0])}, {_num(verdict.head[2])}] "
                f"| {verdict.ratio:.3f} | {verdict.won}/{pairs} | {verdict.label} |")
        failed = {side: (sum(int(r["failed"]) for r in runs[side]),
                         sum(int(r["attempted"]) for r in runs[side]),
                         sum(1 for r in runs[side] if r["correct"] is not True))
                  for side in SIDES}
        (bf, ba, bi), (hf, ha, hi) = failed["base"], failed["head"]
        lines += ["", f"Failed operations: base {bf}/{ba}, head {hf}/{ha}; "
                      f"runs not correct: base {bi}, head {hi}."]
        if hf * ba > bf * ha or hi > bi:
            bad.append(f"{workload}: head failed {hf}/{ha} operations and {hi} runs, "
                       f"base {bf}/{ba} and {bi}")
    lines += [""] + ([f"WORSE: {problem}" for problem in bad] or
                     ["No end-to-end metric is worse on any workload."])
    return lines, 1 if bad else 0


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------
def _git(repo: str, *args: str) -> str:
    return subprocess.run(["git", "-C", repo, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(repo: str, commit: str, dest: str) -> None:
    archive = dest + ".tar"
    _git(repo, "archive", "--format=tar", "-o", archive, commit)
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-f", archive, "-C", dest], check=True)
    os.remove(archive)


def _run(tree: str, command: Sequence[str], workload: str, seed: int,
         seconds: float) -> Dict[str, object]:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    try:
        # perfbench ends a hung run itself; this bounds one that never starts
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                              timeout=seconds + 300)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"no exit within {seconds + 300:g} s") from None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        result = None
    if proc.returncode != 0 or result is None:
        stderr = proc.stderr.strip().splitlines()[-3:]
        raise RunFailed(f"exit {proc.returncode}"
                        + ("" if result is not None else ", no result line")
                        + "".join(f"\n    {line}" for line in stderr))
    return result


def run_ab(repo: str, base_rev: str, head_rev: str, seed: int) -> int:
    """Run the A/B in ``repo`` and record it; returns the exit code."""
    started = time.time()
    try:
        commits = {side: _git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}")
                   for side, rev in zip(SIDES, (base_rev, head_rev))}
        spec = json.loads(_git(repo, "show", f"{commits['base']}:BENCHMARK.json"))
    except subprocess.CalledProcessError as err:
        print(f"error: {' '.join(err.cmd)}: {err.stderr.strip()}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = float(spec["run_seconds"])
    print(f"A/B base {commits['base'][:12]} ({base_rev}) against head "
          f"{commits['head'][:12]} ({head_rev}): seed {seed}, {PAIRS} pairs of "
          f"{', '.join(workloads)} at {seconds:g} s", flush=True)
    root = tempfile.mkdtemp(prefix="repro-ab-")
    try:
        slots = (os.path.join(root, "a"), os.path.join(root, "b"))  # equal length
        try:
            for side, slot in zip(SIDES, slots):
                _export(repo, commits[side], slot)
        except subprocess.CalledProcessError as err:
            print(f"error: cannot export {side} ({commits[side][:12]}): {err}", file=sys.stderr)
            return 2
        shutil.rmtree(os.path.join(slots[1], "perfbench"), ignore_errors=True)
        shutil.copytree(os.path.join(slots[0], "perfbench"), os.path.join(slots[1], "perfbench"))
        shutil.copy2(os.path.join(slots[0], "BENCHMARK.json"), os.path.join(slots[1], "BENCHMARK.json"))
        where = dict(zip(SIDES, slots))
        runs = []
        for pair in range(1, PAIRS + 1):
            if pair > 1:  # the trees trade directories every pair
                swap = os.path.join(root, "swap")
                os.rename(slots[0], swap)
                os.rename(slots[1], slots[0])
                os.rename(swap, slots[1])
                where = {"base": where["head"], "head": where["base"]}
            order = SIDES if (pair - 1) // 2 % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    clock = time.perf_counter()
                    try:
                        result = _run(where[side], spec["command"], workload, seed, seconds)
                    except RunFailed as err:
                        print(f"error: {side} run of {workload}, pair {pair}, in "
                              f"{where[side]}: {err}", file=sys.stderr)
                        return 2
                    runs.append({"pair": pair, "workload": workload, "side": side,
                                 "dir": os.path.basename(where[side]),
                                 "seconds": round(time.perf_counter() - clock, 1),
                                 "result": result})
                print(f"pair {pair}/{PAIRS} {workload}: " + ", ".join(
                    f"{run['side']} {run['seconds']:g} s" for run in runs[-2:]), flush=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    lines, code = judge(spec, {w: {side: [r["result"] for r in runs
                                          if r["workload"] == w and r["side"] == side]
                                   for side in SIDES} for w in workloads})
    elapsed = time.time() - started
    out = os.path.join(repo, RUNS_DIR, f"{commits['base'][:12]}-{commits['head'][:12]}-seed{seed}")
    os.makedirs(out, exist_ok=True)
    manifest = {
        "schema": "repro.bench.ab",
        "schema_version": 1,
        "base": {"rev": base_rev, "commit": commits["base"]},
        "head": {"rev": head_rev, "commit": commits["head"]},
        "seed": seed,
        "pairs": PAIRS,
        "run_seconds": seconds,
        "command": spec["command"],
        "workloads": workloads,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "wall_seconds": round(elapsed, 1),
        "exit_code": code,
    }
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    with open(os.path.join(out, "runs.jsonl"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(run, sort_keys=True) + "\n" for run in runs)
    with open(os.path.join(out, "report.md"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines).lstrip("\n") + "\n")
    print("\n".join(lines))
    print(f"\nrecorded in {os.path.relpath(out, repo)} ({elapsed / 60:.1f} min)")
    return code


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("--seed must be >= 0")
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.ab",
        description="Is HEAD slower than BASE on any end-to-end metric of "
                    "BASE's BENCHMARK.json? Interleaved perfbench pairs.")
    parser.add_argument("base", metavar="BASE", help="the revision to compare against")
    parser.add_argument("head", metavar="HEAD", help="the revision under test")
    parser.add_argument("--seed", type=_seed, default=1,
                        help="perfbench instance seed of every run (default 1)")
    args = parser.parse_args(argv)
    try:
        repo = _git(os.getcwd(), "rev-parse", "--show-toplevel")
    except subprocess.CalledProcessError:
        print("error: run python -m repro.bench.ab inside a git repository", file=sys.stderr)
        return 2
    return run_ab(repo, args.base, args.head, args.seed)


if __name__ == "__main__":
    sys.exit(main())
