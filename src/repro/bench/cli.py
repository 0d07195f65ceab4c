"""Command-line entry point: ``python -m repro.bench``.

Examples
--------

Run two experiments over a custom sweep and write ``BENCH_E1.json`` /
``BENCH_E2.json`` into the current directory::

    python -m repro.bench --experiments e1,e2 --sizes 256,1024

Full nightly sweep on the no-audit fast path::

    python -m repro.bench --experiments all --no-audit --out-dir bench-out
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from .config import SweepConfig
from .registry import experiment_ids, get_experiment
from .runner import BenchmarkRunner


def _parse_ids(raw: str) -> List[str]:
    if raw.strip().lower() == "all":
        return experiment_ids()
    ids = [piece.strip().lower() for piece in raw.split(",") if piece.strip()]
    if not ids:
        raise argparse.ArgumentTypeError("no experiment ids given")
    for experiment_id in ids:
        try:
            get_experiment(experiment_id)
        except KeyError as err:
            raise argparse.ArgumentTypeError(str(err).strip('"'))
    return ids


def _parse_sizes(raw: str) -> List[int]:
    try:
        sizes = [int(piece) for piece in raw.split(",") if piece.strip()]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad size list {raw!r}: {err}")
    if not sizes or any(s <= 0 for s in sizes):
        raise argparse.ArgumentTypeError("sizes must be positive integers")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the experiment suite and persist BENCH_E*.json artifacts.",
    )
    parser.add_argument(
        "--experiments", "-e", type=_parse_ids, default=None,
        help="comma-separated experiment ids (e1..e10) or 'all' (default: all)",
    )
    parser.add_argument(
        "--sizes", "-n", type=_parse_sizes, default=None,
        help="comma-separated size sweep; applied to every experiment that "
             "has a sweep axis (E5 interprets it as cycle counts)",
    )
    parser.add_argument(
        "--workload", "-w", default=None,
        help="named workload for the experiments that accept one",
    )
    parser.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    parser.add_argument(
        "--no-audit", action="store_true",
        help="run on the no-audit fast path (skips PRAM conflict validation; "
             "charged cost is unchanged)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="run every cell N times and keep the best wall-clock sample "
             "(recorded in the artifact cells; charged totals are "
             "deterministic and identical across repeats)",
    )
    parser.add_argument(
        "--out-dir", "-o", default=".",
        help="directory for BENCH_E*.json artifacts (default: current directory)",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="run and print, but do not write artifacts",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="collect per-span wall seconds next to the charged cost and "
             "write BENCH_PROFILE.json (so perf work can see where real "
             "time goes, not just where work is charged)",
    )
    parser.add_argument(
        "--check-against", default=None, metavar="DIR",
        help="compare the run's charged time/work/charged_work against the "
             "committed BENCH_E*.json artifacts in DIR; any drift fails "
             "the run (exit code 3) — perf changes must not move totals",
    )
    parser.add_argument(
        "--run-name", default=None, metavar="NAME",
        help="record this sweep as a named run: artifacts land in "
             "<runs-dir>/NAME/ next to a manifest.json capturing the "
             "config and git state, and the run is appended to the runs "
             "index (re-using a name overwrites that run)",
    )
    parser.add_argument(
        "--runs-dir", default="BENCH_RUNS", metavar="DIR",
        help="directory holding the named-run history (default: BENCH_RUNS)",
    )
    parser.add_argument(
        "--trend-check", action="store_true",
        help="after a named run, compare its throughput/p99/wall trend "
             "against the newest other run in the index; regressions "
             "beyond --trend-tolerance exit with code 4 "
             "(requires --run-name)",
    )
    parser.add_argument(
        "--trend-tolerance", type=float, default=0.5, metavar="F",
        help="allowed fractional degradation before the trend check "
             "flags a regression (default 0.5 = 50%%)",
    )
    parser.add_argument("--quiet", "-q", action="store_true", help="suppress table output")
    parser.add_argument(
        "--list", action="store_true", dest="list_experiments",
        help="list registered experiments and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_experiments:
        for experiment_id in experiment_ids():
            spec = get_experiment(experiment_id)
            print(f"{spec.id:>4}  {spec.title}")
        return 0

    if args.workload is not None:
        from ..analysis.workloads import get_workload

        try:
            get_workload(args.workload)
        except KeyError as err:
            print(f"error: {str(err).strip(chr(34))}", file=sys.stderr)
            return 2

    ids = args.experiments if args.experiments is not None else experiment_ids()
    echo = None if args.quiet else print
    configs = []
    for experiment_id in ids:
        spec = get_experiment(experiment_id)
        # Only stamp audit=False into configs of experiments that actually
        # honour it — recording it elsewhere would poison the cell
        # fingerprints with a setting that was never applied.
        audit = False if (args.no_audit and spec.supports_audit) else None
        if args.no_audit and not spec.supports_audit and echo:
            echo(f"[repro.bench] note: {spec.id} has no audit toggle; running as usual")
        configs.append(
            SweepConfig(
                experiment=spec.id,
                sizes=tuple(args.sizes) if args.sizes and spec.size_arg else None,
                workload=args.workload if spec.supports_workload else None,
                seed=args.seed,
                audit=audit,
            )
        )
    if args.repeat < 1:
        print("error: --repeat must be a positive integer", file=sys.stderr)
        return 2
    if args.trend_check and args.run_name is None:
        print("error: --trend-check requires --run-name", file=sys.stderr)
        return 2
    registry = None
    if args.run_name is not None:
        if args.dry_run:
            print(
                "error: --run-name records a persistent run; drop --dry-run",
                file=sys.stderr,
            )
            return 2
        from .runs import RunRegistry

        registry = RunRegistry(args.runs_dir)
        try:
            run_dir = registry.prepare(args.run_name)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        # a named run owns its artifacts: everything lands in the run dir
        args.out_dir = run_dir
        if echo:
            echo(f"[repro.bench] named run {args.run_name!r} -> {run_dir}")
    runner = BenchmarkRunner(
        out_dir=None if args.dry_run else args.out_dir,
        echo=echo,
        repeat=args.repeat,
    )
    if args.profile:
        from ..pram.metrics import wall_profiling

        with wall_profiling() as profile:
            results = runner.run(configs)
        profile_path = _emit_profile(profile, args, ids, echo)
    else:
        results = runner.run(configs)
        profile_path = None
    written = [r.path for r in results.values() if r.path]
    if profile_path:
        written.append(profile_path)
    if echo and written:
        echo("\n[repro.bench] artifacts: " + ", ".join(written))
    if args.check_against is not None:
        problems = _check_against(results, args.check_against, echo)
        if problems:
            for problem in problems:
                print(f"error: {problem}", file=sys.stderr)
            print(
                f"error: charged totals drifted from the committed artifacts "
                f"in {args.check_against!r} ({len(problems)} mismatches) — "
                "perf changes must keep time/work/charged_work bit-identical",
                file=sys.stderr,
            )
            return 3
        if echo:
            echo(
                f"[repro.bench] check passed: charged totals match the "
                f"committed artifacts in {args.check_against!r}"
            )
    if registry is not None:
        manifest = registry.finalize(
            args.run_name,
            config={
                "experiments": list(ids),
                "sizes": list(args.sizes) if args.sizes else None,
                "workload": args.workload,
                "seed": args.seed,
                "no_audit": bool(args.no_audit),
                "repeat": args.repeat,
            },
            artifacts=[
                os.path.basename(r.path) for r in results.values() if r.path
            ],
        )
        if echo:
            echo(
                f"[repro.bench] recorded run {args.run_name!r} "
                f"({len(manifest['artifacts'])} artifacts, "
                f"commit {manifest['git']['commit'][:12]})"
            )
        if args.trend_check:
            return _trend_check(registry, args, echo)
    return 0


def _trend_check(registry, args, echo) -> int:
    """Compare the just-recorded run against the newest other run."""
    from .runs import EXIT_TREND_REGRESSION, check_trend, load_run

    baseline_name = registry.latest_run(excluding=args.run_name)
    if baseline_name is None:
        if echo:
            echo(
                f"[repro.bench] trend check: no earlier run in "
                f"{args.runs_dir!r}; nothing to compare"
            )
        return 0
    try:
        report = check_trend(
            load_run(registry.run_dir(args.run_name)),
            load_run(registry.run_dir(baseline_name)),
            tolerance=args.trend_tolerance,
        )
    except (OSError, ValueError, KeyError) as err:
        print(f"error: trend check failed to load runs: {err}", file=sys.stderr)
        return 2
    if report.compared == 0:
        print(
            f"error: trend check found no comparable rows between "
            f"{args.run_name!r} and baseline {baseline_name!r}",
            file=sys.stderr,
        )
        return 2
    for problem in report.regressions:
        print(f"regression: {problem}", file=sys.stderr)
    if report.regressions:
        print(
            f"error: {len(report.regressions)} trend regression(s) vs "
            f"baseline run {baseline_name!r} "
            f"(tolerance {args.trend_tolerance:g})",
            file=sys.stderr,
        )
        return EXIT_TREND_REGRESSION
    if echo:
        echo(
            f"[repro.bench] trend ok: {report.compared} comparisons vs "
            f"baseline {baseline_name!r} within tolerance "
            f"{args.trend_tolerance:g}"
        )
    return 0


def _emit_profile(profile, args, ids: List[str], echo) -> Optional[str]:
    """Render the span wall-time table and persist BENCH_PROFILE.json."""
    import json
    import os

    from ..analysis.tables import render_table

    rows = profile.rows()
    display = [
        {
            "span": r["span"],
            "wall_seconds": round(float(r["wall_seconds"]), 6),
            "time": r["time"],
            "work": r["work"],
            "charged_work": r["charged_work"],
            "calls": r["calls"],
        }
        for r in rows
    ]
    if echo:
        echo("\n" + render_table(
            display[:25],
            title="Profile: exclusive wall seconds by span (top 25) vs charged cost",
        ))
    if args.dry_run:
        return None
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "BENCH_PROFILE.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "schema": "repro.bench.profile",
                "schema_version": 1,
                "experiments": list(ids),
                "spans": display,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    return path


def _check_against(results, directory: str, echo) -> List[str]:
    """Charged-totals drift check of `results` vs committed artifacts."""
    import os

    from .artifacts import artifact_filename, compare_charged_totals, load_artifact

    problems: List[str] = []
    for result in results.values():
        path = os.path.join(directory, artifact_filename(result.experiment))
        if not os.path.exists(path):
            problems.append(f"no committed artifact {path} to check {result.experiment} against")
            continue
        try:
            committed = load_artifact(path)
        except ValueError as err:
            problems.append(f"{path}: {err}")
            continue
        mismatches = compare_charged_totals(result.artifact, committed)
        problems.extend(f"{result.experiment}: {m}" for m in mismatches)
        if echo and not mismatches:
            echo(f"[repro.bench] {result.experiment}: totals match {path}")
    return problems


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
