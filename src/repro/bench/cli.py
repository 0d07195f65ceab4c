"""Command-line entry point: ``python -m repro.bench``.

Examples
--------

Run two experiments over a custom sweep and write ``BENCH_E1.json`` /
``BENCH_E2.json`` into the current directory::

    python -m repro.bench --experiments e1,e2 --sizes 256,1024

Full nightly sweep on the no-audit fast path::

    python -m repro.bench --experiments all --no-audit --out-dir bench-out

Re-run every committed cell and compare it with the committed artifacts
(exit 3 on drift), then write the fresh ones over them (the refresh)::

    python -m repro.bench --check-against .

The artifacts hold only what a re-run reproduces, so a refresh that moves
no charge leaves no diff.  Whether a change is slower is the question of
``python -m repro.bench.ab BASE HEAD``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

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
    parser.add_argument("--seed", type=int, default=None, help="generator seed (default 0)")
    parser.add_argument(
        "--no-audit", action="store_true",
        help="run on the no-audit fast path (skips PRAM conflict validation; "
             "charged cost is unchanged)",
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
        help="compare the run's charged totals and identity columns with the "
             "BENCH_*.json artifacts in DIR, read before anything runs; any "
             "drift exits 3.  Without --sizes, every committed cell re-runs "
             "from its recorded config, so without --dry-run it refreshes DIR",
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
    committed = None
    if args.check_against is not None:
        if not args.sizes and (args.workload is not None or args.seed is not None):
            print("error: without --sizes, --check-against re-runs every committed cell "
                  "as recorded; --workload and --seed apply only with --sizes", file=sys.stderr)
            return 2
        # Read before anything runs: the run may write into the same dir.
        committed, problems = _load_committed(args.check_against, ids)
        if problems:
            for problem in problems:
                print(f"error: {problem}", file=sys.stderr)
            return 3
    configs = []
    for experiment_id in ids:
        spec = get_experiment(experiment_id)
        # Only stamp audit=False into configs of experiments that actually
        # honour it — recording it elsewhere would poison the cell
        # fingerprints with a setting that was never applied.
        audit = False if (args.no_audit and spec.supports_audit) else None
        if args.no_audit and not spec.supports_audit and echo:
            echo(f"[repro.bench] note: {spec.id} has no audit toggle; running as usual")
        if committed is not None and not args.sizes:
            recorded = [SweepConfig.from_dict(cell["config"])
                        for cell in committed[spec.id]["cells"]]
            configs += [c if audit is None else replace(c, audit=audit) for c in recorded]
            continue
        configs.append(
            SweepConfig(
                experiment=spec.id,
                sizes=tuple(args.sizes) if args.sizes and spec.size_arg else None,
                workload=args.workload if spec.supports_workload else None,
                seed=args.seed or 0,
                audit=audit,
            )
        )
    runner = BenchmarkRunner(out_dir=None if args.dry_run else args.out_dir, echo=echo)
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
    if committed is not None:
        problems = _check_against(results, committed, args.check_against, echo)
        if problems:
            for problem in problems:
                print(f"error: {problem}", file=sys.stderr)
            print(
                f"error: the run drifted from the committed artifacts in "
                f"{args.check_against!r} ({len(problems)} mismatches) — perf "
                "changes must keep time/work/charged_work and every identity "
                "column bit-identical",
                file=sys.stderr,
            )
            return 3
        if echo:
            echo(
                f"[repro.bench] check passed: "
                f"{sum(r.artifact['totals']['rows'] for r in results.values())} "
                f"rows match the committed artifacts in {args.check_against!r}"
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


def _load_committed(directory: str, ids: Sequence[str]):
    """``({experiment: document}, problems)`` for the artifacts in
    `directory` of the experiments `ids`."""
    from .artifacts import artifact_filename, load_artifact

    committed: Dict[str, Dict[str, object]] = {}
    problems: List[str] = []
    for experiment_id in ids:
        path = os.path.join(directory, artifact_filename(experiment_id))
        try:
            committed[experiment_id] = load_artifact(path)
        except (OSError, ValueError) as err:
            problems.append(f"cannot check {experiment_id} against {path}: {err}")
    return committed, problems


def _check_against(results, committed, directory: str, echo) -> List[str]:
    """Drift check of `results` vs the `committed` documents read from
    `directory`."""
    from .artifacts import artifact_filename, compare_charged_totals

    problems: List[str] = []
    for result in results.values():
        mismatches = compare_charged_totals(result.artifact, committed[result.experiment])
        problems.extend(f"{result.experiment}: {m}" for m in mismatches)
        if echo and not mismatches:
            path = os.path.join(directory, artifact_filename(result.experiment))
            echo(f"[repro.bench] {result.experiment}: "
                 f"{result.artifact['totals']['rows']} rows match {path}")
    return problems


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
