"""Benchmark-runner subsystem: declarative sweeps, persisted perf trajectory.

The subsystem turns the experiment runners of :mod:`repro.analysis` into a
recordable benchmark suite:

* :class:`~repro.bench.config.SweepConfig` — one declarative cell of the
  workload × algorithm × size matrix, content-fingerprinted.
* :class:`~repro.bench.runner.BenchmarkRunner` — executes cells, measures
  wall-clock, renders the EXPERIMENTS tables, and emits schema-versioned
  ``BENCH_E*.json`` artifacts (see :mod:`repro.bench.artifacts`).
* ``python -m repro.bench`` — the CLI front end (:mod:`repro.bench.cli`),
  and ``python -m repro.bench.claims`` — the paper's claims checked on the
  artifacts (:mod:`repro.bench.claims`).
* :class:`~repro.bench.runs.RunRegistry` — named runs
  (``--run-name``): per-run result directories with a config +
  git-state manifest, an ordered run index (``BENCH_RUNS/``), and a
  trend checker (``python -m repro.bench.runs check``) that exits
  non-zero on throughput/latency regressions beyond a tolerance.

The CLI runs through :class:`BenchmarkRunner`, so printed tables and
persisted JSON always come from the same execution.
"""

from .artifacts import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    artifact_filename,
    build_artifact,
    load_artifact,
    validate_artifact,
    write_artifact,
)
from .config import SweepConfig
from .registry import REGISTRY, ExperimentSpec, experiment_ids, get_experiment
from .runner import BenchmarkRunner, CellResult, ExperimentResult

# The runs surface is exported lazily (PEP 562): importing it eagerly
# would shadow ``python -m repro.bench.runs`` with a second module copy
# (runpy's "found in sys.modules" warning).
_RUNS_EXPORTS = ("RunRegistry", "TrendReport", "check_trend", "git_state", "load_run")


def __getattr__(name):
    if name in _RUNS_EXPORTS:
        from . import runs

        return getattr(runs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "SweepConfig",
    "BenchmarkRunner",
    "CellResult",
    "ExperimentResult",
    "ExperimentSpec",
    "REGISTRY",
    "get_experiment",
    "experiment_ids",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "artifact_filename",
    "build_artifact",
    "write_artifact",
    "load_artifact",
    "validate_artifact",
    "RunRegistry",
    "TrendReport",
    "check_trend",
    "git_state",
    "load_run",
]
