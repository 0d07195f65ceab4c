"""Benchmark-runner subsystem: declarative sweeps, checked charged totals.

The subsystem turns the experiment runners of :mod:`repro.analysis` into a
recordable benchmark suite:

* :class:`~repro.bench.config.SweepConfig` — one declarative cell of the
  workload × algorithm × size matrix, content-fingerprinted.
* :class:`~repro.bench.runner.BenchmarkRunner` — executes cells, measures
  wall-clock, renders the EXPERIMENTS tables, and emits schema-versioned
  ``BENCH_E*.json`` artifacts that hold only what a re-run reproduces
  (see :mod:`repro.bench.artifacts`).
* ``python -m repro.bench`` — the CLI front end (:mod:`repro.bench.cli`),
  and ``python -m repro.bench.claims`` — the paper's claims checked on the
  artifacts (:mod:`repro.bench.claims`).
* ``python -m repro.bench.ab BASE HEAD`` — the one speed check: an
  interleaved A/B of the repository benchmark (``perfbench/``) against
  the bounds of ``BENCHMARK.json``, recorded under ``BENCH_RUNS/``
  (:mod:`repro.bench.ab`).

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
]
