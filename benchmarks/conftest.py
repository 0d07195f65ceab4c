"""Shared configuration for the benchmark harness.

Every file ``bench_eX_*.py`` regenerates one table or figure of the
evaluation plan (DESIGN.md §4) and times one representative configuration
with pytest-benchmark.  Run with::

    pytest benchmarks/ --benchmark-only

The table tests execute through :class:`repro.bench.BenchmarkRunner`, so
each run also writes the machine-readable ``BENCH_E*.json`` artifacts —
the printed tables and the persisted perf trajectory come from one code
path.  They go to ``$BENCH_OUT_DIR`` when set, else to a per-session temp
dir, so a plain test run never rewrites the committed artifacts; refresh
those with ``BENCH_OUT_DIR=. pytest benchmarks/``.
"""
import os

import pytest

from repro.bench import BenchmarkRunner


def pytest_collection_modifyitems(items):
    # benchmarks are ordered by experiment id for readable output
    items.sort(key=lambda item: item.nodeid)


@pytest.fixture(scope="session")
def report():
    """Collector that prints regenerated tables at the end of the session."""
    lines = []
    yield lines
    if lines:
        print("\n" + "\n\n".join(lines))


@pytest.fixture(scope="session")
def bench(tmp_path_factory):
    """Session-wide benchmark runner persisting the BENCH_E*.json trajectory.

    ``BENCH_REPEAT=N`` takes best-of-N wall-clock per cell (how the
    committed ``BENCH_SCALING.json`` figures were captured); the default
    single sample keeps the smoke pass fast.
    """
    out_dir = os.environ.get("BENCH_OUT_DIR") or str(tmp_path_factory.mktemp("bench"))
    return BenchmarkRunner(out_dir=out_dir, repeat=int(os.environ.get("BENCH_REPEAT", "1")))
