"""E2 — "Figure 1": parallel time scaling (O(log n) vs O(log^2 n)).

Paper claim reproduced: Theorem 5.1's O(log n) running time; the
Srikant-style CREW baseline needs Θ(log² n) rounds.
"""
import pytest

from repro.bench import SweepConfig
from repro.graphs.generators import random_function
from repro.partition import srikant_partition

SWEEP = (256, 1024, 4096, 16384)


def test_generate_figure_e2(report, bench):
    result = bench.run_experiment([SweepConfig("e2", sizes=SWEEP, workload="mixed", seed=0)])
    rows = result.rows
    report.extend(result.tables)
    # acceptance: rounds/log n stays bounded for ours, grows for srikant
    ours_ratio = [r["time/log n"] for r in rows if r["algorithm"] == "jaja-ryu"]
    srik = [r["time/log^2 n"] for r in rows if r["algorithm"] == "srikant"]
    assert max(ours_ratio) <= 4 * min(ours_ratio)
    assert max(srik) <= 4 * min(srik)


@pytest.mark.benchmark(group="e2-time")
def test_bench_srikant_baseline(benchmark):
    f, b = random_function(4096, num_labels=3, seed=0)
    benchmark(lambda: srikant_partition(f, b))
