"""Tests for the experiment runners (acceptance criteria of DESIGN.md §4)."""
import numpy as np

from repro.analysis import (
    bound_ratio_series,
    run_e1_work_comparison,
    run_e10_model_ablation,
    run_e2_time_scaling,
    run_e3_msp,
    run_e4_string_sorting,
    run_e5_equivalence,
    run_e6_shrink,
    run_e7_speedup,
    run_e8_agreement,
    run_e9_sort_ablation,
)

SWEEP = (256, 1024, 4096)


def _series(rows, algorithm, field):
    return (
        [r["n"] for r in rows if r["algorithm"] == algorithm],
        [r[field] for r in rows if r["algorithm"] == algorithm],
    )


def test_e1_work_ordering_and_shapes():
    rows = run_e1_work_comparison(SWEEP, workload="mixed", seed=0)
    ns, ours = _series(rows, "jaja-ryu", "charged_work")
    _, galley = _series(rows, "galley-iliopoulos", "work")
    _, sequential = _series(rows, "paige-tarjan-bonic", "work")
    # the charged work of our algorithm grows more slowly than the O(n log n)
    # baseline: the ratio ours/galley must shrink across the sweep
    ratio = np.array(ours) / np.array(galley)
    assert ratio[-1] <= ratio[0]
    # sequential linear baseline stays linear
    seq_ratio = bound_ratio_series(ns, sequential, "n")
    assert seq_ratio.max() <= 4 * seq_ratio.min()


def test_e2_time_scaling_log_vs_log_squared():
    rows = run_e2_time_scaling(SWEEP, workload="mixed", seed=0)
    _, ours = _series(rows, "jaja-ryu", "time")
    _, srikant = _series(rows, "srikant", "time")
    growth_ours = ours[-1] / ours[0]
    growth_srikant = srikant[-1] / srikant[0]
    assert growth_ours <= growth_srikant * 1.25


def test_e3_msp_efficient_beats_simple():
    rows = run_e3_msp(SWEEP, string_family="random_small_alphabet", seed=0)
    ns, eff = _series(rows, "efficient-msp", "charged_work")
    _, simple = _series(rows, "simple-msp", "work")
    ratio = np.array(eff) / np.array(simple)
    assert ratio[-1] < ratio[0]


def test_e4_string_sorting_agreement_rows():
    rows = run_e4_string_sorting((512, 2048), family="uniform_short", seed=0)
    assert {r["algorithm"] for r in rows} == {
        "jaja-ryu-sort",
        "doubling-sort",
        "comparison-mergesort",
        "sequential-radix",
    }
    assert all(r["work"] > 0 for r in rows)


def test_e5_equivalence_linear_vs_quadratic():
    rows = run_e5_equivalence((4, 16, 64), length=16, seed=0)
    bb = [r for r in rows if r["algorithm"] == "bb-doubling"]
    ap = [r for r in rows if r["algorithm"] == "all-pairs"]
    # all-pairs work grows quadratically with k, BB stays linear in n=k*l
    assert ap[-1]["work"] / ap[0]["work"] > (bb[-1]["work"] / bb[0]["work"]) * 2
    assert all(1 <= r["classes"] <= 4 for r in bb)


def test_e6_shrink_factor_bound():
    rows = run_e6_shrink((512, 2048), string_family="random_small_alphabet", seed=0)
    for row in rows:
        assert row["max_shrink_factor"] <= 2 / 3 + 0.05
        assert row["rounds"] <= np.log2(np.log2(row["n"])) / np.log2(1.5) + 3


def test_e7_speedup_monotone():
    rows = run_e7_speedup(n=1024, processor_counts=(1, 16, 256), workload="mixed", seed=0)
    ours = [r for r in rows if r["algorithm"] == "jaja-ryu"]
    times = [r["brent_time"] for r in ours]
    assert times[0] >= times[1] >= times[2]


def test_e8_agreement_is_total():
    rows = run_e8_agreement(trials=8, max_n=80, seed=0)
    assert rows[0]["agreement_rate"] == 1.0


def test_e9_ablation_rows():
    rows = run_e9_sort_ablation((256, 1024), workload="mixed", seed=0)
    charged = [r for r in rows if r["cost_model"] == "charged"]
    incurred = [r for r in rows if r["cost_model"] == "incurred"]
    assert len(charged) == len(incurred) == 2
    # incurred work equals charged-run work (same operations performed)
    for c, i in zip(charged, incurred):
        assert c["work"] == i["work"]


def test_e10_winner_invariance():
    rows = run_e10_model_ablation(k=32, length=8, seed=0)
    assert all(r["matches_reference"] for r in rows)
