"""Tests for the analysis helpers: complexity fits, tables, workloads."""
import numpy as np
import pytest

from repro.analysis import (
    best_matching_bound,
    bound_ratio_series,
    circular_string_workloads,
    fit_growth,
    get_workload,
    loglog_slope,
    pivot,
    ratio_is_bounded,
    render_csv,
    render_series,
    render_table,
    string_list_workloads,
    WORKLOADS,
)


def test_bound_ratio_series_flat_for_matching_bound():
    ns = [256, 1024, 4096, 16384]
    values = [7 * n * np.log2(n) for n in ns]
    ratios = bound_ratio_series(ns, values, "n log n")
    assert np.allclose(ratios, 7.0)


def test_best_matching_bound_identifies_growth():
    ns = [2**k for k in range(8, 15)]
    nloglog = [3 * n * np.log2(np.log2(n)) for n in ns]
    nlogn = [3 * n * np.log2(n) for n in ns]
    linear = [5 * n for n in ns]
    assert best_matching_bound(ns, nloglog) == "n log log n"
    assert best_matching_bound(ns, nlogn) == "n log n"
    assert best_matching_bound(ns, linear) == "n"


def test_ratio_is_bounded():
    ns = [256, 1024, 4096]
    assert ratio_is_bounded(ns, [2 * n for n in ns], "n")
    assert not ratio_is_bounded(ns, [n * n for n in ns], "n", factor=4)


def test_fit_growth_and_slope():
    ns = [2**k for k in range(8, 14)]
    values = [4 * n for n in ns]
    fit = fit_growth(ns, values, "n")
    assert abs(fit.slope - 1.0) < 0.05
    assert abs(loglog_slope(ns, values) - 1.0) < 0.05
    with pytest.raises(ValueError):
        fit_growth([10], [10], "n")
    with pytest.raises(KeyError):
        bound_ratio_series(ns, values, "nope")


def test_render_table_and_csv():
    rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.001}]
    text = render_table(rows, title="demo")
    assert "demo" in text and "a" in text and "10" in text
    assert render_table([]) == "(no rows)"
    csv = render_csv(rows)
    assert csv.splitlines()[0] == "a,b"
    assert render_csv([]) == ""


def test_render_series_and_pivot():
    s = render_series([1, 2], [3.0, 6.0], label="demo")
    assert "demo" in s and "#" in s
    rows = [
        {"n": 1, "algorithm": "a", "work": 10},
        {"n": 1, "algorithm": "b", "work": 20},
        {"n": 2, "algorithm": "a", "work": 30},
    ]
    wide = pivot(rows, "n", "algorithm", "work")
    assert wide[0] == {"n": 1, "a": 10, "b": 20}
    assert wide[1] == {"n": 2, "a": 30}


def test_workload_catalogue():
    assert set(WORKLOADS) >= {"mixed", "permutation", "tree_heavy", "equal_cycles"}
    for name in WORKLOADS:
        f, b = get_workload(name).instance(128, seed=1)
        assert len(f) == len(b) > 0
    with pytest.raises(KeyError):
        get_workload("nope")


def test_string_workloads():
    strings = circular_string_workloads(256, seed=0)
    assert set(strings) >= {"random_small_alphabet", "binary", "near_periodic"}
    assert all(len(s) == 256 for s in strings.values())
    lists = string_list_workloads(512, seed=0)
    assert set(lists) >= {"uniform_short", "skewed", "geometric"}
    assert all(len(v) > 0 for v in lists.values())
