"""Tests for the PRAM cost counter, spans, budgets and bound helpers."""
import math

import pytest

from repro.errors import BudgetExceededError
from repro.pram.metrics import (
    CostCounter,
    log_time_bound,
    log_work_bound,
    loglog_work_bound,
    sort_time_bound_bhatt,
)


def test_tick_accumulates_time_and_work():
    c = CostCounter()
    c.tick(10)
    c.tick(5, rounds=2)
    assert c.time == 3
    assert c.work == 15
    assert c.charged_work == 15


def test_tick_rejects_negative():
    c = CostCounter()
    with pytest.raises(ValueError):
        c.tick(-1)
    with pytest.raises(ValueError):
        c.tick(1, rounds=-2)


def test_span_nesting_and_lookup():
    c = CostCounter()
    with c.span("outer"):
        c.tick(4)
        with c.span("inner"):
            c.tick(6)
    assert c.span_cost("outer") == (1, 4)
    assert c.span_cost("outer/inner") == (1, 6)
    assert c.span_cost_prefix("outer") == (2, 10)
    assert c.span_cost("missing") == (0, 0)


def test_charge_adapter_separates_incurred_and_charged():
    c = CostCounter()
    c.charge_adapter(
        incurred_work=100, incurred_rounds=10, charged_work=40, charged_rounds=3, label="sort"
    )
    assert c.work == 100
    assert c.charged_work == 40
    assert c.time == 3  # charged rounds are what the paper's bound assumes


def test_work_budget_enforced():
    c = CostCounter(work_budget=10)
    c.tick(8)
    with pytest.raises(BudgetExceededError):
        c.tick(5)


def test_time_budget_enforced():
    c = CostCounter(time_budget=2)
    c.tick(1)
    c.tick(1)
    with pytest.raises(BudgetExceededError):
        c.tick(1)


def test_summary_snapshot_is_immutable_copy():
    c = CostCounter()
    with c.span("phase"):
        c.tick(3)
    s = c.summary()
    c.tick(100)
    assert s.work == 3
    assert s.spans["phase"] == (1, 3)


def test_reset_clears_counters_but_keeps_budget():
    c = CostCounter(work_budget=50)
    c.tick(20)
    c.reset()
    assert c.work == 0 and c.time == 0
    c.tick(49)
    with pytest.raises(BudgetExceededError):
        c.tick(10)


def test_absorb_concurrent_takes_max_time_sum_work():
    main = CostCounter()
    subs = []
    for w in (5, 9, 2):
        sub = CostCounter()
        sub.tick(w, rounds=w)
        subs.append(sub)
    main.absorb_concurrent(subs)
    assert main.time == 9
    assert main.work == 16


def test_absorb_concurrent_empty_is_noop():
    c = CostCounter()
    c.absorb_concurrent([])
    assert c.time == 0 and c.work == 0


@pytest.mark.parametrize("n", [0, 1, 2, 16, 1024, 10**6])
def test_bound_helpers_monotone_and_sane(n):
    assert loglog_work_bound(n) >= n or n == 0
    assert log_work_bound(n) >= loglog_work_bound(n)
    assert log_time_bound(n) >= (1 if n > 0 else 0)
    assert sort_time_bound_bhatt(n) >= (1 if n > 0 else 0)


def test_loglog_bound_growth_matches_formula():
    n = 2 ** 16
    expected = n * math.log2(math.log2(n))
    assert abs(loglog_work_bound(n) - expected) <= n  # within one linear term


def test_charge_tree_closed_form_edge_cases():
    for n in (0, 1):
        c = CostCounter()
        c.charge_tree(n)
        assert (c.time, c.work) == (0, 0)
    c = CostCounter()
    c.charge_tree(2)
    assert (c.time, c.work) == (1, 1)
    c = CostCounter()
    with pytest.raises(ValueError):
        c.charge_tree(-1)


def test_charge_rounds_closed_form():
    c = CostCounter()
    c.charge_rounds(10, 3)
    assert (c.time, c.work) == (3, 30)
    c.charge_rounds(5, 0)  # zero rounds: no-op
    assert (c.time, c.work) == (3, 30)
    with pytest.raises(ValueError):
        c.charge_rounds(-1, 2)
    with pytest.raises(ValueError):
        c.charge_rounds(1, -2)


def test_charge_helpers_respect_spans_and_budgets():
    c = CostCounter(work_budget=5)
    with c.span("phase"):
        with pytest.raises(BudgetExceededError):
            c.charge_tree(100)
    assert c.span_cost("phase") == (7, 99)  # recorded before the raise


def test_wall_profiling_aggregates_exclusive_span_seconds():
    import time

    from repro.pram.metrics import wall_profiling

    with wall_profiling() as profile:
        c = CostCounter()
        with c.span("outer"):
            c.tick(4)
            time.sleep(0.01)
            with c.span("inner"):
                c.tick(6)
                time.sleep(0.02)
        # a second counter contributes to the same span paths
        c2 = CostCounter()
        with c2.span("outer"):
            c2.tick(1)
    spans = profile.spans
    assert set(spans) == {"outer", "outer/inner"}
    assert spans["outer"]["calls"] == 2
    assert spans["outer"]["work"] == 5
    assert spans["outer/inner"]["work"] == 6
    # exclusive wall: the inner sleep must not be attributed to "outer"
    assert spans["outer/inner"]["wall_seconds"] >= 0.015
    assert spans["outer"]["wall_seconds"] < spans["outer/inner"]["wall_seconds"] + 0.02
    rows = profile.rows(limit=1)
    assert rows[0]["span"] == "outer/inner"


def test_kernel_rows_nest_under_the_open_span():
    from repro.pram.metrics import kernel_timing, wall_profiling

    with wall_profiling() as profile:
        with kernel_timing("k"):
            pass
        c = CostCounter()
        with c.span("outer"):
            with c.span("inner"):
                with kernel_timing("k"):
                    with kernel_timing("j"):
                        pass
            with kernel_timing("k"):
                pass
    spans = profile.spans
    assert set(spans) == {
        "[kernel] k",
        "outer",
        "outer/inner",
        "outer/inner/[kernel] k",
        "outer/inner/[kernel] k/[kernel] j",
        "outer/[kernel] k",
    }
    assert all(
        spans[path]["work"] == 0 and spans[path]["calls"] == 1
        for path in spans
        if path.rsplit("/", 1)[-1].startswith("[kernel] ")
    )


def test_wall_profiling_is_off_by_default():
    from repro.pram import metrics

    assert metrics._active_wall_profiler is None
    c = CostCounter()
    with c.span("s"):
        c.tick(1)
    assert metrics._active_wall_profiler is None
