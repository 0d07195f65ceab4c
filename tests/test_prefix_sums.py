"""Tests for scans, reductions, compaction and segmented scans."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.primitives import (
    compact,
    compact_indices,
    enumerate_true,
    prefix_sums,
    reduce_min,
    reduce_sum,
    segment_ids,
    segmented_prefix_sums,
)


def test_inclusive_and_exclusive_scan(machine, rng):
    x = rng.integers(-5, 10, 200)
    assert np.array_equal(prefix_sums(x, machine=machine), np.cumsum(x))
    excl = prefix_sums(x, machine=machine, inclusive=False)
    assert excl[0] == 0
    assert np.array_equal(excl, np.cumsum(x) - x)


def test_scan_cost_is_logarithmic_rounds_linear_work(machine):
    n = 1024
    prefix_sums(np.ones(n, dtype=np.int64), machine=machine)
    assert machine.time <= 4 * int(np.log2(n)) + 4
    assert machine.work <= 4 * n


def test_empty_scan(machine):
    assert len(prefix_sums(np.array([], dtype=np.int64), machine=machine)) == 0


def test_reduce_sum_and_min(machine, rng):
    x = rng.integers(0, 100, 77)
    assert reduce_sum(x, machine=machine) == int(x.sum())
    assert reduce_min(x, machine=machine) == int(x.min())
    assert reduce_sum([], machine=machine) == 0
    with pytest.raises(ValueError):
        reduce_min([], machine=machine)


def test_compact_preserves_order(machine, rng):
    x = rng.integers(0, 50, 300)
    mask = rng.random(300) < 0.4
    assert np.array_equal(compact(x, mask, machine=machine), x[mask])
    assert np.array_equal(compact_indices(mask, machine=machine), np.flatnonzero(mask))


def test_compact_length_mismatch(machine):
    with pytest.raises(ValueError):
        compact([1, 2, 3], [True], machine=machine)


def test_enumerate_true(machine):
    mask = np.array([True, False, True, True, False])
    ranks, k = enumerate_true(mask, machine=machine)
    assert k == 3
    assert ranks[mask].tolist() == [0, 1, 2]


def test_segmented_prefix_sums_basic(machine):
    vals = np.array([1, 2, 3, 4, 5, 6])
    heads = np.array([True, False, True, False, False, True])
    got = segmented_prefix_sums(vals, heads, machine=machine)
    assert got.tolist() == [1, 3, 3, 7, 12, 6]
    excl = segmented_prefix_sums(vals, heads, machine=machine, inclusive=False)
    assert excl.tolist() == [0, 1, 0, 3, 7, 0]


def test_segmented_requires_leading_head(machine):
    with pytest.raises(ValueError):
        segmented_prefix_sums([1, 2], [False, True], machine=machine)


def test_segment_ids(machine):
    heads = np.array([True, False, False, True, True, False])
    assert segment_ids(heads, machine=machine).tolist() == [0, 0, 0, 1, 2, 2]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 20), min_size=1, max_size=120), st.data())
def test_segmented_scan_matches_per_segment_cumsum(values, data):
    n = len(values)
    heads = [True] + [data.draw(st.booleans()) for _ in range(n - 1)]
    got = segmented_prefix_sums(np.array(values), np.array(heads))
    expect = []
    running = 0
    for v, h in zip(values, heads):
        running = v if h else running + v
        expect.append(running)
    assert got.tolist() == expect


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-100, 100), min_size=0, max_size=200))
def test_scan_property_matches_numpy(values):
    arr = np.array(values, dtype=np.int64)
    assert np.array_equal(prefix_sums(arr), np.cumsum(arr) if len(arr) else arr)
