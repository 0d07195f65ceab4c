"""Tests for Wyllie and work-efficient list ranking plus cycle ranking."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pram import Machine
from repro.primitives import optimal_rank, rank_cycle, wyllie_rank
from repro.primitives.list_ranking import _ruling_set_rank, _tail_of
from repro.testing import random_open_list, reversed_layout_list, sequential_layout_list


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 500])
@pytest.mark.parametrize("ranker", [wyllie_rank, optimal_rank])
def test_ranking_random_open_list(ranker, n, rng, machine):
    succ, expect, _ = random_open_list(rng, n)
    assert np.array_equal(ranker(succ, machine=machine), expect)


@pytest.mark.parametrize("ranker", [wyllie_rank, optimal_rank])
def test_ranking_multiple_lists(ranker, rng, machine):
    # two independent lists inside one array
    succ = np.array([1, 2, 2, 4, 5, 5])
    expect = np.array([2, 1, 0, 2, 1, 0])
    assert np.array_equal(ranker(succ, machine=machine), expect)


def test_ranking_empty_and_singleton(machine):
    assert len(wyllie_rank(np.array([], dtype=np.int64), machine=machine)) == 0
    assert optimal_rank(np.array([0]), machine=machine).tolist() == [0]


def test_ranking_rejects_out_of_range(machine):
    with pytest.raises(ValueError):
        wyllie_rank(np.array([5]), machine=machine)


def test_optimal_rank_work_beats_wyllie_at_scale(rng):
    n = 4096
    succ, expect, _ = random_open_list(rng, n)
    m1, m2 = Machine.default(), Machine.default()
    assert np.array_equal(wyllie_rank(succ, machine=m1), expect)
    assert np.array_equal(optimal_rank(succ, machine=m2), expect)
    assert m2.work < m1.work


def test_rank_cycle_single_cycle(rng, machine):
    n = 37
    perm = rng.permutation(n)
    succ = np.empty(n, dtype=np.int64)
    succ[perm] = np.roll(perm, -1)
    heads = np.zeros(n, dtype=bool)
    heads[perm[0]] = True
    expect = np.empty(n, dtype=np.int64)
    expect[perm] = np.arange(n)
    assert np.array_equal(rank_cycle(succ, heads, machine=machine), expect)


def test_rank_cycle_many_cycles(machine):
    # cycles (0 1 2), (3 4), (5)
    succ = np.array([1, 2, 0, 4, 3, 5])
    heads = np.array([True, False, False, True, False, True])
    got = rank_cycle(succ, heads, machine=machine)
    assert got[[0, 1, 2]].tolist() == [0, 1, 2]
    assert got[[3, 4]].tolist() == [0, 1]
    assert got[5] == 0


def test_rank_cycle_head_not_at_min_index(machine):
    succ = np.array([1, 2, 0])
    heads = np.array([False, True, False])
    assert rank_cycle(succ, heads, machine=machine).tolist() == [2, 0, 1]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 80), st.integers(0, 2**31 - 1))
def test_optimal_equals_wyllie_property(n, seed):
    rng = np.random.default_rng(seed)
    succ, expect, _ = random_open_list(rng, n)
    assert np.array_equal(optimal_rank(succ), wyllie_rank(succ))


@pytest.mark.parametrize("spacing", [2, 3, 5, 64, 10**6])
def test_optimal_rank_adversarial_ruler_spacing_random(spacing, rng, machine):
    # extreme spacings: 2 (rulers everywhere, contraction degenerate) and
    # 10**6 >> n (only tails/heads are rulers, one long sequential walk)
    succ, expect, _ = random_open_list(rng, 200)
    got = optimal_rank(succ, machine=machine, ruler_spacing=spacing)
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("spacing", [2, 7, 10**6])
def test_optimal_rank_sequential_layout_worst_case(spacing):
    # array order == list order: every sublist between rulers has exactly
    # `spacing` hops, the worst case for the array-position ruler choice
    succ, expect = sequential_layout_list(257)
    assert np.array_equal(optimal_rank(succ, ruler_spacing=spacing), expect)


@pytest.mark.parametrize("spacing", [2, 7, 10**6])
def test_optimal_rank_reversed_layout(spacing):
    # array order is the exact reverse of list order
    succ, expect = reversed_layout_list(130)
    assert np.array_equal(optimal_rank(succ, ruler_spacing=spacing), expect)


def test_optimal_rank_adversarial_spacing_many_lists(machine):
    # several lists + singletons under a giant spacing (no periodic rulers)
    succ = np.array([1, 2, 2, 4, 5, 5, 6, 8, 8])
    expect = np.array([2, 1, 0, 2, 1, 0, 0, 1, 0])
    got = optimal_rank(succ, machine=machine, ruler_spacing=10**6)
    assert np.array_equal(got, expect)


def test_optimal_rank_charged_cost_stays_honest_under_bad_spacing(rng):
    # a degenerate spacing may cost more work, but the accounting must
    # still be charged (non-zero, >= n) rather than assumed away
    succ, expect = sequential_layout_list(512)
    m = Machine.default()
    got = optimal_rank(succ, machine=m, ruler_spacing=10**6)
    assert np.array_equal(got, expect)
    assert m.work >= 512
    assert m.time >= 512  # the single sequential walk really is charged per hop


def cycles_with_heads(lengths, loops=0, seed=0):
    """Cycles of the given lengths plus ``loops`` headless self-loops (the
    tree nodes of step 2's ranking input), node ids shuffled, one random
    head per cycle."""
    rng = np.random.default_rng(seed)
    lengths = np.asarray(lengths, dtype=np.int64)
    n = int(lengths.sum()) + loops
    ends = np.cumsum(lengths)
    nxt = np.arange(1, n + 1, dtype=np.int64)
    nxt[ends - 1] = ends - lengths
    nxt[n - loops :] = np.arange(n - loops, n)
    node = rng.permutation(n)
    succ = np.empty(n, dtype=np.int64)
    succ[node] = node[nxt]
    heads = np.zeros(n, dtype=bool)
    heads[node[ends - lengths + rng.integers(0, lengths)]] = True
    return succ, heads


def rank_cycle_reference(succ, heads, machine):
    """rank_cycle with every tail found by ``_tail_of``'s pointer jumping."""
    n = len(succ)
    with machine.span("rank_cycle"):
        machine.tick(n)
        broken = np.where(heads[succ], np.arange(n), succ)
        to_tail = optimal_rank(broken, machine=machine)
        machine.tick(n)
        tail = _tail_of(broken, machine)
        per_tail = np.zeros(n, dtype=np.int64)
        per_tail[tail[heads]] = to_tail[heads]
        return per_tail[tail] - to_tail


PARITY_CASES = {
    **{f"{copies}x{length}": ([length] * copies, 0) for length in (1, 2, 3, 4, 5) for copies in (1, 3)},
    **{f"2^{k}{extra:+d}": ([2**k + extra, 3], 0) for k in (3, 6, 10) for extra in (-1, 0, 1, 2)},
    "one_long": ([5000], 0),
    "2048_short": ([1500, 700] + [32] * 2048, 0),
    "forest_shape": ([40, 9, 1, 2], 3000),
    "loops_only_n4": ([], 4),
    "n4_with_loop": ([3], 1),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_rank_cycle_matches_tail_of_reference(case):
    # The ruling-set tails and the closed-form charge stand in for
    # _tail_of's pointer jumping: same ranks, same time, work and spans.
    lengths, loops = PARITY_CASES[case]
    succ, heads = cycles_with_heads(lengths, loops, seed=len(case))
    m_ref, m_new = Machine.default(), Machine.default()
    expect = rank_cycle_reference(succ, heads, m_ref)
    got = rank_cycle(succ, heads, machine=m_new)
    assert np.array_equal(got, expect)
    assert m_new.counter.summary() == m_ref.counter.summary()
    if len(succ) > 4:
        broken = np.where(heads[succ], np.arange(len(succ)), succ)
        _, tail = _ruling_set_rank(broken, Machine.default(), tails=True)
        assert np.array_equal(tail, _tail_of(broken, Machine.default()))
