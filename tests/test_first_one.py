"""Tests for the constant-time first-one / string comparison primitives."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.primitives import first_difference, first_one, lexicographic_compare


def test_first_one_various_positions(machine):
    flags = np.zeros(100, dtype=bool)
    assert first_one(flags, machine=machine) == -1
    flags[55] = True
    flags[80] = True
    assert first_one(flags, machine=machine) == 55
    flags[0] = True
    assert first_one(flags, machine=machine) == 0


def test_first_one_tiny_arrays(machine):
    assert first_one([], machine=machine) == -1
    assert first_one([True], machine=machine) == 0
    assert first_one([False, False, True], machine=machine) == 2


def test_first_one_constant_rounds(machine):
    flags = np.zeros(10000, dtype=bool)
    flags[9999] = True
    first_one(flags, machine=machine)
    assert machine.time <= 8  # O(1) rounds regardless of n


def test_first_difference(machine):
    assert first_difference([1, 2, 3], [1, 2, 3], machine=machine) == -1
    assert first_difference([1, 2, 3], [1, 9, 3], machine=machine) == 1
    with pytest.raises(ValueError):
        first_difference([1], [1, 2], machine=machine)


def test_lexicographic_compare(machine):
    assert lexicographic_compare([1, 2, 3], [1, 2, 3], machine=machine) == 0
    assert lexicographic_compare([1, 2, 2], [1, 2, 3], machine=machine) == -1
    assert lexicographic_compare([2, 0, 0], [1, 9, 9], machine=machine) == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.booleans(), min_size=0, max_size=300))
def test_first_one_matches_reference(flags):
    arr = np.array(flags, dtype=bool)
    expect = int(np.argmax(arr)) if arr.any() else -1
    assert first_one(arr) == expect
