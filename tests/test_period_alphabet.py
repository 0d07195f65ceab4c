"""Tests for alphabets, periods and smallest repeating prefixes."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidStringError
from repro.strings import (
    BLANK,
    concatenate_with_offsets,
    densify,
    failure_function,
    from_text,
    is_rotation,
    smallest_circular_period,
    smallest_period,
    smallest_period_parallel,
    smallest_repeating_prefix_length,
    split_by_offsets,
    to_text,
    validate_string,
)
from repro.strings.period import circular_periods


def test_validate_string_rejects_bad_inputs():
    with pytest.raises(InvalidStringError):
        validate_string([])
    with pytest.raises(InvalidStringError):
        validate_string([-1, 2])
    with pytest.raises(InvalidStringError):
        validate_string([[1, 2]])
    assert validate_string([0, 1, 2]).dtype == np.int64


def test_text_roundtrip():
    assert to_text(from_text("abcXYZ")) == "abcXYZ"
    assert to_text([BLANK]) == "#"


def test_densify_preserves_order(machine):
    dense, sigma = densify([50, 7, 50, 9], machine=machine)
    assert dense.tolist() == [3, 1, 3, 2]
    assert sigma == 3
    assert densify([], machine=machine)[1] == 0


def test_concatenate_and_split_roundtrip():
    strings = [[1, 2], [], [3], [4, 5, 6]]
    flat, offsets = concatenate_with_offsets(strings)
    back = split_by_offsets(flat, offsets)
    assert [b.tolist() for b in back] == [list(s) for s in strings]


def test_failure_function_known():
    assert failure_function([1, 2, 1, 2, 1]).tolist() == [0, 0, 1, 2, 3]


@pytest.mark.parametrize(
    "s,period,prefix",
    [
        ([1, 2, 1, 2], 2, 2),
        ([1, 2, 1], 2, 3),
        ([1, 1, 1, 1], 1, 1),
        ([1, 2, 3], 3, 3),
        ([1, 2, 1, 2, 1, 2], 2, 2),
    ],
)
def test_periods(s, period, prefix):
    assert smallest_period(s) == period
    assert smallest_repeating_prefix_length(s) == prefix
    assert smallest_circular_period(s) == prefix


def test_parallel_period_matches_sequential(machine, rng):
    for _ in range(30):
        n = int(rng.integers(1, 60))
        s = rng.integers(0, 3, n)
        assert smallest_period_parallel(s, machine=machine) == smallest_circular_period(s)


def test_parallel_period_charges_adapter(machine):
    smallest_period_parallel(np.tile([1, 2, 3], 16), machine=machine)
    assert machine.counter.charged_work <= machine.work or machine.work <= 64


def test_is_rotation():
    assert is_rotation([1, 2, 3], [3, 1, 2])
    assert not is_rotation([1, 2, 3], [1, 3, 2])
    assert not is_rotation([1, 2], [1, 2, 3])
    assert is_rotation([], [])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=30), st.integers(1, 4))
def test_repeating_prefix_divides_and_tiles(base, reps):
    s = base * reps
    p = smallest_repeating_prefix_length(s)
    assert len(s) % p == 0
    assert s == s[:p] * (len(s) // p)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 6, 12, 36, 60, 64, 97, 120, 360, 720]),
    st.sampled_from(["random", "periodic", "equal"]),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_divisor_check_matches_the_kmp_reference(length, kind, alphabet, seed):
    rng = np.random.default_rng(seed)
    if kind == "equal":
        s = np.full(length, alphabet)
    elif kind == "periodic":
        block = int(rng.choice([d for d in range(1, length + 1) if length % d == 0]))
        s = np.tile(rng.integers(0, alphabet, block), length // block)
    else:
        s = rng.integers(0, alphabet, length)
    expect = smallest_repeating_prefix_length(s)
    assert smallest_circular_period(s) == expect
    rows = np.stack([s, np.roll(s, int(rng.integers(0, length))), np.full(length, 0)])
    assert circular_periods(rows).tolist() == [expect, expect, 1]
