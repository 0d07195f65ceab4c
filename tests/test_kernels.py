"""Fuzz/property suite for the host kernel layer (`repro.pram.kernels`).

Two invariants protect the PERFORMANCE.md contract:

* ``sort_indices`` realises exactly the stability-unique permutation
  ``np.argsort(keys, kind="stable")``, through the radix passes and the
  small-input fallback alike — so the host realisation can never change
  labels, fingerprints or results anywhere downstream;
* the frontier-contracted circuit labeling reproduces both the labels and
  the byte-identical cost accounting of the reference doubling loop.
"""
import numpy as np
import pytest

from repro.pram import Machine, kernels
from repro.pram.kernels import (
    PAIR_PACK_MAX_RANGE,
    _RADIX_MIN_N,
    cycle_min_labels,
    radix_kernel,
    sort_indices,
)
from repro.primitives import sort_by_keys, sort_pairs
from repro.primitives.euler_tour import (
    _circuit_ids,
    _circuit_ids_reference,
    build_euler_structure,
)


def _random_sort_cases(seed: int, count: int):
    """Generated (keys, key_range) cases spanning sizes, ranges and dtypes."""
    rng = np.random.default_rng(seed)
    dtypes = (np.int64, np.int32, np.uint32, np.int16)
    cases = [
        (np.zeros(0, dtype=np.int64), 1),            # empty
        (np.array([7], dtype=np.int64), 8),          # singleton
        (np.zeros(100, dtype=np.int64), 1),          # all equal
        (np.arange(2048, dtype=np.int64)[::-1].copy(), 2048),  # reversed, above radix cutoff
    ]
    while len(cases) < count:
        n = int(rng.choice([2, 3, 17, 100, 1000, _RADIX_MIN_N, 3000]))
        key_range = int(rng.choice([1, 2, 9, n, 4 * n, n * n + 1, 1 << 40]))
        dtype = dtypes[int(rng.integers(len(dtypes)))]
        high = min(key_range, int(np.iinfo(dtype).max) + 1)
        keys = rng.integers(0, high, n).astype(dtype)
        cases.append((keys, key_range))
    return cases


#: ``_RADIX_MIN_N`` settings that force every input through one realisation.
_FORCED = {"radix": 0, "argsort": 1 << 62}


@pytest.mark.parametrize("crossover", list(_FORCED.values()), ids=list(_FORCED))
def test_sort_indices_matches_stable_argsort(crossover, monkeypatch):
    # sort_indices picks the radix passes or the stable-argsort fallback
    # from the input size; forcing the crossover runs >= 50 generated
    # cases (plus the edge cases above) through each realisation
    monkeypatch.setattr(kernels, "_RADIX_MIN_N", crossover)
    for keys, key_range in _random_sort_cases(seed=0, count=60):
        perm = sort_indices(keys, key_range)
        expected = np.argsort(keys, kind="stable")
        # stability makes the correct permutation unique, so exact equality
        # simultaneously checks permutation validity, sortedness and
        # stability on equal keys
        assert perm.dtype == np.int64
        assert np.array_equal(perm, expected), (crossover, keys.dtype, key_range, len(keys))


def test_radix_kernel_handles_every_pass_count():
    rng = np.random.default_rng(0)
    n = 4096
    for bits in (1, 8, 16, 17, 32, 33, 48, 62):
        key_range = 1 << bits
        keys = rng.integers(0, key_range, n)
        assert np.array_equal(
            radix_kernel(keys, key_range), np.argsort(keys, kind="stable")
        )


def test_kernel_choice_never_moves_results_or_charged_totals(rng, monkeypatch):
    keys = rng.integers(0, 5000, 3000)
    expected = np.argsort(keys, kind="stable")
    charged = set()
    for crossover in _FORCED.values():
        monkeypatch.setattr(kernels, "_RADIX_MIN_N", crossover)
        m = Machine.default()
        assert np.array_equal(sort_by_keys(keys, machine=m), expected)
        charged.add((m.time, m.work, m.counter.charged_work))
    assert len(charged) == 1


# ----------------------------------------------------------------------
# packed-pair overflow fallback boundary
# ----------------------------------------------------------------------
def _pair_case(key_range):
    a = np.array([key_range - 1, 0, key_range - 1, 3], dtype=np.int64)
    b = np.array([5, key_range - 1, 1, 3], dtype=np.int64)
    return a, b


def _sort_calls(machine):
    record = machine.counter._spans.get("integer_sort")
    return record.ticks if record is not None else 0


def test_sort_pairs_packs_up_to_the_int64_boundary():
    a, b = _pair_case(PAIR_PACK_MAX_RANGE)
    m = Machine.default()
    perm = sort_pairs(a, b, machine=m, key_range=PAIR_PACK_MAX_RANGE)
    assert list(zip(a[perm].tolist(), b[perm].tolist())) == sorted(zip(a.tolist(), b.tolist()))
    assert _sort_calls(m) == 1  # fused: one packed sort
    # the packed key of the largest pair is exactly the int64 ceiling's floor
    assert (PAIR_PACK_MAX_RANGE**2 - 1) <= 2**63 - 1
    assert (PAIR_PACK_MAX_RANGE + 1) ** 2 - 1 > 2**63 - 1


def test_sort_pairs_falls_back_past_the_boundary():
    key_range = PAIR_PACK_MAX_RANGE + 1
    a, b = _pair_case(key_range)
    m = Machine.default()
    perm = sort_pairs(a, b, machine=m, key_range=key_range)
    assert list(zip(a[perm].tolist(), b[perm].tolist())) == sorted(zip(a.tolist(), b.tolist()))
    assert _sort_calls(m) == 2  # two-pass LSD fallback


def test_pair_paths_agree_across_the_boundary(rng):
    # same pairs, both realisations: identical permutation (stability)
    a = rng.integers(0, 1000, 300)
    b = rng.integers(0, 1000, 300)
    packed = sort_pairs(a, b, machine=Machine.default(), key_range=1000)
    two_pass = sort_pairs(
        a + (PAIR_PACK_MAX_RANGE + 1) - 1000,
        b,
        machine=Machine.default(),
        key_range=PAIR_PACK_MAX_RANGE + 1,
    )
    assert np.array_equal(packed, two_pass)


# ----------------------------------------------------------------------
# frontier-contracted circuit labeling
# ----------------------------------------------------------------------
def _random_permutations(seed: int, count: int):
    rng = np.random.default_rng(seed)
    cases = [
        np.zeros(0, dtype=np.int64),                 # empty
        np.array([0], dtype=np.int64),               # fixed point
        np.array([1, 0], dtype=np.int64),            # one 2-cycle
        np.arange(33, dtype=np.int64),               # identity
        np.roll(np.arange(1 << 10), -1).astype(np.int64),  # power-of-two cycle
    ]
    while len(cases) < count:
        kind = int(rng.integers(4))
        if kind == 0:
            n = int(rng.integers(1, 400))
            cases.append(rng.permutation(n).astype(np.int64))
        elif kind == 1:  # one big cycle in random order
            n = int(rng.integers(2, 500))
            p = rng.permutation(n)
            perm = np.empty(n, dtype=np.int64)
            perm[p] = p[(np.arange(n) + 1) % n]
            cases.append(perm)
        elif kind == 2:  # power-of-two cycle lengths only
            sizes = [2 ** int(rng.integers(0, 6)) for _ in range(int(rng.integers(1, 6)))]
            perm = np.empty(sum(sizes), dtype=np.int64)
            offset = 0
            for size in sizes:
                perm[offset: offset + size] = np.roll(
                    np.arange(offset, offset + size), -1
                )
                offset += size
            cases.append(perm)
        else:  # 2-cycles placed off the ruler stride (no-ruler cycles)
            n = int(rng.integers(10, 120))
            perm = np.arange(n, dtype=np.int64)
            for i in range(1, n - 2, 4):
                perm[i], perm[i + 1] = i + 1, i
            cases.append(perm)
    return cases


def test_circuit_ids_matches_reference_labels_and_accounting():
    for successor in _random_permutations(seed=42, count=60):
        m_fast = Machine.default()
        m_ref = Machine.default()
        fast = _circuit_ids(successor, m_fast)
        ref = _circuit_ids_reference(successor, m_ref)
        assert np.array_equal(fast, ref)
        assert (m_fast.time, m_fast.work, m_fast.counter.charged_work) == (
            m_ref.time, m_ref.work, m_ref.counter.charged_work
        ), f"accounting drifted for n={len(successor)}"


def test_cycle_labels_adversarial_walk_falls_back():
    # One huge cycle with a single on-stride ruler and every other node off
    # stride, laid out in increasing order: the walker's segment exceeds the
    # walk budget, forcing the full-doubling fallback — labels must still be
    # exact.
    n = 4096
    spacing = int(np.ceil(np.log2(n)))
    members = [0] + [i for i in range(1, n) if i % spacing != 0]
    successor = np.arange(n, dtype=np.int64)
    for here, nxt in zip(members, members[1:] + members[:1]):
        successor[here] = nxt
    labels = cycle_min_labels(successor)
    m_ref = Machine.default()
    expected = _circuit_ids_reference(successor, m_ref)
    assert np.array_equal(labels, expected)


def test_circuit_ids_parity_on_euler_structures(rng):
    # the shape _circuit_ids actually sees: Euler successors of random forests
    for n in (5, 33, 257, 1024):
        parent = np.zeros(n, dtype=np.int64)
        parent[1:] = rng.integers(0, np.arange(1, n))
        child = np.arange(1, n, dtype=np.int64)
        structure = build_euler_structure(child, parent[child], n, machine=Machine.default())
        m_ref = Machine.default()
        expected = _circuit_ids_reference(structure.successor, m_ref)
        assert np.array_equal(structure.circuit_id, expected)
