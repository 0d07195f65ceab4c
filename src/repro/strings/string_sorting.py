"""*Algorithm sorting strings* — lexicographic sort of variable-length strings.

Section 3.1 of the paper extends the shrink-and-recurse m.s.p. strategy to
sorting a list of ``m`` strings of total length ``n`` over an alphabet of
size ``n^{O(1)}``:

1. Sort the strings by their first symbol (one integer sort); strings of
   length one precede longer strings on ties and are thereby already in
   their final relative position, so the recursion continues on the longer
   strings only.
2. Partition every remaining string into ordered pairs from its own start;
   an odd trailing symbol is padded with the blank ``#`` that precedes
   every real symbol.
3. Sort all pairs and replace each by its dense rank — the new list has at
   most ``m`` strings, total length at most ``2n/3``, and the same relative
   order as the original list.
4. Recurse until the total length is at most ``n / log n``.
5. Finish with Cole's parallel mergesort on the short strings, using the
   constant-time linear-work string comparison.

Total cost: O(log n) time and O(n log log n) operations (Lemma 3.8),
improving on the O(log² n / log log n)-time bound of Hagerup & Petersson.

Baselines for experiment E4:

* :func:`sort_strings_doubling` — pair-encode *every* string every round
  without retiring unit strings (simpler, but Θ(n + m·log(maxlen)) work);
* :func:`sort_strings_sequential` — sequential radix/LSD sort, the linear
  time bound of Aho–Hopcroft–Ullman;
* :func:`sort_strings_comparison` — parallel comparison mergesort with
  O(ℓ) work per comparison (Θ(n log m) work).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..pram.machine import Machine
from ..primitives.integer_sort import SortCostModel, sort_by_keys
from ..primitives.merge import merge_sort_indices_by_comparator
from ..types import StringSortResult
from .alphabet import concatenate_with_offsets, validate_string
from .pair_encoding import linear_pairs, rank_replace


def _ensure_machine(machine: Optional[Machine]) -> Machine:
    return machine if machine is not None else Machine.default()


# ----------------------------------------------------------------------
# reference comparisons and ranks (shared by all variants)
# ----------------------------------------------------------------------
def _compare_seq(a: np.ndarray, b: np.ndarray) -> int:
    """Plain lexicographic three-way comparison of two symbol arrays."""
    la, lb = len(a), len(b)
    l = min(la, lb)
    if l:
        neq = a[:l] != b[:l]
        if neq.any():
            i = int(np.argmax(neq))
            return -1 if a[i] < b[i] else 1
    if la == lb:
        return 0
    return -1 if la < lb else 1


def _ranks_from_order(
    arrays: List[np.ndarray], order: np.ndarray, machine: Machine
) -> np.ndarray:
    """Dense ranks given a sorted order: adjacent-equality scan, O(n) work.

    The adjacent comparisons are vectorised over the flat symbol array
    (candidate pairs are the equal-length neighbours; their symbols are
    gathered side by side and reduced per segment), so the host cost is
    O(total length) instead of one Python comparison per string.
    """
    m = len(order)
    ranks = np.zeros(m, dtype=np.int64)
    if m == 0:
        return ranks
    machine.tick(sum(len(a) for a in arrays) + m)
    flat, offsets = concatenate_with_offsets(arrays)
    lengths = np.diff(offsets)
    so = np.asarray(order, dtype=np.int64)
    sorted_lengths = lengths[so]
    differs = np.ones(m, dtype=bool)
    # neighbours of unequal length always differ; equal-length pairs of
    # length zero are equal; the rest need a symbol-wise check
    differs[1:] = sorted_lengths[1:] != sorted_lengths[:-1]
    candidates = np.flatnonzero(~differs[1:] & (sorted_lengths[1:] > 0)) + 1
    if len(candidates):
        pair_len = sorted_lengths[candidates]
        seg_starts = np.concatenate(([0], np.cumsum(pair_len[:-1])))
        pos = np.arange(int(pair_len.sum()), dtype=np.int64) - np.repeat(seg_starts, pair_len)
        left = np.repeat(offsets[so[candidates - 1]], pair_len) + pos
        right = np.repeat(offsets[so[candidates]], pair_len) + pos
        symbol_equal = flat[left] == flat[right]
        differs[candidates] = ~np.logical_and.reduceat(symbol_equal, seg_starts)
    increments = differs.astype(np.int64)
    increments[0] = 0
    dense_sorted = np.cumsum(increments)
    ranks[order] = dense_sorted
    return ranks


# ----------------------------------------------------------------------
# the paper's algorithm
# ----------------------------------------------------------------------
def _sort_recursive(
    flat: np.ndarray,
    offsets: np.ndarray,
    machine: Machine,
    cost_model: SortCostModel,
    threshold: int,
    depth: int,
) -> np.ndarray:
    """Return the sorted order (permutation of string ids) for the current list."""
    num_strings = len(offsets) - 1
    if num_strings <= 1:
        return np.arange(num_strings, dtype=np.int64)
    lengths = np.diff(offsets)
    total = int(lengths.sum())

    # Step 5 (base case): comparison mergesort on the short strings.
    if total <= threshold or int(lengths.max(initial=0)) <= 1 or depth > 64:
        arrays = [flat[offsets[i]: offsets[i + 1]] for i in range(num_strings)]

        def compare(i: int, j: int) -> int:
            return _compare_seq(arrays[i], arrays[j])

        avg_len = max(1, total // max(1, num_strings))
        return merge_sort_indices_by_comparator(
            num_strings, compare, machine=machine, item_weight=avg_len
        )

    # Step 1: sort by first symbol, unit strings before longer ones on ties.
    machine.tick(num_strings)
    first_symbol = np.where(lengths > 0, flat[np.minimum(offsets[:-1], max(0, len(flat) - 1))], -1)
    # normalise to non-negative keys: empty strings sort before everything
    first_key = (first_symbol + 1).astype(np.int64)
    is_unit = lengths <= 1

    # Step 2-3 on the longer strings only.
    longer_ids = np.flatnonzero(~is_unit)
    unit_ids = np.flatnonzero(is_unit)
    if len(longer_ids) == 0:
        order_longer = np.zeros(0, dtype=np.int64)
    else:
        sub_arrays = [flat[offsets[i]: offsets[i + 1]] for i in longer_ids]
        sub_flat, sub_offsets = concatenate_with_offsets(sub_arrays)
        first, second, _string_of_pair, new_offsets = linear_pairs(
            sub_flat, sub_offsets, machine=machine
        )
        codes, _sigma = rank_replace(first, second, machine=machine, cost_model=cost_model)
        order_sub = _sort_recursive(
            codes, new_offsets, machine, cost_model, threshold, depth + 1
        )
        order_longer = longer_ids[order_sub]

    # Merge-back: stable integer sort by first symbol over the sequence
    # (unit strings in input order, then longer strings in recursive order);
    # stability realises the "unit strings precede longer strings" tie rule
    # and preserves the recursive order within equal first symbols.
    machine.tick(num_strings)
    sequence = np.concatenate([unit_ids, order_longer])
    keys = first_key[sequence]
    perm = sort_by_keys(keys, machine=machine, cost_model=cost_model)
    return sequence[perm]


def sort_strings(
    strings: Sequence[Sequence[int]],
    *,
    machine: Optional[Machine] = None,
    cost_model: SortCostModel = SortCostModel.CHARGED,
    shrink_target_fraction: Optional[float] = None,
) -> StringSortResult:
    """Sort a list of integer strings lexicographically (the paper's algorithm).

    Returns a :class:`~repro.types.StringSortResult` whose ``order`` is a
    stable-by-value permutation (equal strings keep no particular input
    order guarantee beyond determinism) and whose ``ranks`` are dense.
    """
    m = _ensure_machine(machine)
    arrays = [validate_string(s, allow_empty=True) for s in strings]
    num_strings = len(arrays)
    flat, offsets = concatenate_with_offsets(arrays)
    total = len(flat)
    if shrink_target_fraction is None:
        threshold = max(8, int(total / max(1.0, math.log2(max(2, total)))))
    else:
        threshold = max(8, int(total * shrink_target_fraction))
    with m.span("sort_strings"):
        order = _sort_recursive(flat, offsets, m, cost_model, threshold, 0)
        ranks = _ranks_from_order(arrays, order, m)
    return StringSortResult(order=order, ranks=ranks, algorithm="jaja-ryu", cost=m.counter.summary())


# ----------------------------------------------------------------------
# baselines
# ----------------------------------------------------------------------
def sort_strings_doubling(
    strings: Sequence[Sequence[int]],
    *,
    machine: Optional[Machine] = None,
    cost_model: SortCostModel = SortCostModel.CHARGED,
) -> StringSortResult:
    """Pair-encode every string every round until all are single codes.

    Simpler than the paper's algorithm (no retirement of unit strings, no
    final mergesort) but performs Θ(n + m log(maxlen)) work because short
    strings keep being re-encoded; E4 shows the gap.
    """
    m = _ensure_machine(machine)
    arrays = [validate_string(s, allow_empty=True) for s in strings]
    num_strings = len(arrays)
    with m.span("sort_strings_doubling"):
        # Empty strings precede everything; set them aside (a blank pad at
        # the input level would collide with a genuine symbol 0).
        empty_ids = np.array([i for i, a in enumerate(arrays) if len(a) == 0], dtype=np.int64)
        nonempty_ids = np.array([i for i, a in enumerate(arrays) if len(a) > 0], dtype=np.int64)
        m.tick(num_strings)
        current_flat, current_offsets = concatenate_with_offsets(
            [arrays[i] for i in nonempty_ids]
        )
        while len(current_offsets) - 1 and int(np.diff(current_offsets).max()) > 1:
            first, second, _sid, new_offsets = linear_pairs(
                current_flat, current_offsets, machine=m
            )
            codes, _sigma = rank_replace(first, second, machine=m, cost_model=cost_model)
            current_flat, current_offsets = codes, new_offsets
        final_codes = (
            current_flat[current_offsets[:-1]]
            if len(nonempty_ids)
            else np.zeros(0, dtype=np.int64)
        )
        order_nonempty = nonempty_ids[sort_by_keys(final_codes, machine=m, cost_model=cost_model)]
        order = np.concatenate([empty_ids, order_nonempty]).astype(np.int64)
        ranks = _ranks_from_order(arrays, order, m)
    return StringSortResult(order=order, ranks=ranks, algorithm="doubling", cost=m.counter.summary())


def sort_strings_comparison(
    strings: Sequence[Sequence[int]],
    *,
    machine: Optional[Machine] = None,
) -> StringSortResult:
    """Parallel comparison mergesort with O(ℓ)-work comparisons.

    The natural "just use Cole's mergesort directly" baseline: O(log m)
    rounds but Θ(n log m) work because every comparison touches whole
    strings.  Corresponds to the pre-Hagerup–Petersson folklore bound the
    paper's introduction contrasts with.
    """
    m = _ensure_machine(machine)
    arrays = [validate_string(s, allow_empty=True) for s in strings]
    num_strings = len(arrays)
    total = sum(len(a) for a in arrays)

    def compare(i: int, j: int) -> int:
        return _compare_seq(arrays[i], arrays[j])

    with m.span("sort_strings_comparison"):
        avg_len = max(1, total // max(1, num_strings))
        order = merge_sort_indices_by_comparator(
            num_strings, compare, machine=m, item_weight=avg_len
        )
        ranks = _ranks_from_order(arrays, order, m)
    return StringSortResult(order=order, ranks=ranks, algorithm="comparison-mergesort", cost=m.counter.summary())


def sort_strings_sequential(
    strings: Sequence[Sequence[int]],
    *,
    machine: Optional[Machine] = None,
) -> StringSortResult:
    """Sequential lexicographic sort (Aho–Hopcroft–Ullman style bound).

    Charged as a single processor doing Θ(n + m log m) operations; used as
    the sequential reference point of experiment E4.
    """
    m = _ensure_machine(machine)
    arrays = [validate_string(s, allow_empty=True) for s in strings]
    num_strings = len(arrays)
    total = sum(len(a) for a in arrays)
    with m.span("sort_strings_sequential"):
        charge = total + int(num_strings * max(1, math.log2(max(2, num_strings))))
        m.tick(charge, rounds=charge)
        order = np.array(
            sorted(range(num_strings), key=lambda i: tuple(arrays[i].tolist())),
            dtype=np.int64,
        )
        ranks = _ranks_from_order(arrays, order, m)
    return StringSortResult(order=order, ranks=ranks, algorithm="sequential", cost=m.counter.summary())
