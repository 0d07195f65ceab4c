"""*Algorithm partition* (Section 3.2): cyclic-shift equivalence classes.

Given ``k`` canonical cycle label strings (each already reduced to its
smallest repeating prefix and rotated to its minimal starting point) laid
out consecutively in memory, group the strings into equivalence classes —
two cycles are equivalent iff their canonical strings are equal.

The paper's algorithm assigns, by ``log l`` rounds of doubling, a code to
every position such that two aligned positions get the same code iff the
substrings of length ``2^j`` starting there are equal.  The doubling uses
the arbitrary-CRCW trick: all processors holding the same *pair* of codes
write their position into the shared cell ``BB[code1, code2]`` and read the
(arbitrary) winner back as the new code — O(1) time per round, O(n) work
over all rounds that touch a given position, O(n) total because position
``d`` participates only while ``d`` is a multiple of the current stride.

Strings of different lengths are never equivalent; strings whose length is
not a power of two are padded with a sentinel symbol (the general-case
modification the paper alludes to).

Two baselines are provided for experiment E5:

* :func:`partition_cycles_all_pairs` — the O(1)-time O(nk)-work
  "compare every pair of cycles concurrently" method the paper mentions;
* :func:`partition_cycles_sorting` — sort the strings with the string
  sorting algorithm and group equal neighbours (O(n log log n) work).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import InvalidInstanceError
from ..pram.machine import Machine
from ..primitives.integer_sort import SortCostModel, rank_values
from ..strings.string_sorting import sort_strings
from ..types import EquivalenceResult, as_int_array
from .problem import canonical_labels


def _ensure_machine(machine: Optional[Machine]) -> Machine:
    return machine if machine is not None else Machine.default()


def _validate_layout(flat: np.ndarray, offsets: np.ndarray) -> Tuple[int, np.ndarray]:
    if len(offsets) < 1 or offsets[0] != 0 or offsets[-1] != len(flat):
        raise InvalidInstanceError("offsets must start at 0 and end at len(flat)")
    lengths = np.diff(offsets)
    if len(lengths) and lengths.min() <= 0:
        raise InvalidInstanceError("every cycle string must be non-empty")
    return len(lengths), lengths


def partition_cycles(
    flat_labels,
    offsets,
    *,
    machine: Optional[Machine] = None,
    cost_model: SortCostModel = SortCostModel.CHARGED,
) -> EquivalenceResult:
    """Equivalence classes of canonical cycle strings via the BB-table doubling.

    ``flat_labels`` holds the ``k`` canonical strings consecutively;
    ``offsets`` (length ``k + 1``) delimits them.  Strings must already be
    canonical (reduced + rotated): equivalence here is plain equality.

    Returns dense class ids in order of first appearance.
    """
    m = _ensure_machine(machine)
    flat = as_int_array(flat_labels, "flat_labels")
    offs = np.asarray(offsets, dtype=np.int64)
    k, lengths = _validate_layout(flat, offs)
    if k == 0:
        return EquivalenceResult(
            class_of=np.zeros(0, dtype=np.int64), num_classes=0,
            algorithm="bb-doubling", cost=m.counter.summary(),
        )

    with m.span("partition_cycles"):
        # Pad every string to the next power of two of its own length with a
        # sentinel that cannot collide with a real symbol.
        m.tick(int(lengths.sum()))
        sentinel = int(flat.max()) + 1 if len(flat) else 1
        # 2^ceil(log2 l): frexp's exponent of l - 1 is its bit length
        padded_lengths = np.left_shift(1, np.frexp((lengths - 1).astype(np.float64))[1]).astype(np.int64)
        padded_offsets = np.concatenate(([0], np.cumsum(padded_lengths)))
        total = int(padded_offsets[-1])
        eq = np.full(total, sentinel, dtype=np.int64)
        # scatter the real symbols (contiguous in `flat`) into the padded layout
        eq[np.repeat(padded_offsets[:-1] - offs[:-1], lengths) + np.arange(len(flat))] = flat

        table = m.sparse_table("BB")
        max_padded = int(padded_lengths.max())
        stride = 1
        # Address space for newly written codes is kept disjoint from the
        # symbol space by offsetting positions with (sentinel + 1).
        address_base = sentinel + 1
        round_index = 0
        while stride < max_padded:
            round_index += 1
            # active positions: within each string, the multiples of 2*stride
            # whose partner (at +stride) is still inside the padded string —
            # padded_length / (2*stride) of them, both being powers of two
            active = np.flatnonzero(padded_lengths > stride)
            if len(active):
                count = padded_lengths[active] // (2 * stride)
                rank = np.arange(int(count.sum()), dtype=np.int64) - np.repeat(np.cumsum(count) - count, count)
                d1 = np.repeat(padded_offsets[active], count) + 2 * stride * rank
                d2 = d1 + stride
                eq[d1] = m.concurrent_combine_pairs(table, eq[d1], eq[d2], address_base + d1)
            stride *= 2

        # The code at position 0 of each string now determines its class,
        # except that strings of different (original) lengths may share a
        # code only if their padded prefixes agree — combine with the length
        # to be safe, then densify.
        m.tick(k)
        head_codes = eq[padded_offsets[:-1]]
        combined = head_codes * np.int64(int(lengths.max()) + 1) + lengths
        dense, num_classes = rank_values(combined, machine=m, cost_model=cost_model)
        # re-rank to order of first appearance for deterministic output
        class_of = canonical_labels(dense)
    return EquivalenceResult(
        class_of=class_of,
        num_classes=int(num_classes),
        algorithm="bb-doubling",
        cost=m.counter.summary(),
    )


def partition_cycles_all_pairs(
    flat_labels,
    offsets,
    *,
    machine: Optional[Machine] = None,
) -> EquivalenceResult:
    """Baseline: compare every pair of canonical strings concurrently.

    O(1) parallel rounds but Θ(sum over pairs of min length) = up to
    Θ(n·k) work — the method the paper explicitly wants to beat
    (Section 3.2, first paragraph).
    """
    m = _ensure_machine(machine)
    flat = as_int_array(flat_labels, "flat_labels")
    offs = np.asarray(offsets, dtype=np.int64)
    k, lengths = _validate_layout(flat, offs)
    strings = [flat[offs[i]: offs[i + 1]] for i in range(k)]
    with m.span("partition_cycles_all_pairs"):
        work = 0
        equal = np.zeros((k, k), dtype=bool)
        for i in range(k):
            equal[i, i] = True
            for j in range(i + 1, k):
                work += int(min(lengths[i], lengths[j]))
                if lengths[i] == lengths[j] and np.array_equal(strings[i], strings[j]):
                    equal[i, j] = equal[j, i] = True
        m.tick(max(1, work), rounds=3)
        # deduce classes: representative = smallest equal index
        m.tick(k * k, rounds=2)
        rep = np.array([int(np.flatnonzero(equal[i])[0]) for i in range(k)], dtype=np.int64)
        class_of = canonical_labels(rep)
    return EquivalenceResult(
        class_of=class_of,
        num_classes=int(class_of.max()) + 1 if k else 0,
        algorithm="all-pairs",
        cost=m.counter.summary(),
    )


def partition_cycles_sorting(
    flat_labels,
    offsets,
    *,
    machine: Optional[Machine] = None,
    cost_model: SortCostModel = SortCostModel.CHARGED,
) -> EquivalenceResult:
    """Baseline: sort the canonical strings and group equal neighbours.

    Uses the paper's own string-sorting algorithm, so the cost is
    O(n log log n) work — asymptotically more than the O(n) of the
    BB-table method, illustrating why the paper develops the dedicated
    equivalence algorithm instead of just sorting (E5 ablation).
    """
    m = _ensure_machine(machine)
    flat = as_int_array(flat_labels, "flat_labels")
    offs = np.asarray(offsets, dtype=np.int64)
    k, _lengths = _validate_layout(flat, offs)
    strings = [flat[offs[i]: offs[i + 1]] for i in range(k)]
    with m.span("partition_cycles_sorting"):
        result = sort_strings(strings, machine=m, cost_model=cost_model)
        class_of = canonical_labels(result.ranks)
    return EquivalenceResult(
        class_of=class_of,
        num_classes=int(class_of.max()) + 1 if k else 0,
        algorithm="string-sorting",
        cost=m.counter.summary(),
    )
