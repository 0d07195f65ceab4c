"""Pair formation for the shrink-and-recurse string algorithms.

Both *Algorithm efficient m.s.p.* and *Algorithm sorting strings* shrink
their input by grouping consecutive symbols into ordered pairs, sorting the
pairs, and replacing each pair by its dense rank (Steps 2–3 of each
algorithm).  The two differ only in how the pair boundaries are chosen:

* the m.s.p. algorithm segments the *circular* string at the marked
  positions (minimum symbol whose predecessor is not the minimum) and
  pairs within each segment, padding a trailing singleton with the
  minimum symbol ``m`` (which is in fact the next character of the
  circular string — the next segment starts with ``m``);
* the string-sorting algorithm pairs within each *linear* string from its
  own start, padding a trailing singleton with the blank ``#`` that
  compares below every symbol.

This module provides the two pairing routines plus the shared
rank-replacement step; every routine charges O(1) linear-work rounds plus
one adapter-charged integer sort.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..pram.machine import Machine
from ..primitives.integer_sort import SortCostModel, rank_pairs
from .alphabet import BLANK, validate_string


def _ensure_machine(machine: Optional[Machine]) -> Machine:
    return machine if machine is not None else Machine.default()


def circular_pair_heads(marked: np.ndarray, *, machine: Optional[Machine] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Identify pair heads on a circular string segmented at ``marked``.

    ``marked`` must contain at least one true entry.  A position's
    *segment start* is the closest marked position at or before it in
    circular order; its *offset* is its circular distance from that start.
    Pair heads are the positions with even offset.

    Returns ``(is_head, offset)``.  Cost: two scans — O(log n) rounds,
    O(n) work.
    """
    m = _ensure_machine(machine)
    mark = np.asarray(marked, dtype=bool)
    n = len(mark)
    if n == 0 or not mark.any():
        raise ValueError("circular segmentation requires at least one marked position")
    with m.span("circular_pair_heads"):
        idx = np.arange(n, dtype=np.int64)
        # most recent marked position at or before each index; positions in
        # the wrap-around segment (before the first mark) borrow the last
        # mark shifted by -n so that offsets stay correct circularly.
        m.tick(n)
        last_mark = int(np.flatnonzero(mark)[-1])
        anchored = np.where(mark, idx, np.int64(-1))
        # prefix maximum: same cost structure as a prefix sum
        _charge_scan(m, n)
        start = np.maximum.accumulate(anchored)
        start = np.where(start < 0, last_mark - n, start)
        offset = idx - start
        is_head = (offset % 2) == 0
        m.tick(n)
    return is_head, offset


def _charge_scan(machine: Machine, n: int) -> None:
    """Charge the cost of one balanced-tree scan over n elements: an
    up-sweep and a down-sweep, each one closed-form tree schedule."""
    machine.charge_tree(n)
    machine.charge_tree(n)


def circular_pairs(
    symbols,
    marked,
    *,
    machine: Optional[Machine] = None,
    pad_symbol: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Form the ordered pairs of the circular shrink step.

    Returns ``(first, second, head_positions)`` where pair ``k`` is
    ``(first[k], second[k])`` and starts at original position
    ``head_positions[k]`` (positions ascend).  The padding symbol defaults
    to the minimum of ``symbols`` (the paper's choice).
    """
    m = _ensure_machine(machine)
    s = validate_string(symbols)
    n = len(s)
    mark = np.asarray(marked, dtype=bool)
    if len(mark) != n:
        raise ValueError("marked must match symbols length")
    is_head, _offset = circular_pair_heads(mark, machine=m)
    with m.span("circular_pairs"):
        m.tick(n)
        heads = np.flatnonzero(is_head)
        partner = (heads + 1) % n
        # a head's partner belongs to the same segment iff it is not marked
        has_partner = ~mark[partner]
        pad = int(s.min()) if pad_symbol is None else int(pad_symbol)
        first = s[heads]
        second = np.where(has_partner, s[partner], pad)
    return first, second, heads


def linear_pairs(
    flat,
    offsets,
    *,
    machine: Optional[Machine] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Form the ordered pairs of the linear (string sorting) shrink step.

    ``flat``/``offsets`` describe a list of strings laid out consecutively
    (string ``i`` is ``flat[offsets[i]:offsets[i+1]]``).  Every string is
    paired from its own start; a trailing singleton is padded with the
    blank symbol.  Internally symbols are shifted by +1 so the blank (0)
    stays strictly below every real symbol.

    Returns ``(first, second, pair_string_id, new_offsets)`` where the
    pairs of string ``i`` occupy ``[new_offsets[i], new_offsets[i+1])`` in
    the output arrays.
    """
    m = _ensure_machine(machine)
    s = validate_string(flat, allow_empty=True)
    offs = np.asarray(offsets, dtype=np.int64)
    num_strings = len(offs) - 1
    lengths = np.diff(offs)
    with m.span("linear_pairs"):
        new_lengths = (lengths + 1) // 2
        new_offsets = np.concatenate(([0], np.cumsum(new_lengths)))
        _charge_scan(m, max(1, num_strings))
        total_pairs = int(new_offsets[-1])
        m.tick(len(s) + total_pairs)
        # Head positions: offsets[i] + 2*k for k in range(new_lengths[i]).
        string_of_pair = np.repeat(np.arange(num_strings, dtype=np.int64), new_lengths)
        rank_in_string = np.arange(total_pairs, dtype=np.int64) - new_offsets[string_of_pair]
        head = offs[string_of_pair] + 2 * rank_in_string
        partner = head + 1
        has_partner = partner < offs[string_of_pair] + lengths[string_of_pair]
        shifted = s + 1
        first = shifted[head]
        second = np.where(has_partner, shifted[np.minimum(partner, max(0, len(s) - 1))], BLANK)
    return first, second, string_of_pair, new_offsets


def rank_replace(
    first,
    second,
    *,
    machine: Optional[Machine] = None,
    key_range: Optional[int] = None,
    cost_model: SortCostModel = SortCostModel.CHARGED,
) -> Tuple[np.ndarray, int]:
    """Sort the pairs and replace each by its dense rank (Step 3).

    Returns ``(codes, alphabet_size)`` with codes in ``1..alphabet_size``.
    """
    return rank_pairs(first, second, machine=machine, key_range=key_range, cost_model=cost_model)
