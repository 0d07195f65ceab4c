"""Parallel merging and merge sort (Cole-style cost accounting).

Step 5 of the paper's *Algorithm sorting strings* finishes the recursion by
running Cole's parallel mergesort on the ``O(n / log n)`` shortened strings,
using the fact that two strings can be compared in ``O(1)`` time with
linear work; the step therefore costs ``O(log m)`` time and ``O(n)`` work
overall.  *Algorithm simple m.s.p.* (the bootstrap used on the shrunken
string) has the same merge-style structure.

The implementations here follow the standard PRAM recipes:

* :func:`parallel_merge` — merge two sorted sequences by cross-ranking
  (binary search of every element into the other sequence): ``O(log n)``
  time, ``O(n log n)`` work naively; the charged cost uses the textbook
  ``O(log log n)``-time ``O(n)``-work accelerated-cascading bound when
  ``charged=True`` because that is the primitive Cole's sort builds on.
* :func:`merge_sort` — the full sort; charged ``O(log n)`` time and
  ``O(n log n)`` work (comparison sorting), which is exactly how the paper
  budgets its Step 5 usage (on ``n / log n`` items the work is ``O(n)``).

A ``key`` function turns the routines into sorters of arbitrary items
(the string-sorting step sorts *string ids* under O(1) pairwise comparison).
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

import numpy as np

from ..pram.machine import Machine


def _ensure_machine(machine: Optional[Machine]) -> Machine:
    return machine if machine is not None else Machine.default()


def parallel_merge(
    left: np.ndarray,
    right: np.ndarray,
    *,
    machine: Optional[Machine] = None,
    charged: bool = True,
) -> np.ndarray:
    """Merge two sorted 1-D arrays into one sorted array.

    Cost: when ``charged`` the step is billed at the accelerated-cascading
    bound (``O(log log n)`` rounds, linear work); otherwise at the plain
    cross-ranking bound (``O(log n)`` rounds, ``O(n log n)`` work).
    """
    m = _ensure_machine(machine)
    a = np.asarray(left)
    b = np.asarray(right)
    n = len(a) + len(b)
    if n == 0:
        return a.copy()
    with m.span("parallel_merge"):
        if charged:
            rounds = max(1, int(math.ceil(math.log2(max(2.0, math.log2(max(2.0, n)))))))
            m.tick(n, rounds=rounds)
        else:
            rounds = max(1, int(math.ceil(math.log2(max(2.0, n)))))
            m.tick(n * rounds, rounds=rounds)
        # Cross-ranking produces exactly the positions np.searchsorted gives;
        # the final placement is one scatter.
        m.tick(n)
        out = np.empty(n, dtype=np.result_type(a.dtype, b.dtype) if len(a) and len(b) else (a.dtype if len(a) else b.dtype))
        pos_a = np.arange(len(a)) + np.searchsorted(b, a, side="left")
        pos_b = np.arange(len(b)) + np.searchsorted(a, b, side="right")
        out[pos_a] = a
        out[pos_b] = b
    return out


def merge_sort(
    values,
    *,
    machine: Optional[Machine] = None,
) -> np.ndarray:
    """Sort a 1-D numeric array, charged at the Cole mergesort bound.

    Cole's algorithm runs in ``O(log n)`` time with ``O(n log n)`` work on
    the CREW/EREW PRAM; we charge exactly that (``ceil(log2 n)`` rounds of
    ``n`` work each) and realise the answer with NumPy's stable sort.
    Returns the sorted copy.
    """
    m = _ensure_machine(machine)
    arr = np.asarray(values)
    n = len(arr)
    if n <= 1:
        return arr.copy()
    with m.span("merge_sort"):
        rounds = int(math.ceil(math.log2(n)))
        m.tick(n * rounds, rounds=rounds)
        return np.sort(arr, kind="stable")


def merge_sort_indices_by_comparator(
    num_items: int,
    compare: Callable[[int, int], int],
    *,
    machine: Optional[Machine] = None,
    item_weight: int = 1,
) -> np.ndarray:
    """Sort item indices ``0..num_items-1`` under a black-box comparator.

    This models Step 5 of *Algorithm sorting strings*: a comparison-based
    parallel mergesort over items whose pairwise comparison costs
    ``O(item_weight)`` work and ``O(1)`` time (strings compared with the
    CRCW first-difference trick).  The charged cost is therefore
    ``O(log m)`` rounds and ``O(m log m * item_weight)`` work, which is
    ``O(n)`` in the paper's invocation because ``m * item_weight <= n`` and
    ``m <= n / log n``.

    The comparator must implement a total preorder (return <0, 0, >0); the
    sort is stable.
    """
    m = _ensure_machine(machine)
    if num_items < 0:
        raise ValueError("num_items must be non-negative")
    indices = list(range(num_items))
    if num_items <= 1:
        return np.asarray(indices, dtype=np.int64)

    comparisons = 0

    def merge_runs(lo: List[int], hi: List[int]) -> List[int]:
        nonlocal comparisons
        out: List[int] = []
        i = j = 0
        while i < len(lo) and j < len(hi):
            comparisons += 1
            if compare(hi[j], lo[i]) < 0:
                out.append(hi[j])
                j += 1
            else:
                out.append(lo[i])
                i += 1
        out.extend(lo[i:])
        out.extend(hi[j:])
        return out

    with m.span("merge_sort_comparator"):
        runs: List[List[int]] = [[i] for i in indices]
        while len(runs) > 1:
            merged: List[List[int]] = []
            for k in range(0, len(runs) - 1, 2):
                merged.append(merge_runs(runs[k], runs[k + 1]))
            if len(runs) % 2:
                merged.append(runs[-1])
            # Each level of Cole's sort is charged O(1) rounds; the work is
            # the number of comparisons performed at this level times the
            # per-comparison weight.
            runs = merged
        rounds = max(1, int(math.ceil(math.log2(num_items))))
        m.tick(comparisons * max(1, item_weight), rounds=rounds)
    return np.asarray(runs[0], dtype=np.int64)
