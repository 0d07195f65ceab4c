"""SFCP problem instances, validation, canonicalisation and stability checks.

The single function coarsest partition (SFCP) problem: given ``A_f``
(a total function on ``{0..n-1}``) and ``A_B`` (initial block labels),
find the coarsest partition ``Q`` refining ``B`` such that every block of
``Q`` maps under ``f`` into a single block of ``Q``.

This module defines the instance container, the partition predicates used
throughout the tests (refinement, stability, coarseness via comparison
against a reference), and the label canonicalisation that makes results
from different algorithms directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import InvalidInstanceError
from ..graphs.functional_graph import validate_function
from ..types import as_int_array


def validate_labels(labels, n: int, *, name: str = "labels") -> np.ndarray:
    """Validate a label array of length ``n`` (any integer values allowed)."""
    arr = as_int_array(labels, name)
    if len(arr) != n:
        raise InvalidInstanceError(f"{name} must have length {n}, got {len(arr)}")
    return arr


def _dense_offsets(arr: np.ndarray) -> Optional[np.ndarray]:
    """``arr - arr.min()`` as int64 (``arr`` itself when that is already
    so) when ``arr`` is a non-empty 1-D integer array whose range
    ``max - min`` is below ``4n``, else ``None``.

    Such labels (every solver's output, densified initial labels, slices of
    a packed batch) index an O(n) scratch table directly, so counting and
    renumbering them needs no sort.
    """
    if arr.ndim != 1 or not arr.size or not np.issubdtype(arr.dtype, np.integer):
        return None
    lo = arr.min()
    if int(arr.max()) - int(lo) >= 4 * arr.size:
        return None
    if lo == 0 and arr.dtype == np.int64:
        return arr  # canonical labels: callers only read the offsets
    # unsafe casting wraps uint64 values above 2**63, but the difference
    # (below 4n) comes out exact modulo 2**64
    return np.subtract(arr, lo, dtype=np.int64, casting="unsafe")


def canonical_labels(labels) -> np.ndarray:
    """Renumber labels to consecutive integers by first appearance.

    Two label arrays describe the same partition iff their canonical forms
    are equal; every algorithm in this package returns canonical labels so
    results are directly comparable with ``np.array_equal``.

    Dense 1-D integer labels (range below ``4n``, negative ones included)
    are renumbered in O(n): a scatter-min finds each label's first index,
    the nodes sitting at their label's first index are flagged, one cumsum
    of the flags numbers them, and two gathers hand each node its label's
    number.  Every other input — non-integer, n-D, empty or sparse — takes
    the ``np.unique`` sort, which yields the same labels.
    """
    arr = np.asarray(labels)
    offsets = _dense_offsets(arr)
    if offsets is None:
        return _canonical_labels_by_sort(arr)
    n = len(offsets)
    idx = np.arange(n, dtype=np.int64)
    # At least n long: a scratch sized to a range below n fragmented the
    # heap and raised the solve's peak RSS.
    scratch = np.full(max(int(offsets.max()) + 1, n), n, dtype=np.int64)
    np.minimum.at(scratch, offsets, idx)  # defined for repeated indices
    first = scratch[offsets]  # the first index of each node's label
    del scratch, offsets
    number = np.cumsum(first == idx, dtype=np.int64)
    number -= 1
    return number[first]


def _canonical_labels_by_sort(arr: np.ndarray) -> np.ndarray:
    """:func:`canonical_labels` by an ``np.unique`` sort: any dtype and
    shape, and the reference for the O(n) path."""
    _, first_index, inverse = np.unique(arr, return_index=True, return_inverse=True)
    # np.unique orders by value; re-rank by first appearance instead.
    order_by_appearance = np.argsort(first_index, kind="stable")
    remap = np.empty(len(first_index), dtype=np.int64)
    remap[order_by_appearance] = np.arange(len(first_index), dtype=np.int64)
    return remap[inverse].astype(np.int64)


def same_partition(labels_a, labels_b) -> bool:
    """True iff the two label arrays induce the same equivalence relation."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        return False
    return bool(np.array_equal(canonical_labels(a), canonical_labels(b)))


def num_blocks(labels) -> int:
    """Number of distinct blocks in a label array."""
    arr = np.asarray(labels)
    offsets = _dense_offsets(arr)
    if offsets is not None:
        # dense labels (the canonical form every solver returns): one
        # O(n + range) histogram beats a sort/hash unique
        return int(np.count_nonzero(np.bincount(offsets)))
    return int(len(np.unique(arr)))


def refines(fine, coarse) -> bool:
    """True iff partition ``fine`` refines partition ``coarse``.

    Every block of ``fine`` must be contained in a single block of
    ``coarse`` — equivalently, equal fine-labels imply equal coarse-labels.
    """
    f = np.asarray(fine)
    c = np.asarray(coarse)
    if f.shape != c.shape:
        raise InvalidInstanceError("partitions must label the same elements")
    order = np.argsort(f, kind="stable")
    fs, cs = f[order], c[order]
    same_fine = fs[1:] == fs[:-1]
    return bool(np.all(cs[1:][same_fine] == cs[:-1][same_fine]))


def is_stable(labels, function) -> bool:
    """True iff the partition is stable under ``f``: equal labels imply
    equal labels of the images (condition 2 of the problem statement)."""
    lab = np.asarray(labels)
    f = validate_function(function)
    if len(lab) != len(f):
        raise InvalidInstanceError("labels and function must have the same length")
    order = np.argsort(lab, kind="stable")
    ls = lab[order]
    images = lab[f[order]]
    same_block = ls[1:] == ls[:-1]
    return bool(np.all(images[1:][same_block] == images[:-1][same_block]))


def is_valid_solution(labels, function, initial_labels) -> bool:
    """Solution validity = refines the initial partition and is stable."""
    return refines(labels, initial_labels) and is_stable(labels, function)


@dataclass
class SFCPInstance:
    """A single function coarsest partition instance.

    Attributes
    ----------
    function:
        ``A_f`` with ``A_f[x] = f(x)``.
    initial_labels:
        ``A_B`` with equal values marking elements of the same initial block.
    """

    function: np.ndarray
    initial_labels: np.ndarray

    def __post_init__(self) -> None:
        self.function = validate_function(self.function)
        self.initial_labels = validate_labels(self.initial_labels, len(self.function),
                                              name="initial_labels")

    @property
    def n(self) -> int:
        return int(len(self.function))

    @classmethod
    def from_arrays(cls, function: Sequence[int], initial_labels: Sequence[int]) -> "SFCPInstance":
        return cls(np.asarray(function), np.asarray(initial_labels))

    @classmethod
    def from_one_indexed(cls, function: Sequence[int], initial_labels: Sequence[int]) -> "SFCPInstance":
        """Build an instance from the paper's 1-indexed array notation.

        The paper's Example 2.2 gives ``A_f[1..16]`` and ``A_B[1..16]`` with
        values in ``1..n``; this constructor shifts elements down by one.
        """
        f = as_int_array(function, "function") - 1
        labels = as_int_array(initial_labels, "initial_labels")
        return cls(f, labels)

    def verify(self, labels) -> None:
        """Raise if ``labels`` is not a valid (not necessarily coarsest)
        solution for this instance."""
        lab = validate_labels(labels, self.n, name="solution labels")
        if not refines(lab, self.initial_labels):
            raise InvalidInstanceError("solution does not refine the initial partition")
        if not is_stable(lab, self.function):
            raise InvalidInstanceError("solution is not stable under f")


def paper_example_2_2() -> SFCPInstance:
    """The worked instance of the paper's Example 2.2 (two cycles, n = 16)."""
    a_f = [2, 4, 6, 8, 10, 12, 1, 3, 5, 7, 9, 11, 14, 15, 16, 13]
    a_b = [1, 2, 1, 1, 2, 2, 3, 3, 1, 1, 3, 1, 1, 2, 1, 3]
    return SFCPInstance.from_one_indexed(a_f, a_b)


def paper_example_2_2_expected_labels() -> np.ndarray:
    """The output ``A_Q`` stated at the end of the paper's Example 3.1."""
    return np.asarray([1, 2, 1, 3, 2, 2, 4, 4, 1, 3, 4, 3, 1, 2, 3, 4], dtype=np.int64)


def brute_force_coarsest(function, initial_labels, *, max_rounds: Optional[int] = None) -> np.ndarray:
    """Reference coarsest partition by naive fixed-point refinement.

    Repeatedly replaces each element's label by the pair
    ``(label[x], label[f(x)])`` (re-densified) until no change — the direct
    transcription of Lemma 2.1(i).  O(n²) worst case (n rounds of O(n));
    used as the test oracle on small instances and as the "naive parallel"
    baseline's sequential twin.
    """
    f = validate_function(function)
    n = len(f)
    labels = canonical_labels(validate_labels(initial_labels, n))
    rounds = max_rounds if max_rounds is not None else n + 1
    for _ in range(rounds):
        combined = labels * (n + 1) + labels[f]
        new_labels = canonical_labels(combined)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels
