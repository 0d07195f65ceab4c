"""Shared result dataclasses and type aliases for the ``repro`` package.

The library's algorithm entry points return rich result objects rather than
bare arrays: every result bundles the computed answer together with the
PRAM cost accounting (parallel time, total work, per-phase spans) gathered
while the algorithm ran on the simulator.  The dataclasses in this module
are deliberately plain and serialisable so that benchmark harnesses can
dump them to CSV without knowing anything about the algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: An array of per-element partition labels.  Two elements belong to the
#: same block iff their labels are equal.  Labels are arbitrary integers;
#: use :func:`repro.partition.problem.canonical_labels` to normalise.
LabelArray = np.ndarray

#: An array ``A_f`` with ``A_f[x] = f(x)`` describing a total function on
#: ``{0, .., n-1}``.
FunctionArray = np.ndarray

#: A linear or circular string represented as an ``int64`` NumPy array of
#: symbol codes.
SymbolArray = np.ndarray


@dataclass
class CostSummary:
    """Flat summary of a :class:`repro.pram.metrics.CostCounter`.

    Attributes
    ----------
    time:
        Number of synchronous parallel steps (PRAM rounds) charged.
    work:
        Total number of elementary operations charged (sum over steps of
        the number of active processors).
    charged_work:
        Work after applying any *cost adapters* (e.g. charging the
        published Bhatt et al. integer-sorting bound instead of the
        operations the pure-Python sort actually performed).  Equal to
        ``work`` when no adapter was used.
    spans:
        Mapping from phase label to ``(time, work)`` charged within that
        phase.  Phases may nest; the mapping stores the *flattened* label
        path joined with ``"/"``.
    """

    time: int = 0
    work: int = 0
    charged_work: int = 0
    spans: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def as_row(self) -> Dict[str, object]:
        """Return a flat dict suitable for CSV/table rendering."""
        row: Dict[str, object] = {
            "time": self.time,
            "work": self.work,
            "charged_work": self.charged_work,
        }
        for label, (t, w) in sorted(self.spans.items()):
            row[f"span:{label}:time"] = t
            row[f"span:{label}:work"] = w
        return row


@dataclass
class PartitionResult:
    """Result of a coarsest-partition computation.

    Attributes
    ----------
    labels:
        Canonicalised Q-labels: ``labels[x] == labels[y]`` iff ``x`` and
        ``y`` are in the same block of the coarsest stable partition.
        Labels are consecutive integers starting at 0, assigned in order
        of first appearance.
    num_blocks:
        Number of blocks in the result partition.
    algorithm:
        Identifier of the algorithm that produced the result
        (e.g. ``"jaja-ryu"``, ``"paige-tarjan-bonic"``).
    cost:
        PRAM cost summary for parallel algorithms; sequential baselines
        report ``time == work`` (one processor).
    """

    labels: LabelArray
    num_blocks: int
    algorithm: str
    cost: CostSummary = field(default_factory=CostSummary)

    def blocks(self) -> List[np.ndarray]:
        """Return the blocks as a list of sorted element arrays."""
        order = np.argsort(self.labels, kind="stable")
        sorted_labels = self.labels[order]
        boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
        return [np.sort(chunk) for chunk in np.split(order, boundaries)]


@dataclass
class MSPResult:
    """Result of a minimal-starting-point computation on a circular string.

    Attributes
    ----------
    index:
        The index ``j0`` such that the rotation starting at ``j0`` is
        lexicographically minimal among all rotations.  When the string is
        periodic there are several minimal rotations; the reported index is
        the smallest one.
    rotation:
        The minimal rotation itself (length-n array), for convenience.
    period:
        Length of the smallest repeating prefix (the period) of the
        circular string.
    algorithm:
        Identifier of the algorithm used.
    cost:
        PRAM cost summary.
    """

    index: int
    rotation: SymbolArray
    period: int
    algorithm: str
    cost: CostSummary = field(default_factory=CostSummary)


@dataclass
class StringSortResult:
    """Result of lexicographically sorting a list of strings.

    Attributes
    ----------
    order:
        Permutation of input indices: ``order[k]`` is the index of the
        k-th smallest string.  The sort is stable (ties keep input order).
    ranks:
        Dense ranks: ``ranks[i]`` is the number of *distinct* strings
        strictly smaller than string ``i``; equal strings share a rank.
    algorithm:
        Identifier of the algorithm used.
    cost:
        PRAM cost summary.
    """

    order: np.ndarray
    ranks: np.ndarray
    algorithm: str
    cost: CostSummary = field(default_factory=CostSummary)


@dataclass
class EquivalenceResult:
    """Result of partitioning equal-length cycles into equivalence classes.

    Attributes
    ----------
    class_of:
        ``class_of[i]`` is the equivalence-class id of cycle ``i``
        (consecutive ids starting at 0, in order of first appearance).
    num_classes:
        Number of distinct classes.
    algorithm:
        Identifier of the algorithm used.
    cost:
        PRAM cost summary.
    """

    class_of: np.ndarray
    num_classes: int
    algorithm: str
    cost: CostSummary = field(default_factory=CostSummary)


@dataclass
class CycleStructure:
    """Structural decomposition of a functional graph (pseudo-forest).

    Attributes
    ----------
    on_cycle:
        Boolean mask, ``True`` for nodes lying on a cycle.
    cycle_id:
        For cycle nodes, the id of their cycle (consecutive from 0);
        ``-1`` for tree nodes.
    cycle_rank:
        For cycle nodes, the position of the node along its cycle starting
        from the cycle's representative (the minimum-index node); ``-1``
        for tree nodes.
    cycle_lengths:
        ``cycle_lengths[c]`` is the length of cycle ``c``.
    root:
        For every node, the cycle node at which its tree path enters the
        cycle (cycle nodes are their own root).
    depth:
        Distance (number of ``f`` applications) from the node to its root;
        0 for cycle nodes.
    """

    on_cycle: np.ndarray
    cycle_id: np.ndarray
    cycle_rank: np.ndarray
    cycle_lengths: np.ndarray
    root: np.ndarray
    depth: np.ndarray

    @property
    def num_cycles(self) -> int:
        return int(len(self.cycle_lengths))

    @property
    def num_cycle_nodes(self) -> int:
        return int(self.on_cycle.sum())


def as_int_array(values: Sequence[int], name: str = "array") -> np.ndarray:
    """Convert ``values`` to a 1-D ``int64`` NumPy array (copying if needed).

    Raises
    ------
    ValueError
        If the input has more than one dimension or non-integral dtype
        that cannot be safely cast.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        if arr.dtype.kind == "f" and np.all(arr == np.floor(arr)):
            arr = arr.astype(np.int64)
        else:
            raise ValueError(f"{name} must contain integers, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.int64)
