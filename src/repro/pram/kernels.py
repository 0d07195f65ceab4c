"""Host-realisation kernels for the sort-shaped hot paths.

The cost adapter (see :mod:`repro.primitives.integer_sort` and
:meth:`repro.pram.metrics.CostCounter.charge_adapter`) decouples what an
algorithm *charges* from what the host actually *executes*: the charged
``time``/``work``/``charged_work`` figures are closed-form and fixed, so
the realisation underneath is free to be as fast as the hardware allows.
This module is that realisation layer.  Every kernel here is a pure NumPy
function with **no cost accounting of its own** — changing a kernel must
never move a charged total (the charging-parity goldens and the CI
``perf-smoke`` job enforce this).

:func:`sort_indices` realises every integer sort with :func:`radix_kernel`,
a vectorised LSD radix sort over 16-bit digits.  Each pass extracts one
digit and counting-sorts it — histogram, cumulative bucket offsets,
stable scatter — by delegating the pass to NumPy's stable integer
argsort, which for <=16-bit keys *is* that counting-sort recipe (an LSD
byte-radix in C since NumPy 1.17).  The number of passes is
``ceil(bits(key_range) / 16)``, so the kernel is O(n) for the polynomial
ranges the paper needs (1 pass for codes below 2^16, 3 passes at ``n^2``
with ``n = 2^20``) instead of the O(n log n) comparison sort a full-width
argsort costs.  A full-width stable argsort stays as the fallback below
``_RADIX_MIN_N`` keys, where the per-pass bucket overhead does not pay
off, and for keys with negatives (:func:`grouped_sort`).

:func:`cycle_min_labels` is the companion kernel for circuit labeling on
a permutation (Euler-tour circuits): a sparse-ruling-set walk that
contracts each cycle to ~``n / log n`` rulers, min-labels the contracted
permutation by pointer doubling, and expands — O(n) host operations
instead of the O(n log n) full-array doubling it replaces.

:func:`forest_levels` walks the trees of a functional graph outward from
their cycle roots, one level at a time, and :func:`subtree_sizes` and
:func:`preorder` read the tree shape off that walk: the host side of tree
labeling's level path, which replaces the Euler tour and its list ranking
on the host (the caller still charges the tour).  Each takes O(n) host
operations plus O(1) NumPy calls per level.

:func:`residual_forest_classes` does the same for the residual forest of
tree labeling (Lemma 4.2): it classes every residual node outward from
the labelled nodes the residual trees hang from, one depth level at a
time, in O(n) host operations plus O(1) NumPy calls per level, instead of
the Θ(n log D) BB-table doubling over all ``n`` nodes.

Under ``wall_profiling`` every kernel call is attributed to a
``[kernel] <name>`` row under the span that called it.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional

import numpy as np

from .metrics import kernel_timing

#: Largest pair ``key_range`` for which the packed composite ``a * rng + b``
#: stays within int64 (``rng**2 - 1 <= 2**63 - 1``); above it the fused
#: pair sort must fall back to two single-key passes.
PAIR_PACK_MAX_RANGE = math.isqrt(2**63 - 1)

#: Bits per radix digit; 16 keeps the per-pass bucket table (2^16) cache
#: resident while needing only ``ceil(bits / 16)`` passes.
_RADIX_DIGIT_BITS = 16
_RADIX_DIGIT_MASK = (1 << _RADIX_DIGIT_BITS) - 1

#: Below this many keys the per-pass overhead beats the asymptotics and a
#: plain stable argsort wins (measured crossover ~512-1024 on the
#: development container).
_RADIX_MIN_N = 1024


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """Full-width stable argsort: the fallback for small or signed keys."""
    return np.argsort(keys, kind="stable").astype(np.int64, copy=False)


def radix_kernel(keys: np.ndarray, key_range: int) -> np.ndarray:
    """Stable LSD radix argsort over 16-bit digits of ``[0, key_range)`` keys.

    Returns exactly the permutation ``np.argsort(keys, kind="stable")``
    would (the composition of stable digit passes is the stable sort by
    the full key), in ``ceil(bits / 16)`` O(n) passes.
    """
    n = len(keys)
    if n < _RADIX_MIN_N:
        return _stable_argsort(keys)
    # promote narrow dtypes once so the digit mask cannot overflow them
    keys = np.asarray(keys).astype(np.int64, copy=False)
    bits = max(1, int(key_range - 1).bit_length()) if key_range > 1 else 1
    if bits > _RADIX_DIGIT_BITS:
        # A constant offset does not change the sorting permutation, so a
        # large common prefix can be subtracted away; the doubling rounds
        # of the partition pipeline (keys in [base, base + O(n)) with base
        # growing every round) lose one whole pass to this.
        key_min = int(keys.min())
        shifted_bits = max(1, int(key_range - 1 - key_min).bit_length())
        if key_min > 0 and (
            (shifted_bits + _RADIX_DIGIT_BITS - 1) // _RADIX_DIGIT_BITS
            < (bits + _RADIX_DIGIT_BITS - 1) // _RADIX_DIGIT_BITS
        ):
            keys = keys - key_min
            bits = shifted_bits
    order: Optional[np.ndarray] = None
    for shift in range(0, bits, _RADIX_DIGIT_BITS):
        current = keys if order is None else keys[order]
        sliced = current if shift == 0 else current >> shift
        if bits - shift > _RADIX_DIGIT_BITS:
            sliced = sliced & _RADIX_DIGIT_MASK
        digit = sliced.astype(np.uint16)
        # One counting-sort pass: NumPy's stable argsort on <=16-bit ints
        # is the histogram + cumulative-offsets + stable-scatter radix
        # pass in C.
        pass_perm = np.argsort(digit, kind="stable")
        order = pass_perm.astype(np.int64, copy=False) if order is None else order[pass_perm]
    assert order is not None
    return order


def sort_indices(keys: np.ndarray, key_range: int) -> np.ndarray:
    """Stable sorting permutation of non-negative ``keys`` below ``key_range``.

    Profiled runs attribute each call to the ``[kernel] radix`` row.
    """
    with kernel_timing("radix"):
        return radix_kernel(keys, key_range)


def grouped_sort(
    keys: np.ndarray, key_bound: Optional[int] = None
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Stable grouping of keys: ``(order, sorted_keys, starts, is_first)``.

    ``order`` stably sorts ``keys``; ``starts`` indexes the first
    occurrence of each distinct key in the sorted order and ``is_first``
    is the boundary mask those starts came from — the shared ingredients
    of every winner-resolution and deduplication step.  ``key_bound``
    (exclusive upper bound) routes the sort through the O(n) radix
    kernel; ``None`` derives it from the data, falling back to a plain
    stable argsort when the keys contain negatives.
    """
    n = len(keys)
    if key_bound is None:
        key_bound = int(keys.max()) + 1 if n and int(keys.min()) >= 0 else 0
    if key_bound <= 0:
        order = _stable_argsort(keys)
    else:
        order = sort_indices(keys, key_bound)
    sorted_keys = keys[order]
    starts, is_first = _group_starts(sorted_keys)
    return order, sorted_keys, starts, is_first


def _group_starts(sorted_keys: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``(starts, is_first)`` of the runs of equal keys in ``sorted_keys``."""
    is_first = np.empty(len(sorted_keys), dtype=bool)
    if len(sorted_keys):
        is_first[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=is_first[1:])
    return np.flatnonzero(is_first), is_first


def winner_positions(starts: np.ndarray, total: int, *, first: bool) -> np.ndarray:
    """Sorted-order index of each group's surviving entry.

    With a *stable* grouping sort, writer order is preserved within each
    group, so a group's first entry is the lowest-index (FIRST) writer
    and its last entry the highest-index (LAST) one.  Shared by the
    audited write resolution and the unaudited bulk-step fast paths —
    the two are contractually required to pick the same winners.
    """
    return starts if first else np.append(starts[1:], total) - 1


# ----------------------------------------------------------------------
# cycle labeling on a permutation
# ----------------------------------------------------------------------
def _min_doubling(values: np.ndarray, successor: np.ndarray, rounds: int) -> np.ndarray:
    """Min-label pointer doubling: per node, min of ``values`` over its cycle."""
    label = values.copy()
    ptr = successor.copy()
    for _ in range(rounds):
        new_label = np.minimum(label, label[ptr])
        new_ptr = ptr[ptr]
        if np.array_equal(new_label, label) and np.array_equal(new_ptr, ptr):
            break
        label, ptr = new_label, new_ptr
    return label


def cycle_min_labels(successor: np.ndarray) -> np.ndarray:
    """Minimum index on each cycle of the permutation ``successor``, per node.

    Profiled runs attribute this kernel to the ``[kernel] cycle_labels``
    row (see :func:`repro.pram.metrics.kernel_timing`).

    Frontier-contracted realisation: rulers are taken at every
    ``ceil(log2 n)``-th array position; one walker per ruler follows the
    cycle to the next ruler, recording ownership and a running segment
    minimum, and retires on arrival — host work tracks the shrinking
    walker frontier, totalling O(n) hops because the segments partition
    the rulered cycles.  The contracted ruler permutation (~``n / log n``
    nodes) is then min-labelled by plain pointer doubling and the result
    expanded through the recorded owners.  Cycles that contain no ruler
    position (possible only for short or adversarially laid-out cycles)
    are labelled by doubling on their compacted subpermutation; a walk
    that exceeds its round budget (adversarial segment lengths) falls
    back to full-array doubling.  Every path returns the identical
    labels, and none of them touches a cost counter — the caller charges
    the closed-form reference figures.
    """
    with kernel_timing("cycle_labels"):
        return _cycle_min_labels(successor)


def _cycle_min_labels(successor: np.ndarray) -> np.ndarray:
    n = len(successor)
    idx = np.arange(n, dtype=np.int64)
    label = idx.copy()
    if n == 0:
        return label
    succ = successor
    is_self = succ == idx
    spacing = max(2, int(np.ceil(np.log2(max(2, n)))))
    ruler_mask = ((idx % spacing) == 0) & ~is_self
    rulers = np.flatnonzero(ruler_mask)
    k = len(rulers)
    owner = np.full(n, -1, dtype=np.int64)
    if k:
        seg_min = rulers.copy()
        next_ruler = np.empty(k, dtype=np.int64)
        active = np.arange(k, dtype=np.int64)
        cursor = succ[rulers]
        walk_budget = 64 + 32 * spacing
        walked = 0
        while len(active):
            walked += 1
            if walked > walk_budget:
                # Adversarial layout: some segment is far longer than the
                # expected O(log n).  Doubling is O(n log n) but bounded.
                return _min_doubling(idx, succ, int(np.ceil(np.log2(max(2, n)))) + 2)
            arrived = ruler_mask[cursor]
            next_ruler[active[arrived]] = cursor[arrived]
            walking = ~arrived
            active = active[walking]
            stepped = cursor[walking]
            owner[stepped] = active
            seg_min[active] = np.minimum(seg_min[active], stepped)
            cursor = succ[stepped]
        ruler_index = np.empty(n, dtype=np.int64)
        ruler_index[rulers] = np.arange(k, dtype=np.int64)
        contracted_succ = ruler_index[next_ruler]
        contracted = _min_doubling(
            seg_min, contracted_succ, int(np.ceil(np.log2(max(2, k)))) + 2
        )
        label[rulers] = contracted
        interior = owner >= 0
        label[interior] = contracted[owner[interior]]
    # Cycles that contain no ruler position: unvisited non-ruler,
    # non-fixed-point nodes.  The set is closed under ``succ`` (a walker
    # covers *every* node of a cycle that has at least one ruler).
    uncovered = np.flatnonzero((owner < 0) & ~ruler_mask & ~is_self)
    if len(uncovered):
        u = len(uncovered)
        compact = np.empty(n, dtype=np.int64)
        compact[uncovered] = np.arange(u, dtype=np.int64)
        sub_succ = compact[succ[uncovered]]
        label[uncovered] = _min_doubling(
            uncovered, sub_succ, int(np.ceil(np.log2(max(2, u)))) + 2
        )
    return label


# ----------------------------------------------------------------------
# tree levels (tree labeling's level path)
# ----------------------------------------------------------------------
class ForestLevels(NamedTuple):
    """The trees of a functional graph, walked outward from their roots.

    Every array is indexed by *position*.  Positions ``bounds[L]`` to
    ``bounds[L + 1] - 1`` hold the nodes at level ``L``: level 0 the roots
    (the cycle nodes with tree children, by index), level ``L >= 1`` the
    tree nodes at distance ``L`` from their cycle.  Within a level, the
    children of one parent are contiguous, by index, and follow their
    parents' order.
    """

    #: node at each position
    nodes: np.ndarray
    #: position of each node's parent (a root's own position)
    parent: np.ndarray
    #: root index (0 .. number of roots - 1) of each node's tree
    root: np.ndarray
    #: level boundaries, one more than the number of levels
    bounds: List[int]


def forest_levels(
    function: np.ndarray, on_cycle: np.ndarray, order: np.ndarray, max_levels: int
) -> Optional[ForestLevels]:
    """The :class:`ForestLevels` of the trees hanging off the cycles.

    ``order`` lists the nodes by ``(f(y), y)``, so each node's in-arcs
    are contiguous in it; the walk gathers each level's children from
    there.  Returns ``None`` as soon as a level deeper than ``max_levels``
    appears, so that a deep forest costs at most ``max_levels`` levels'
    NumPy calls before the caller takes another path.  Requires at least
    one tree node, and raises :class:`ValueError` when some unmarked node
    never drains into a marked one.  Profiled runs attribute it to the
    ``[kernel] tree_levels`` row.
    """
    with kernel_timing("tree_levels"):
        return _forest_levels(function, on_cycle, order, max_levels)


def _forest_levels(
    f: np.ndarray, on_cycle: np.ndarray, order: np.ndarray, max_levels: int
) -> Optional[ForestLevels]:
    if max_levels < 1:
        return None
    n = len(f)
    children = order[~on_cycle[order]]
    heads = f[children]
    count = np.bincount(heads, minlength=n)
    start = np.cumsum(count)
    start -= count
    first = on_cycle[heads]
    level1 = children[first]
    if len(level1) == 0:
        raise ValueError(_UNMARKED_CYCLE)
    root_of_first = heads[first]
    is_new = np.empty(len(root_of_first), dtype=bool)
    is_new[0] = True
    np.not_equal(root_of_first[1:], root_of_first[:-1], out=is_new[1:])
    roots = root_of_first[is_new]
    r, c = len(roots), len(children)
    total = r + c
    nodes = np.empty(total, dtype=np.int64)
    parent = np.empty(total, dtype=np.int64)
    root = np.empty(total, dtype=np.int64)
    nodes[:r] = roots
    parent[:r] = root[:r] = np.arange(r, dtype=np.int64)
    hi = r + len(level1)
    nodes[r:hi] = level1
    parent[r:hi] = root[r:hi] = np.cumsum(is_new) - 1
    bounds = [0, r, hi]
    position = np.arange(total, dtype=np.int64)
    frontier = level1
    lo = r
    # Each level: the children of the frontier, parent by parent, are the
    # runs children[start[p] : start[p] + count[p]].
    while True:
        per = count[frontier]
        ends = per.cumsum()
        width = int(ends[-1])
        if width == 0:
            break
        if len(bounds) > max_levels + 1:
            return None
        ends -= start[frontier]
        slot = np.repeat(per - ends, per)
        slot += position[:width]
        frontier = nodes[hi:hi + width] = children[slot]
        owner = parent[hi:hi + width] = np.repeat(position[lo:hi], per)
        root[hi:hi + width] = root[owner]
        lo, hi = hi, hi + width
        bounds.append(hi)
    if hi != total:
        raise ValueError(_UNMARKED_CYCLE)
    return ForestLevels(nodes, parent, root, bounds)


_UNMARKED_CYCLE = "on_cycle leaves a cycle unmarked: some tree nodes drain into no marked node"


def subtree_sizes(levels: ForestLevels) -> np.ndarray:
    """Nodes in the subtree at each position, itself included, one level
    at a time from the deepest."""
    with kernel_timing("tree_levels"):
        size = np.ones(len(levels.nodes), dtype=np.int64)
        bounds = levels.bounds
        for lo, hi in zip(bounds[-2:0:-1], bounds[:1:-1]):
            # a copy: values that alias the target take NumPy's slow path
            np.add.at(size, levels.parent[lo:hi], size[lo:hi].copy())
        return size


def preorder(levels: ForestLevels, size: np.ndarray) -> np.ndarray:
    """Preorder index of each position within its tree, children by index.

    A root's children start at 0; a node comes ``1 +`` the sizes of its
    earlier siblings after its parent.  Roots read ``-1``.
    """
    with kernel_timing("tree_levels"):
        parent = levels.parent
        # exclusive prefix of sizes, less its value at the first sibling
        before = np.cumsum(size)
        before -= size
        bounds = levels.bounds
        first = np.empty(len(parent), dtype=bool)
        np.not_equal(parent[1:], parent[:-1], out=first[1:])
        first[: bounds[1] + 1] = True
        starts = np.flatnonzero(first)
        pre = before - np.repeat(before[starts], np.diff(starts, append=len(parent)))
        pre += 1
        pre[: bounds[1]] = -1
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            pre[lo:hi] += pre[parent[lo:hi]]
        return pre


def residual_depths(levels: ForestLevels, unmarked: np.ndarray) -> np.ndarray:
    """Residual nodes on each tree position's path to its root.

    ``unmarked`` flags the tree positions (from ``bounds[1]`` on).  A node
    is residual iff it or an ancestor below the root is unmarked; its
    residual depth counts the residual nodes from it up to the first node
    that is not (itself included), and is 0 off the residual forest.
    Returns one entry per tree position.
    """
    with kernel_timing("tree_levels"):
        bounds, parent = levels.bounds, levels.parent
        depth = np.zeros(len(parent), dtype=np.int64)
        depth[bounds[1]:] = unmarked
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            up = depth[parent[lo:hi]]
            here = depth[lo:hi]
            np.maximum(here, up > 0, out=here)
            here += up
        return depth[bounds[1]:]


# ----------------------------------------------------------------------
# residual-forest labeling (tree labeling, Lemma 4.2)
# ----------------------------------------------------------------------
def residual_forest_classes(
    function: np.ndarray,
    labels: np.ndarray,
    absorber_labels: np.ndarray,
    residual: np.ndarray,
    level: np.ndarray,
    *,
    last: bool = False,
    depth: Optional[np.ndarray] = None,
) -> "tuple[np.ndarray, int]":
    """Lemma 4.2 class of every residual node, and the forest's depth.

    ``residual`` masks the nodes still to be labelled; every other node
    is an *absorber* carrying its label in ``absorber_labels``, and each
    residual tree hangs from one.  By Lemma 4.2 two residual nodes are
    equivalent iff their root-path strings of ``labels`` are equal and
    the absorbers at the ends of those paths carry the same label —
    which makes equivalent nodes lie at the same *residual depth* (the
    number of residual nodes on the path, the node included).  Returns
    ``(representative, deepest)``: per residual node in ascending node
    order, the lowest node index of its class (the highest with
    ``last=True``), and the largest residual depth.

    Profiled runs attribute this kernel to the ``[kernel] residual_forest``
    row.  Two passes, each over the nodes bucketed by one O(n) counting
    sort:

    1. by Euler ``level`` (distance to the cycle; a node's parent lies
       one level up), so the residual depth is one gather per level:
       ``depth(x) = depth(f(x)) + 1``, with absorbers at depth 0;
    2. by residual depth, outward from the absorbers: a node's class is
       keyed by its label and its parent's class (its absorber's label
       at depth 1), and one sort per depth dedupes the keys.

    Classes must be numbered per residual depth, not per Euler level:
    residual trees that hang from inherited tree nodes at different
    levels share classes.  Host work is O(n) plus O(1) NumPy calls per
    level, so the caller keeps forests that are deep relative to ``n``
    on the doubling loop.  A caller that knows every node's residual
    depth already (0 on absorbers, as :func:`residual_depths` gives it)
    passes it as ``depth`` and skips the first pass.  Charges nothing:
    the caller charges the closed-form figures of the loop this replaces.
    """
    with kernel_timing("residual_forest"):
        return _residual_forest_classes(
            function, labels, absorber_labels, residual, level, last, depth
        )


def _bucket(keys: np.ndarray) -> "tuple[np.ndarray, List[int]]":
    """Node ids stably counting-sorted by ``keys``, and the bucket bounds."""
    bound = int(keys.max()) + 1
    bounds = np.zeros(bound + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=bound), out=bounds[1:])
    return radix_kernel(keys, bound), bounds.tolist()


def _residual_forest_classes(
    function: np.ndarray,
    labels: np.ndarray,
    absorber_labels: np.ndarray,
    residual: np.ndarray,
    level: np.ndarray,
    last: bool,
    depth: Optional[np.ndarray],
) -> "tuple[np.ndarray, int]":
    n = len(function)
    # Both passes bucket all n nodes, the absorbers into bucket 0, so every
    # large array here has the solve's common length n: arrays of the
    # residual count instead left holes the allocator kept across solves.
    if depth is None:
        by_level, level_bounds = _bucket(np.where(residual, level, 0))
        depth = np.zeros(n, dtype=np.int64)
        for lo, hi in zip(level_bounds[1:], level_bounds[2:]):
            if hi > lo:
                nodes = by_level[lo:hi]
                depth[nodes] = depth[function[nodes]] + 1
        del by_level
    by_depth, depth_bounds = _bucket(depth)
    del depth

    # A node's class is named by its representative's index (< n); an
    # absorber's "class" is n + its label, so one key formula serves every
    # depth: label * span + class of the parent.
    span = n + int(absorber_labels.max()) + 1
    key_bound = (int(labels.max()) + 1) * span
    cls = absorber_labels + n
    for lo, hi in zip(depth_bounds[1:], depth_bounds[2:]):
        nodes = by_depth[lo:hi]
        if hi - lo <= 1:
            cls[nodes] = nodes
            continue
        key = labels[nodes] * span + cls[function[nodes]]
        order = radix_kernel(key, key_bound)
        nodes = nodes[order]
        starts, _ = _group_starts(key[order])
        reps = nodes[winner_positions(starts, hi - lo, first=not last)]
        cls[nodes] = np.repeat(reps, np.diff(np.append(starts, hi - lo)))
    return cls[residual], len(depth_bounds) - 2
