"""Parallel prefix sums (scan), reductions, and compaction.

Prefix sums are the workhorse primitive behind almost every step of the
paper's algorithm: array compaction after marking, allocating processors to
pairs, computing block offsets for the pair-encoding rounds, and ranking.
The classic balanced-binary-tree scan runs in ``O(log n)`` time and
``O(n)`` work on the EREW PRAM (see JáJá's textbook, ch. 2), and that is
the cost charged here: the up-sweep and down-sweep are executed as
``2 * ceil(log2 n)`` synchronous rounds, with the number of active
processors halving / doubling each round.

All functions take an optional ``machine``; when omitted a fresh default
(arbitrary CRCW) machine is created so the cost of a standalone call can
still be inspected via the returned machine if desired.  The functions are
deliberately *pure* with respect to their inputs (they never modify the
caller's arrays).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..pram.machine import Machine


def _ensure_machine(machine: Optional[Machine]) -> Machine:
    return machine if machine is not None else Machine.default()


def prefix_sums(values, *, machine: Optional[Machine] = None, inclusive: bool = True) -> np.ndarray:
    """Compute (in|ex)clusive prefix sums with PRAM-faithful cost charging.

    The returned array ``out`` satisfies ``out[i] = sum(values[:i+1])`` for
    the inclusive scan, or ``sum(values[:i])`` for the exclusive scan.

    Cost: ``O(log n)`` rounds, ``O(n)`` work — the balanced-tree schedule
    charges ``n/2 + n/4 + ... <= n`` work for the up-sweep and the same for
    the down-sweep.
    """
    m = _ensure_machine(machine)
    arr = np.asarray(values)
    n = len(arr)
    if n == 0:
        return arr.copy()
    with m.span("prefix_sums"):
        # Up-sweep + down-sweep: each sweep is one balanced-tree schedule
        # (n - 1 work over ceil(log2 n) rounds), charged in closed form.
        m.charge_tree(n)
        m.charge_tree(n)
        out = np.cumsum(arr)
    if inclusive:
        return out
    exclusive = np.empty_like(out)
    exclusive[0] = 0
    exclusive[1:] = out[:-1]
    return exclusive


def reduce_sum(values, *, machine: Optional[Machine] = None) -> int:
    """Tree reduction (sum) in ``O(log n)`` rounds and ``O(n)`` work."""
    m = _ensure_machine(machine)
    arr = np.asarray(values)
    n = len(arr)
    if n == 0:
        return 0
    with m.span("reduce"):
        m.charge_tree(n)
        return int(arr.sum())


def reduce_min(values, *, machine: Optional[Machine] = None) -> int:
    """Tree reduction (min) in ``O(log n)`` rounds and ``O(n)`` work.

    The paper's *efficient m.s.p.* Step 1 needs the global minimum symbol;
    on the common CRCW PRAM this can also be done in O(1) time with
    ``O(n^{1+eps})`` work, but the tree reduction keeps the work linear,
    which is what the overall operation bound needs.
    """
    m = _ensure_machine(machine)
    arr = np.asarray(values)
    if len(arr) == 0:
        raise ValueError("reduce_min of an empty array")
    with m.span("reduce"):
        m.charge_tree(len(arr))
        return int(arr.min())


def compact(values, mask, *, machine: Optional[Machine] = None) -> np.ndarray:
    """Pack ``values[mask]`` into a contiguous array, preserving order.

    Implemented as an exclusive prefix sum over the mask (the standard PRAM
    array-packing technique): ``O(log n)`` rounds, ``O(n)`` work.
    """
    m = _ensure_machine(machine)
    vals = np.asarray(values)
    msk = np.asarray(mask, dtype=bool)
    if len(vals) != len(msk):
        raise ValueError("values and mask must have the same length")
    with m.span("compact"):
        offsets = prefix_sums(msk.astype(np.int64), machine=m, inclusive=False)
        m.tick(len(vals))  # scatter step
        total = int(msk.sum())
        out = np.empty(total, dtype=vals.dtype)
        out[offsets[msk]] = vals[msk]
    return out


def compact_indices(mask, *, machine: Optional[Machine] = None) -> np.ndarray:
    """Indices of the true entries of ``mask`` (packed, ascending)."""
    msk = np.asarray(mask, dtype=bool)
    return compact(np.arange(len(msk), dtype=np.int64), msk, machine=machine)


def enumerate_true(mask, *, machine: Optional[Machine] = None) -> Tuple[np.ndarray, int]:
    """Assign consecutive ranks 0..k-1 to the true entries of ``mask``.

    Returns ``(ranks, k)`` where ``ranks[i]`` is the rank of entry ``i``
    among true entries (undefined — left as the scan value — for false
    entries) and ``k`` is the number of true entries.
    """
    m = _ensure_machine(machine)
    msk = np.asarray(mask, dtype=bool)
    scan = prefix_sums(msk.astype(np.int64), machine=m, inclusive=False)
    return scan, int(msk.sum())


def segmented_prefix_sums(
    values,
    segment_heads,
    *,
    machine: Optional[Machine] = None,
    inclusive: bool = True,
) -> np.ndarray:
    """Prefix sums restarted at every position where ``segment_heads`` is true.

    The segmented scan has the same ``O(log n)`` / ``O(n)`` cost as the
    plain scan (it is a scan over a different semigroup); it is used to
    rank nodes within each cycle after the cycles have been laid out
    consecutively in memory (Algorithm *cycle node labeling*, Step 1).
    """
    m = _ensure_machine(machine)
    vals = np.asarray(values, dtype=np.int64)
    heads = np.asarray(segment_heads, dtype=bool)
    if len(vals) != len(heads):
        raise ValueError("values and segment_heads must have the same length")
    n = len(vals)
    if n == 0:
        return vals.copy()
    if not heads[0]:
        raise ValueError("the first position must be a segment head")
    with m.span("segmented_prefix_sums"):
        m.charge_tree(n)
        m.tick(n)
        total = np.cumsum(vals)
        head_positions = np.flatnonzero(heads)
        # value of the running total just before each segment start
        seg_base_per_head = np.concatenate(([0], total[head_positions[1:] - 1]))
        seg_id = np.cumsum(heads.astype(np.int64)) - 1
        inclusive_result = total - seg_base_per_head[seg_id]
    if inclusive:
        return inclusive_result
    exclusive = inclusive_result - vals
    return exclusive


def segment_ids(segment_heads, *, machine: Optional[Machine] = None) -> np.ndarray:
    """Map each position to the index of its segment (heads flagged true)."""
    m = _ensure_machine(machine)
    heads = np.asarray(segment_heads, dtype=bool)
    if len(heads) == 0:
        return np.zeros(0, dtype=np.int64)
    if not heads[0]:
        raise ValueError("the first position must be a segment head")
    scanned = prefix_sums(heads.astype(np.int64), machine=m, inclusive=True)
    return scanned - 1
