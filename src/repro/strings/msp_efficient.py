"""*Algorithm efficient m.s.p.* — the O(n log log n)-work algorithm (Section 3.1).

The efficient algorithm shrinks the circular string geometrically before
falling back on the simple tournament:

1. Let ``m`` be the smallest symbol.  Mark every position holding ``m``
   whose predecessor is not ``m``; only marked positions can be the m.s.p.
   If a single position is marked, it is the answer.
2. From each marked position, group the symbols into ordered pairs until
   the next marked position (circularly); an odd trailing symbol is paired
   with ``m`` (which is precisely the next circular character).  Every
   pair remembers its starting position in the original string.
3. Sort the pairs and replace each by its dense rank (numbers in
   ``[1 .. 2n/3]`` suffice, Lemma 3.6) — one adapter-charged integer sort.
4. Repeat on the shrunken circular string until its length is at most
   ``n / log n`` (Lemma 3.6 guarantees a ≤ 2/3 shrink per round, hence
   O(log log n) rounds).
5. Finish with *Algorithm simple m.s.p.* on the short string; the answer
   maps back through the retained starting positions (Lemma 3.5).

Total cost: O(log n) time and O(n log log n) operations on the arbitrary
CRCW PRAM (Lemma 3.7) — the super-linear term coming exclusively from the
integer sorts of step 3.

:func:`efficient_msp_segments` runs the algorithm on many circular
strings at once, the way cycle labeling runs it concurrently across
cycles: the strings advance in lockstep as segmented arrays, with one
pair sort per round for all of them, and each string's charge comes out
in closed form, figure for figure what its own :func:`efficient_msp` call
charges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import InvalidStringError
from ..pram.kernels import sort_indices
from ..pram.machine import Machine
from ..pram.metrics import log_time_bound
from ..primitives.integer_sort import SortCostModel, pair_sort_charge
from ..primitives.prefix_sums import reduce_min
from ..types import MSPResult
from .alphabet import validate_string
from .msp_simple import _tournament_msp, _tournament_winners, tournament_cost
from .pair_encoding import circular_pairs, rank_replace
from .period import circular_periods, divisors, smallest_circular_period, smallest_period_parallel


def _ensure_machine(machine: Optional[Machine]) -> Machine:
    return machine if machine is not None else Machine.default()


def _shrink_threshold(length: int) -> int:
    """The paper's ``n / log n`` stopping length (at least 4)."""
    return max(4, int(length / max(1.0, math.log2(max(2, length)))))


def efficient_msp(
    symbols,
    *,
    machine: Optional[Machine] = None,
    cost_model: SortCostModel = SortCostModel.CHARGED,
    reduce_period: bool = True,
    shrink_target_fraction: Optional[float] = None,
) -> MSPResult:
    """Minimal starting point of a circular string, O(n log log n) work.

    Parameters
    ----------
    symbols:
        The circular string (non-negative integer codes).
    machine:
        PRAM simulator to charge; a fresh arbitrary-CRCW machine is used
        when omitted.
    cost_model:
        Whether the integer sorts charge the published Bhatt et al. bound
        (default) or the operations actually incurred (E9 ablation).
    reduce_period:
        Reduce a repeating input to its smallest repeating prefix first
        (the paper's standing assumption for this algorithm).
    shrink_target_fraction:
        Stop shrinking once the current length is at most
        ``fraction * n``.  Default is ``1 / log2(n)`` (the paper's
        ``n / log n`` threshold).
    """
    m = _ensure_machine(machine)
    s = validate_string(symbols)
    n0 = len(s)
    if n0 == 1:
        m.tick(1)
        return MSPResult(index=0, rotation=s.copy(), period=1, algorithm="efficient-msp", cost=m.counter.summary())

    period = smallest_circular_period(s)
    current = s
    if reduce_period and period < n0:
        smallest_period_parallel(s, machine=m)
        current = s[:period]

    # positions[i] = index in the ORIGINAL string of the character (block)
    # that symbol i of the current shrunken string starts at.
    positions = np.arange(len(current), dtype=np.int64)

    if shrink_target_fraction is None:
        threshold = _shrink_threshold(len(current))
    else:
        threshold = max(4, int(len(current) * shrink_target_fraction))

    with m.span("efficient_msp"):
        rounds = 0
        while len(current) > threshold:
            rounds += 1
            # Step 1: smallest symbol and candidate marking.
            smallest = reduce_min(current, machine=m)
            m.tick(len(current))
            marked = current == smallest
            marked[1:] &= current[:-1] != smallest
            marked[0] &= current[-1] != smallest
            num_marked = int(marked.sum())
            if num_marked == 1:
                idx = int(positions[int(np.flatnonzero(marked)[0])])
                rotation = np.concatenate([s[idx:], s[:idx]])
                return MSPResult(
                    index=idx,
                    rotation=rotation,
                    period=period,
                    algorithm="efficient-msp",
                    cost=m.counter.summary(),
                )
            if num_marked == 0:
                # all symbols equal: any position works; smallest index is 0
                # (cannot happen after period reduction unless length 1).
                break

            # Steps 2-3: pair, sort, replace by rank.
            first, second, heads = circular_pairs(current, marked, machine=m, pad_symbol=smallest)
            codes, _sigma = rank_replace(first, second, machine=m, cost_model=cost_model)
            positions = positions[heads]
            current = codes

        # Step 5: the simple tournament on the shrunken string.
        m.tick(len(current))
        winner = _tournament_msp(current, np.arange(len(current), dtype=np.int64), m)
    index = int(positions[winner])
    rotation = np.concatenate([s[index:], s[:index]])
    return MSPResult(
        index=index,
        rotation=rotation,
        period=period,
        algorithm="efficient-msp",
        cost=m.counter.summary(),
    )


def canonical_rotation(
    symbols,
    *,
    machine: Optional[Machine] = None,
    cost_model: SortCostModel = SortCostModel.CHARGED,
) -> np.ndarray:
    """The lexicographically least rotation of a circular string.

    Convenience wrapper around :func:`efficient_msp` returning just the
    rotated array; two circular strings are cyclic-shift equivalent iff
    their canonical rotations are equal.
    """
    result = efficient_msp(symbols, machine=machine, cost_model=cost_model)
    return result.rotation


@dataclass
class SegmentedMSP:
    """Per-string results of :func:`efficient_msp_segments`.

    ``index`` and ``period`` are each string's m.s.p. and smallest
    repeating prefix length; ``time``, ``work`` and ``charged_work`` are
    the totals its own :func:`efficient_msp` call charges a fresh machine.
    """

    index: np.ndarray
    period: np.ndarray
    time: np.ndarray
    work: np.ndarray
    charged_work: np.ndarray


def _tree_charge(n: np.ndarray):
    """``(rounds, work)`` of ``charge_tree`` over each entry of ``n``."""
    span = np.maximum(n - 1, 0)
    # frexp's exponent is the bit length, exact below 2^53
    return np.frexp(span.astype(np.float64))[1].astype(np.int64), span


def _segment_of(starts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Segment index of every element, written to ``out``, for segments
    that begin at ``starts`` (ascending, first 0, none empty)."""
    out.fill(0)
    out[starts[1:]] = 1
    return np.cumsum(out, out=out)


def efficient_msp_segments(
    flat,
    offsets,
    *,
    cost_model: SortCostModel = SortCostModel.CHARGED,
) -> SegmentedMSP:
    """*Algorithm efficient m.s.p.* on many circular strings in lockstep.

    String ``i`` is ``flat[offsets[i]:offsets[i+1]]`` (non-empty).  Every
    string takes exactly the steps of ``efficient_msp(string)`` with the
    defaults, but all strings take them together as segmented arrays:

    1. the period, by one vectorised check per distinct string length;
    2. the shrinking rounds: segmented minimum, marking, circular pairing,
       and one pair sort for all strings whose dense ranks restart at 1 in
       each string.  A string leaves on a single mark or at its own
       ``n / log n`` threshold;
    3. the finishing tournament, one 2-D run per group of strings of equal
       shrunken length.

    Each string's charge is a closed form of its length, period and, per
    round, its length, pair count and pair key range; float bounds come
    from the scalar functions the per-string call uses, so every figure is
    bit-identical to that call's.
    """
    s = validate_string(flat, allow_empty=True)
    offs = np.asarray(offsets, dtype=np.int64)
    lengths = np.diff(offs)
    k = len(lengths)
    if k and int(lengths.min()) < 1:
        raise InvalidStringError("every string must be non-empty")
    index = np.zeros(k, dtype=np.int64)
    period = lengths.copy()
    time = np.zeros(k, dtype=np.int64)
    work = np.zeros(k, dtype=np.int64)
    charged = np.zeros(k, dtype=np.int64)

    def charge(ids, rounds, ops, charged_ops=None):
        time[ids] += rounds
        work[ids] += ops
        charged[ids] += ops if charged_ops is None else charged_ops

    # Reduce every string to its smallest repeating prefix (the paper's
    # standing assumption).  A string of length 1 returns at once.  (Every
    # np.unique here asks for the inverse: without one, np.unique imports
    # numpy.ma on first use, 1.6 MiB of resident memory in every process.)
    distinct, group = np.unique(lengths, return_inverse=True)
    for j, length in enumerate(distinct.tolist()):
        ids = np.flatnonzero(group == j)
        if length == 1:
            charge(ids, 1, 1)
            continue
        p = circular_periods(s[offs[ids, None] + np.arange(length)])
        period[ids] = p
        reduced = p < length
        # smallest_period_parallel's adapter: every divisor up to p tested
        tested = np.searchsorted(divisors(length), p[reduced]) + 1
        charge(ids[reduced], log_time_bound(length), length * tested, length)
    distinct, group = np.unique(period, return_inverse=True)
    threshold = np.array([_shrink_threshold(p) for p in distinct.tolist()], dtype=np.int64)[group]

    # Round state: the live strings' current symbols, laid out
    # consecutively, and each symbol's position in its original string.
    # Rounds shrink it geometrically.  Every large array a round needs is a
    # view of two blocks sized to the first layout, so a solve allocates
    # the same two blocks whatever the pair counts, rather than new
    # odd-sized arrays every round, which fragment the heap (PERFORMANCE.md).
    ids = np.flatnonzero(lengths > 1)
    seg_len = period[ids]
    size = int(seg_len.sum())
    ramp = np.arange(size, dtype=np.int64)
    buffers = np.empty((8, size), dtype=np.int64)  # one block for all of them
    cur_buf, pos_buf, scratch = buffers[0:2], buffers[2:4], buffers[4:8]  # state double-buffered
    flags = np.empty((4, size), dtype=bool)
    live = 0  # which half of cur_buf / pos_buf holds the round state
    starts = np.cumsum(seg_len) - seg_len
    owner = _segment_of(starts, scratch[0, :size])
    pos = np.subtract(ramp, np.take(starts, owner, out=scratch[1]), out=pos_buf[live])
    cur = np.take(s, np.add(np.take(offs[ids], owner, out=scratch[1]), pos, out=scratch[1]), out=cur_buf[live])

    def finish(leave):
        """Step 5 for the segments flagged in ``leave``: the tournament."""
        leaving = np.flatnonzero(leave)
        distinct, group = np.unique(seg_len[leaving], return_inverse=True)
        for j, length in enumerate(distinct.tolist()):
            members = leaving[group == j]
            first = starts[members]
            winners = _tournament_winners(cur[first[:, None] + np.arange(length)], np.arange(length))
            index[ids[members]] = pos[first + winners]
            rounds, ops = tournament_cost(length)
            charge(ids[members], 1 + rounds, length + ops)

    def keep(stay, marked=None):
        """Restrict the round state to the segments flagged in ``stay``."""
        nonlocal ids, seg_len, size, starts, owner, cur, pos, live
        elements = np.take(stay, owner, out=flags[0, :size])
        ids, seg_len = ids[stay], seg_len[stay]
        size = int(seg_len.sum())
        cur = np.compress(elements, cur, out=cur_buf[1 - live, :size])
        pos = np.compress(elements, pos, out=pos_buf[1 - live, :size])
        if marked is not None:
            marked = np.compress(elements, marked, out=flags[3, :size])
        live = 1 - live
        starts = np.cumsum(seg_len) - seg_len
        owner = _segment_of(starts, scratch[0, :size])
        return marked

    while len(ids):
        short = seg_len <= threshold[ids]
        if short.any():
            finish(short)
            keep(~short)
            if not len(ids):
                break

        # Step 1: smallest symbol (a tree reduction) and candidate marking.
        smallest = np.minimum.reduceat(cur, starts)
        tree_rounds, tree_ops = _tree_charge(seg_len)
        charge(ids, tree_rounds + 1, tree_ops + seg_len)
        ends = starts + seg_len
        is_min = np.equal(cur, np.take(smallest, owner, out=scratch[1, :size]), out=flags[0, :size])
        after_min = flags[1, :size]
        after_min[1:] = is_min[:-1]
        after_min[starts] = is_min[ends - 1]
        marked = np.greater(is_min, after_min, out=flags[2, :size])
        num_marked = np.add.reduceat(marked, starts, dtype=np.int64)
        single = num_marked == 1
        if single.any():
            at = np.flatnonzero(np.logical_and(marked, np.take(single, owner, out=flags[0, :size]), out=flags[0, :size]))
            index[ids[owner[at]]] = pos[at]
        if (num_marked == 0).any():
            finish(num_marked == 0)
        stay = num_marked >= 2
        if not stay.all():
            smallest = smallest[stay]
            marked = keep(stay, marked)
            if not len(ids):
                break
            ends = starts + seg_len

        # Step 2: pair heads sit at even circular distance from the closest
        # mark at or before them; a position before its segment's first
        # mark counts from the segment's last mark, one length back.
        start = scratch[1, :size]
        start.fill(-1)
        np.copyto(start, ramp[:size], where=marked)
        np.maximum.accumulate(start, out=start)
        last_mark = start[ends - 1]
        wraps = np.less(start, np.take(starts, owner, out=scratch[2, :size]), out=flags[0, :size])
        np.copyto(start, np.take(last_mark - seg_len, owner, out=scratch[2, :size]), where=wraps)
        np.subtract(ramp[:size], start, out=start)
        is_head = np.equal(np.bitwise_and(start, 1, out=start), 0, out=flags[0, :size])
        pairs = np.add.reduceat(is_head, starts, dtype=np.int64)
        total = int(pairs.sum())
        pair_starts = np.cumsum(pairs) - pairs
        # a head's partner is its successor in the segment (circularly),
        # or the pad symbol (the minimum) where that successor is marked
        partner = scratch[1, :size]
        partner[:-1] = cur[1:]
        partner[ends - 1] = cur[starts]
        partner_marked = flags[1, :size]
        partner_marked[:-1] = marked[1:]
        partner_marked[ends - 1] = marked[starts]
        np.copyto(partner, np.take(smallest, owner, out=scratch[2, :size]), where=partner_marked)
        first = np.compress(is_head, cur, out=scratch[2, :total])
        second = np.compress(is_head, partner, out=scratch[3, :total])
        head_owner = np.compress(is_head, owner, out=scratch[1, :total])
        pos = np.compress(is_head, pos, out=pos_buf[1 - live, :total])
        codes = cur_buf[1 - live, :total]
        key_range = np.maximum.reduceat(np.maximum(first, second, out=codes), pair_starts) + 1

        # Step 3: one sort of (segment, first, second) for every segment;
        # dense ranks restart at 1 in each segment.
        bound = int(key_range.max())
        if len(ids) * bound * bound <= np.iinfo(np.int64).max:
            key = np.multiply(head_owner, bound, out=scratch[0, :total])
            key += first
            key *= bound
            key += second
            order = sort_indices(key, len(ids) * bound * bound)
            sorted_key = np.take(key, order, out=scratch[2, :total])
            new_rank = flags[0, :total]
            np.not_equal(sorted_key[1:], sorted_key[:-1], out=new_rank[1:])
        else:
            order = np.lexsort((second, first, head_owner))
            so, sf, ss = head_owner[order], first[order], second[order]
            new_rank = np.empty(total, dtype=bool)
            new_rank[1:] = (so[1:] != so[:-1]) | (sf[1:] != sf[:-1]) | (ss[1:] != ss[:-1])
        new_rank[0] = True
        dense = np.cumsum(new_rank, out=scratch[3, :total])
        sorted_owner = _segment_of(pair_starts, scratch[2, :total])
        dense -= np.take(dense[pair_starts] - 1, sorted_owner, out=scratch[0, :total])
        codes[order] = dense

        # Charges: circular_pair_heads, circular_pairs, the pair sort
        # (priced once per distinct pair count and key range) and
        # rank_pairs.
        tree_rounds, tree_ops = _tree_charge(seg_len)
        pair_rounds, pair_ops = _tree_charge(pairs)
        sort_args = list(zip(pairs.tolist(), key_range.tolist()))
        priced = {args: pair_sort_charge(*args, cost_model) for args in set(sort_args)}
        sort_figures = np.array([priced[args] for args in sort_args], dtype=np.int64)
        rounds = 5 + 2 * tree_rounds + sort_figures[:, 0] + 2 * pair_rounds
        ops = 3 * seg_len + 2 * tree_ops + 2 * pairs + 2 * pair_ops
        charge(ids, rounds, ops + sort_figures[:, 1], ops + sort_figures[:, 2])

        cur, live, size = codes, 1 - live, total
        seg_len, starts = pairs, pair_starts
        owner = _segment_of(starts, scratch[0, :size])

    return SegmentedMSP(index=index, period=period, time=time, work=work, charged_work=charged)
