"""*Algorithm simple m.s.p.* — the O(n log n)-work tournament (Section 3.1).

The algorithm keeps one candidate starting position per block of size
``2^i`` and, at stage ``i``, compares the two candidates inherited from the
block's two half-blocks by comparing the circular substrings of length
``2^i`` starting at each.  The strictly smaller substring's candidate
survives; on a tie the earlier candidate survives (Lemma 3.3 — the later
one cannot be the unique m.s.p. of a non-repeating string).

Each stage costs O(1) rounds (constant-time string comparison via the
first-difference CRCW primitive) and at most ``n`` operations, so the whole
tournament runs in ``O(log n)`` time with ``O(n log n)`` work — this is the
baseline that *Algorithm efficient m.s.p.* improves on and the finishing
step it applies to the shrunken string.

The implementation assumes (and, by default, enforces by reduction) a
non-repeating circular string; the public wrapper :func:`simple_msp`
reduces a repeating input to its smallest repeating prefix first, as the
paper prescribes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..pram.machine import Machine
from ..types import MSPResult
from .alphabet import validate_string
from .period import smallest_circular_period, smallest_period_parallel


def _ensure_machine(machine: Optional[Machine]) -> Machine:
    return machine if machine is not None else Machine.default()


def _tournament_stages(n: int, num_candidates: int) -> List[Tuple[int, int, int]]:
    """``(pairs, compared length, survivors)`` of each tournament stage.

    Stage ``i`` pairs up consecutive candidates and compares circular
    substrings of length ``min(n, 2^i)``; an unpaired trailing candidate
    advances for free.
    """
    stages = []
    alive = num_candidates
    while alive > 1:
        pairs = alive // 2
        survivors = pairs + alive % 2
        stages.append((pairs, min(n, 1 << (len(stages) + 1)), survivors))
        alive = survivors
    return stages


def tournament_cost(n: int) -> Tuple[int, int]:
    """``(time, work)`` the tournament charges with all ``n`` positions as
    candidates: per stage, 3 rounds for the comparison of ``2 * pairs``
    substrings and one round per survivor."""
    stages = _tournament_stages(n, n)
    return 4 * len(stages), sum(2 * pairs * length + survivors for pairs, length, survivors in stages)


def _tournament_winners(rows: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Winner of the block tournament on every row of ``rows`` at once.

    ``rows`` holds equal-length circular strings, one per row;
    ``candidates`` (ascending) are the start positions every row begins
    with.  Each row makes exactly the comparisons of a tournament of its
    own, ties included, so its winner is the one a one-row call returns.
    """
    g, n = rows.shape
    doubled = np.concatenate([rows, rows], axis=1)
    cands = np.broadcast_to(np.asarray(candidates, dtype=np.int64), (g, len(candidates)))
    row = np.arange(g)[:, None, None]
    for pairs, length, _survivors in _tournament_stages(n, len(candidates)):
        left = cands[:, 0: 2 * pairs: 2]
        right = cands[:, 1: 2 * pairs: 2]
        # Compare the circular substrings of the current length starting
        # at each pair of candidates (one gather per side, then the first
        # difference).
        gather = np.arange(length, dtype=np.int64)
        left_strings = doubled[row, left[:, :, None] + gather]
        right_strings = doubled[row, right[:, :, None] + gather]
        # Left is smaller iff its first difference is a smaller symbol; on a
        # tie the earlier candidate survives (Lemma 3.3).
        neq = left_strings != right_strings
        less = left_strings < right_strings
        left_smaller = ~neq.any(axis=2) | (less.any(axis=2) & (np.argmax(less, axis=2) == np.argmax(neq, axis=2)))
        winners = np.where(left_smaller, left, right)
        if cands.shape[1] % 2:
            winners = np.concatenate([winners, cands[:, -1:]], axis=1)
        cands = winners
    return cands[:, 0]


def _tournament_msp(s: np.ndarray, candidates: np.ndarray, machine: Machine) -> int:
    """Run the block tournament over the given candidate positions.

    ``candidates`` must be sorted ascending.  The tournament pads the
    candidate list to the next power of two with sentinels (eliminated
    immediately), reproducing the paper's convenience assumption n = 2^k
    without restricting the input length.  Each stage costs O(1) rounds
    with work equal to the number of characters touched.
    """
    with machine.span("simple_msp"):
        for pairs, length, survivors in _tournament_stages(len(s), len(candidates)):
            machine.tick(2 * pairs * length, rounds=3)
            machine.tick(survivors)
        return int(_tournament_winners(s[None, :], candidates)[0])


def simple_msp(
    symbols,
    *,
    machine: Optional[Machine] = None,
    reduce_period: bool = True,
) -> MSPResult:
    """Minimal starting point of a circular string via the simple tournament.

    Parameters
    ----------
    symbols:
        The circular string (non-negative integer codes).
    machine:
        PRAM simulator to charge; a fresh arbitrary-CRCW machine is used
        when omitted.
    reduce_period:
        When true (default) a repeating input is first reduced to its
        smallest repeating prefix (the m.s.p. of the prefix is an m.s.p.
        of the whole string, and the smallest one because the prefix length
        divides every other minimal index's offset).
    """
    m = _ensure_machine(machine)
    s = validate_string(symbols)
    n = len(s)
    if n == 1:
        m.tick(1)
        return MSPResult(index=0, rotation=s.copy(), period=1, algorithm="simple-msp", cost=m.counter.summary())

    period = smallest_circular_period(s)
    work_string = s
    if reduce_period and period < n:
        smallest_period_parallel(s, machine=m)  # charge the parallel reduction
        work_string = s[:period]

    candidates = np.arange(len(work_string), dtype=np.int64)
    m.tick(len(work_string))  # step 1: mark all positions as candidates
    index = _tournament_msp(work_string, candidates, m)
    rotation = np.concatenate([s[index:], s[:index]])
    return MSPResult(
        index=index,
        rotation=rotation,
        period=period,
        algorithm="simple-msp",
        cost=m.counter.summary(),
    )
