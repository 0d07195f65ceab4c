"""Smallest repeating prefix (period) of linear and circular strings.

The paper reduces every cycle's B-label string to its *smallest repeating
prefix* before comparing cycles (Section 3): if ``P`` is the shortest
prefix with ``P^j = S`` then nodes whose positions agree modulo ``|P|``
receive the same Q-label.  It cites Breslauer–Galil / Vishkin for an
``O(log log n)``-time, ``O(n)``-work parallel period computation; we
provide

* :func:`smallest_period` — sequential KMP-failure-function computation,
  the linear-time baseline;
* :func:`smallest_period_parallel` — a prefix-doubling witness algorithm
  on the simulator (each candidate period ``p`` is eliminated by finding a
  mismatch witness ``S[i] != S[i+p]``); charged ``O(log n)`` rounds and
  ``O(n)`` work per round incurred, with the published ``O(n)``-work bound
  recorded through the adapter so the end-to-end accounting can use either
  figure (see E9).

For the *coarsest partition* use only periods that divide the string
length matter (the B-label string of a cycle is circular), so
:func:`smallest_circular_period` restricts candidates to divisors and
tests them vectorised (:func:`circular_periods`, many equal-length
strings at once); the KMP routines remain for linear periods and as the
test reference.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..pram.machine import Machine
from ..pram.metrics import log_time_bound
from .alphabet import validate_string


def _ensure_machine(machine: Optional[Machine]) -> Machine:
    return machine if machine is not None else Machine.default()


def failure_function(symbols) -> np.ndarray:
    """KMP failure function: ``fail[i]`` = length of the longest proper
    border of ``symbols[:i+1]``.  Sequential ``O(n)``."""
    s = validate_string(symbols)
    n = len(s)
    fail = np.zeros(n, dtype=np.int64)
    k = 0
    for i in range(1, n):
        while k > 0 and s[i] != s[k]:
            k = int(fail[k - 1])
        if s[i] == s[k]:
            k += 1
        fail[i] = k
    return fail


def smallest_period(symbols) -> int:
    """Length of the smallest period ``p`` of the *linear* string.

    ``p = n - fail[n-1]``; this is the smallest ``p`` such that
    ``symbols[i] == symbols[i+p]`` for all valid ``i`` (the string need not
    be an exact power of its period).
    """
    s = validate_string(symbols)
    fail = failure_function(s)
    return int(len(s) - fail[-1])


def smallest_repeating_prefix_length(symbols) -> int:
    """Length of the smallest prefix ``P`` with ``P^j == symbols`` exactly.

    Unlike :func:`smallest_period`, the prefix must tile the string exactly
    (this is the paper's definition: ``P`` is a period *and* divides the
    length).  Sequential ``O(n)``.
    """
    s = validate_string(symbols)
    n = len(s)
    p = smallest_period(s)
    return p if n % p == 0 else n


def divisors(n: int) -> List[int]:
    """All positive divisors of ``n`` in increasing order."""
    if n <= 0:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def prime_factors(n: int) -> List[int]:
    """The distinct prime factors of ``n >= 1`` in increasing order."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def circular_periods(rows: np.ndarray) -> np.ndarray:
    """Smallest circular period of every row of a 2-D array of strings.

    A divisor ``d`` of the row length ``n`` is a circular period iff
    ``row[d:] == row[:-d]``: a shift by a divisor of ``n`` fixes the
    circular string exactly when it fixes the linear one.  The periods
    dividing ``n`` are closed under ``gcd``, so a row with a period below
    ``n`` also has some ``n / q`` (``q`` a prime factor of ``n``) as a
    period.  One vectorised check per prime factor therefore settles the
    primitive rows; only the periodic ones test the divisors in increasing
    order.
    """
    g, n = rows.shape
    period = np.full(g, n, dtype=np.int64)
    periodic = np.zeros(g, dtype=bool)
    for q in prime_factors(n):
        d = n // q
        periodic |= np.all(rows[:, d:] == rows[:, :-d], axis=1)
    todo = np.flatnonzero(periodic)
    for d in divisors(n)[:-1]:
        if not len(todo):
            break
        hit = np.all(rows[todo, d:] == rows[todo, :-d], axis=1)
        period[todo[hit]] = d
        todo = todo[~hit]
    return period


def smallest_circular_period(symbols) -> int:
    """Smallest ``p`` dividing ``n`` such that rotating by ``p`` fixes the
    circular string — equivalently the length of the smallest repeating
    prefix of the circular string (:func:`circular_periods` on one row).

    For circular strings this coincides with
    :func:`smallest_repeating_prefix_length` because a circular string with
    period ``p`` (not necessarily dividing ``n``) also has period
    ``gcd(p, n)``.
    """
    s = validate_string(symbols)
    return int(circular_periods(s[None, :])[0])


def smallest_period_parallel(
    symbols,
    *,
    machine: Optional[Machine] = None,
    circular: bool = True,
) -> int:
    """Parallel (simulated) computation of the smallest repeating prefix.

    Strategy: for each candidate period ``p`` (the divisors of ``n`` when
    ``circular``, otherwise all ``1..n``), test in one parallel round
    whether shifting by ``p`` fixes the string; report the smallest ``p``
    that does.  With divisors only there are ``O(d(n)) = n^{o(1)}``
    candidates, each tested with ``n`` processor-operations, but the tests
    for all candidates can share processors across ``O(log n)`` rounds; we
    charge ``O(log n)`` rounds and ``O(n log n)`` incurred work, recording
    the published ``O(n)``-work bound through the cost adapter (Breslauer &
    Galil; Vishkin).
    """
    m = _ensure_machine(machine)
    s = validate_string(symbols)
    n = len(s)
    if n == 1:
        m.tick(1)
        return 1
    candidates = divisors(n)[:-1] if circular else list(range(1, n))
    incurred_rounds = 0
    incurred_work = 0
    answer = n
    doubled = np.concatenate([s, s]) if circular else s
    for p in candidates:
        incurred_rounds += 1
        incurred_work += n
        if circular:
            ok = bool(np.array_equal(doubled[p: p + n], s))
        else:
            ok = bool(np.array_equal(s[p:], s[:-p]))
        if ok:
            answer = p
            break
    m.counter.charge_adapter(
        incurred_work=incurred_work,
        incurred_rounds=incurred_rounds,
        charged_work=max(1, n),
        charged_rounds=log_time_bound(n),
        label="period",
    )
    return int(answer)


def is_rotation(a, b) -> bool:
    """True iff circular strings ``a`` and ``b`` are rotations of each other.

    Sequential helper used by tests and by the naive cycle-equivalence
    baseline: checks ``|a| == |b|`` and ``b`` occurs in ``a + a``.
    """
    aa = validate_string(a, allow_empty=True)
    bb = validate_string(b, allow_empty=True)
    if len(aa) != len(bb):
        return False
    n = len(aa)
    if n == 0:
        return True
    doubled = np.concatenate([aa, aa])
    # Naive O(n^2) scan is fine for a test helper; it is never on the
    # measured path.
    for shift in range(n):
        if np.array_equal(doubled[shift: shift + n], bb):
            return True
    return False
