"""Reusable test/benchmark input builders.

These helpers live in the package (rather than in a ``conftest.py``) so
that the test suite and the examples can both import them without relying
on pytest's rootdir-dependent ``conftest`` module injection.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def random_open_list(rng: np.random.Generator, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Successor array of a random open list plus expected rank-to-tail.

    Returns ``(succ, expect, perm)`` where ``succ`` is a successor array
    whose single open list visits the nodes in the order given by ``perm``
    (the tail points to itself) and ``expect[x]`` is the number of hops
    from ``x`` to the tail.
    """
    perm = rng.permutation(n)
    succ = np.empty(n, dtype=np.int64)
    succ[perm[:-1]] = perm[1:]
    succ[perm[-1]] = perm[-1]
    expect = np.empty(n, dtype=np.int64)
    expect[perm] = np.arange(n)[::-1]
    return succ, expect, perm


def sequential_layout_list(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """An open list laid out in array order: ``i -> i+1`` (tail at ``n-1``).

    The adversarial case for ruler-based list ranking with array-position
    rulers: every sublist is exactly ``spacing`` hops long.
    """
    succ = np.minimum(np.arange(1, n + 1, dtype=np.int64), n - 1)
    expect = np.arange(n, dtype=np.int64)[::-1].copy()
    return succ, expect


def reversed_layout_list(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """An open list laid out in reverse array order: ``i -> i-1`` (tail at 0)."""
    succ = np.maximum(np.arange(-1, n - 1, dtype=np.int64), 0)
    expect = np.arange(n, dtype=np.int64).copy()
    return succ, expect
