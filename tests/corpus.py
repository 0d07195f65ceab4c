"""Seeded hard-case corpus of functional graphs, organised by category.

Each category is one generator ``make(rng, n) -> f`` of a function on
``n`` nodes whose node ids are shuffled, so no shape lines up with the
array order the host kernels walk.  :func:`instance` adds initial labels
over a small alphabet (so tree nodes both inherit and stay residual), and
every case is keyed by ``(category, n)``: the same key gives the same
instance in every suite that draws from here.

The categories aim at the edges of the tree-labeling paths: depth on
both sides of the level path's bound (paths and caterpillars), the Euler
tour ranking's Wyllie branch (1-3 tree nodes in all, 2-6 arcs), circuits
whose sizes are all powers of two (the circuit labeling's early exit),
and the usual random functions, recursive trees, stars, self-loops and
2-cycles.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np


def shuffled(rng: np.random.Generator, parent: np.ndarray) -> np.ndarray:
    """``parent`` (an array of slots) with node ids shuffled."""
    node = rng.permutation(len(parent))
    f = np.empty(len(parent), dtype=np.int64)
    f[node] = node[parent]
    return f


def random_function(rng, n):
    return rng.integers(0, n, n).astype(np.int64)


def recursive_tree(rng, n):
    """A random recursive tree hanging off a 4-cycle."""
    slot = np.arange(n, dtype=np.int64)
    parent = (rng.random(n) * slot).astype(np.int64)
    parent[:4] = (slot[:4] + 1) % 4
    return shuffled(rng, parent)


def star(rng, n):
    """Every node maps to one self-loop."""
    return shuffled(rng, np.zeros(n, dtype=np.int64))


def paths(depth: int) -> Callable:
    """Parallel paths of ``depth`` nodes under a 2-cycle, the leftover
    nodes on the 2-cycle."""

    def make(rng, n):
        slot = np.arange(n, dtype=np.int64)
        parent = np.where((slot - 2) % depth == 0, 0, slot - 1)
        parent[:2] = [1, 0]
        parent[2 + (n - 2) // depth * depth:] = 1
        return shuffled(rng, parent)

    make.__name__ = f"paths_{depth}"
    return make


def caterpillar(depth: int) -> Callable:
    """A spine of ``depth`` nodes under a self-loop, every other node a
    leaf on a random spine node."""

    def make(rng, n):
        slot = np.arange(n, dtype=np.int64)
        parent = slot - 1
        parent[0] = 0
        leaves = slot > depth
        parent[leaves] = rng.integers(1, depth + 1, int(leaves.sum()))
        return shuffled(rng, parent)

    make.__name__ = f"caterpillar_{depth}"
    return make


def self_loops_with_trees(rng, n):
    """Half the nodes are self-loops; each other node hangs below a
    lower-numbered one, so every tree drains into a self-loop."""
    f = np.arange(n, dtype=np.int64)
    f[n // 2:] = rng.integers(0, n, n - n // 2)
    f[n // 2:] = np.minimum(f[n // 2:], np.arange(n // 2, n) - 1)
    return shuffled(rng, f)


def two_cycles_with_trees(rng, n):
    """2-cycles on the first half of the nodes, random trees on the rest."""
    parent = np.arange(n, dtype=np.int64)
    pairs = (n // 4) * 2
    parent[:pairs] = np.arange(pairs) ^ 1
    parent[pairs:] = (rng.random(n - pairs) * np.arange(pairs, n)).astype(np.int64)
    return shuffled(rng, parent)


def power_of_two_trees(rng, n):
    """Self-loops whose trees all hold a power-of-two number of nodes, so
    every Euler circuit of the tree arcs has a power-of-two size."""
    parent = np.arange(n, dtype=np.int64)
    slot = 0
    while slot + 2 <= n:
        size = min(1 << int(rng.integers(0, 6)), 1 << (n - slot - 1).bit_length() - 1)
        root = slot
        for k in range(1, size + 1):
            parent[root + k] = root + int(rng.integers(0, k))
        slot += 1 + size
    return shuffled(rng, parent)


def few_tree_nodes(count: int) -> Callable:
    """A permutation of all but ``count`` nodes, which hang off its cycles
    (the second under the first): 2-6 tree arcs, the tour ranking's Wyllie
    branch and just past it."""

    def make(rng, n):
        chosen = rng.choice(n, size=count, replace=False)
        rest = np.setdiff1d(np.arange(n, dtype=np.int64), chosen)
        f = np.empty(n, dtype=np.int64)
        f[rest] = rest[rng.permutation(len(rest))]
        f[chosen] = rest[rng.integers(0, len(rest), count)]
        if count >= 2:
            f[chosen[1]] = chosen[0]
        return f

    make.__name__ = f"few_tree_nodes_{count}"
    return make


#: The categories, by name.  Depths 8 and 64 sit under the level path's
#: bound at every size here; depth ``n // 2`` is over it from 2^8 on.
CATEGORIES: Dict[str, Callable] = {
    "random": random_function,
    "permutation": lambda rng, n: rng.permutation(n).astype(np.int64),
    "recursive-tree": recursive_tree,
    "star": star,
    "paths-8": paths(8),
    "paths-64": paths(64),
    "caterpillar-8": caterpillar(8),
    "caterpillar-64": caterpillar(64),
    "self-loops-trees": self_loops_with_trees,
    "two-cycles-trees": two_cycles_with_trees,
    "power-of-two-trees": power_of_two_trees,
    "one-tree-node": few_tree_nodes(1),
    "two-tree-nodes": few_tree_nodes(2),
    "three-tree-nodes": few_tree_nodes(3),
}

#: Categories whose depth is ``n // 2``: over the level path's bound.
DEEP: Dict[str, Callable] = {
    "deep-path": lambda rng, n: paths(max(1, (n - 2) // 2))(rng, n),
    "deep-caterpillar": lambda rng, n: caterpillar(max(1, n // 2))(rng, n),
}


def instance(category: str, n: int, alphabet: int = 2) -> Tuple[np.ndarray, np.ndarray]:
    """The corpus instance ``(f, b)`` of ``category`` on ``n`` nodes."""
    seed = [n, alphabet, *category.encode()]
    rng = np.random.default_rng(seed)
    make = CATEGORIES.get(category) or DEEP[category]
    f = make(rng, n)
    return f, rng.integers(0, alphabet, len(f)).astype(np.int64)


def cases(sizes: List[int], categories=None) -> List[Tuple[str, int]]:
    """Every ``(category, n)`` pair of ``categories`` (default: all but
    the deep ones) at ``sizes``."""
    return [(name, n) for name in (categories or CATEGORIES) for n in sizes]
