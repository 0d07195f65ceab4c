"""Synthetic workload generators for the evaluation harness.

The paper has no experimental section, so the evaluation plan (DESIGN.md §4)
defines its own workloads.  Every generator here is deterministic given a
seed, returns ``(A_f, A_B)`` arrays directly consumable by the partition
algorithms, and is exercised by both the test suite and the benchmark
harness so the two always agree on what a workload means.

Generator families
------------------

* :func:`random_function` — uniformly random ``f`` (the classic random
  functional graph: ~``sqrt(pi n / 8)`` cycle nodes, trees dominate).
* :func:`random_permutation` — ``f`` a permutation (pure cycles, the
  Section 3 special case).
* :func:`cycles_of_equal_length` — ``k`` cycles of length ``l`` with
  controllable label periodicity (Algorithm *partition*'s setting).
* :func:`periodic_labeled_cycle` — one long cycle whose B-labels repeat a
  pattern, exercising the smallest-repeating-prefix path.
* :func:`tree_heavy` — shallow cycles with long chains/bushy trees
  attached, stressing the tree-labelling phase.
* :func:`label_function_composition` — B-labels chosen so that the
  coarsest partition has a prescribed number of blocks (useful for
  validating block counts at scale).
* :func:`dfa_instance` — a unary-alphabet DFA given as (transition,
  accepting) pairs, for the DFA-minimisation application example.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import InvalidInstanceError

Instance = Tuple[np.ndarray, np.ndarray]


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_function(n: int, num_labels: int = 2, *, seed: Optional[int] = 0) -> Instance:
    """Uniformly random function with uniformly random B-labels."""
    if n <= 0:
        raise InvalidInstanceError("n must be positive")
    if num_labels <= 0:
        raise InvalidInstanceError("num_labels must be positive")
    rng = _rng(seed)
    f = rng.integers(0, n, n, dtype=np.int64)
    labels = rng.integers(0, num_labels, n, dtype=np.int64)
    return f, labels


def random_permutation(n: int, num_labels: int = 2, *, seed: Optional[int] = 0) -> Instance:
    """Random permutation (graph = disjoint cycles) with random labels."""
    if n <= 0:
        raise InvalidInstanceError("n must be positive")
    rng = _rng(seed)
    f = rng.permutation(n).astype(np.int64)
    labels = rng.integers(0, max(1, num_labels), n, dtype=np.int64)
    return f, labels


def single_cycle(n: int, labels: Optional[Sequence[int]] = None, *, seed: Optional[int] = 0,
                 num_labels: int = 2) -> Instance:
    """One Hamiltonian cycle 0 -> 1 -> ... -> n-1 -> 0 through a random relabelling."""
    if n <= 0:
        raise InvalidInstanceError("n must be positive")
    rng = _rng(seed)
    order = rng.permutation(n).astype(np.int64)
    f = np.empty(n, dtype=np.int64)
    f[order] = np.roll(order, -1)
    if labels is None:
        lab = rng.integers(0, max(1, num_labels), n, dtype=np.int64)
    else:
        lab = np.asarray(labels, dtype=np.int64)
        if len(lab) != n:
            raise InvalidInstanceError("labels must have length n")
    return f, lab


def cycles_of_equal_length(
    num_cycles: int,
    length: int,
    num_labels: int = 2,
    *,
    seed: Optional[int] = 0,
    num_classes: Optional[int] = None,
) -> Instance:
    """``num_cycles`` disjoint cycles of the same ``length``.

    When ``num_classes`` is given, the label strings are drawn from that
    many distinct patterns (each pattern possibly re-rotated per cycle), so
    the expected number of cyclic-shift equivalence classes is controlled —
    the workload of experiment E5.
    """
    if num_cycles <= 0 or length <= 0:
        raise InvalidInstanceError("num_cycles and length must be positive")
    rng = _rng(seed)
    n = num_cycles * length
    nodes = rng.permutation(n).astype(np.int64)
    f = np.empty(n, dtype=np.int64)
    labels = np.empty(n, dtype=np.int64)
    if num_classes is not None:
        patterns = rng.integers(0, max(1, num_labels), (max(1, num_classes), length), dtype=np.int64)
    for c in range(num_cycles):
        members = nodes[c * length: (c + 1) * length]
        f[members] = np.roll(members, -1)
        if num_classes is None:
            labels[members] = rng.integers(0, max(1, num_labels), length, dtype=np.int64)
        else:
            pattern = patterns[int(rng.integers(0, len(patterns)))]
            shift = int(rng.integers(0, length))
            labels[members] = np.roll(pattern, shift)
    return f, labels


def periodic_labeled_cycle(
    n: int,
    pattern: Sequence[int],
    *,
    seed: Optional[int] = 0,
) -> Instance:
    """A single cycle of length ``n`` whose labels repeat ``pattern``.

    ``n`` must be a multiple of ``len(pattern)``.  The coarsest partition of
    this instance has exactly ``len(smallest repeating prefix of pattern)``
    blocks, which tests can assert analytically.
    """
    pat = np.asarray(pattern, dtype=np.int64)
    if len(pat) == 0 or n % len(pat) != 0:
        raise InvalidInstanceError("n must be a positive multiple of the pattern length")
    f, _ = single_cycle(n, seed=seed)
    # label the cycle in *cycle order*, not index order
    from .functional_graph import analyze_structure, cycle_members

    structure = analyze_structure(f)
    members = cycle_members(structure, 0)
    labels = np.empty(n, dtype=np.int64)
    labels[members] = np.tile(pat, n // len(pat))
    return f, labels


def tree_heavy(
    n: int,
    num_labels: int = 2,
    *,
    cycle_fraction: float = 0.05,
    chain_bias: float = 0.5,
    seed: Optional[int] = 0,
) -> Instance:
    """A small set of cycle nodes with the bulk of nodes in attached trees.

    ``cycle_fraction`` of the nodes form one cycle; every remaining node
    points either to a uniformly random earlier node (bushy trees) or to
    the previous tree node (long chains), mixed by ``chain_bias``.
    """
    if not 0 < cycle_fraction <= 1:
        raise InvalidInstanceError("cycle_fraction must be in (0, 1]")
    rng = _rng(seed)
    n_cycle = max(1, int(round(n * cycle_fraction)))
    f = np.empty(n, dtype=np.int64)
    # nodes 0..n_cycle-1 form the cycle
    f[:n_cycle] = (np.arange(n_cycle, dtype=np.int64) + 1) % n_cycle
    for x in range(n_cycle, n):
        if x > n_cycle and rng.random() < chain_bias:
            f[x] = x - 1
        else:
            f[x] = int(rng.integers(0, x))
    labels = rng.integers(0, max(1, num_labels), n, dtype=np.int64)
    # shuffle node identities so array order carries no structure
    perm = rng.permutation(n).astype(np.int64)
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n, dtype=np.int64)
    f_shuffled = np.empty(n, dtype=np.int64)
    f_shuffled[inv] = inv[f]
    labels_shuffled = np.empty(n, dtype=np.int64)
    labels_shuffled[inv] = labels
    return f_shuffled, labels_shuffled


def label_function_composition(
    n: int,
    target_blocks: int,
    *,
    seed: Optional[int] = 0,
) -> Instance:
    """An instance engineered so the coarsest partition has a known size.

    Construction: take ``f(x) = (x + 1) mod n`` on a single cycle and label
    node ``x`` by ``x mod p`` where ``p = target_blocks`` divides ``n``;
    then the coarsest partition is exactly "congruence mod p" with ``p``
    blocks.  A random relabelling of node identities hides the structure
    from the algorithms.
    """
    if target_blocks <= 0 or n % target_blocks != 0:
        raise InvalidInstanceError("target_blocks must divide n")
    base_f = (np.arange(n, dtype=np.int64) + 1) % n
    base_labels = np.arange(n, dtype=np.int64) % target_blocks
    rng = _rng(seed)
    perm = rng.permutation(n).astype(np.int64)
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n, dtype=np.int64)
    f = np.empty(n, dtype=np.int64)
    f[inv] = inv[base_f]
    labels = np.empty(n, dtype=np.int64)
    labels[inv] = base_labels
    return f, labels


def dfa_instance(
    num_states: int,
    *,
    num_accepting: Optional[int] = None,
    seed: Optional[int] = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """A random unary-alphabet DFA: (transition function, accepting mask).

    Minimising a unary DFA is precisely the single function coarsest
    partition problem with the initial partition {accepting, rejecting};
    see :mod:`repro.graphs.dfa`.
    """
    if num_states <= 0:
        raise InvalidInstanceError("num_states must be positive")
    rng = _rng(seed)
    delta = rng.integers(0, num_states, num_states, dtype=np.int64)
    if num_accepting is None:
        num_accepting = max(1, num_states // 3)
    accepting = np.zeros(num_states, dtype=bool)
    accepting[rng.choice(num_states, size=min(num_accepting, num_states), replace=False)] = True
    return delta, accepting


#: Registry used by the benchmark harness and the workload catalogue.
GENERATORS = {
    "random_function": random_function,
    "random_permutation": random_permutation,
    "single_cycle": single_cycle,
    "cycles_of_equal_length": cycles_of_equal_length,
    "periodic_labeled_cycle": periodic_labeled_cycle,
    "tree_heavy": tree_heavy,
    "label_function_composition": label_function_composition,
}
