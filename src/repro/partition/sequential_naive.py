"""Naive sequential coarsest partition by iterated label refinement.

This is the Moore-style fixed-point algorithm: replace every element's
label by the pair (own label, label of its image) and re-densify, until the
number of blocks stops growing.  Each round costs O(n) and at most n
rounds are needed, giving O(n²) worst case — the slowest baseline in
experiment E1 and the oracle the property-based tests compare everything
against (on small instances where the quadratic cost is irrelevant).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..pram.machine import Machine, resolve_machine
from ..types import PartitionResult
from .problem import SFCPInstance, canonical_labels, num_blocks


def naive_partition(
    function,
    initial_labels,
    *,
    machine: Optional[Machine] = None,
    audit: Optional[bool] = None,
) -> PartitionResult:
    """Coarsest partition by naive iterative refinement (O(n²) worst case).

    The cost charged is sequential: ``time == work`` equal to the number of
    elementary label updates performed.
    """
    instance = SFCPInstance.from_arrays(function, initial_labels)
    m = resolve_machine(machine, audit)
    f = instance.function
    n = instance.n
    labels = canonical_labels(instance.initial_labels)
    rounds = 0
    with m.span("naive_partition"):
        while True:
            rounds += 1
            combined = labels * np.int64(n + 1) + labels[f]
            new_labels = canonical_labels(combined)
            m.tick(3 * n, rounds=3 * n)  # sequential: every update is a step
            if num_blocks(new_labels) == num_blocks(labels):
                labels = new_labels
                break
            labels = new_labels
            if rounds > n + 1:  # safety net; cannot refine more than n times
                break
    labels = canonical_labels(labels)
    return PartitionResult(
        labels=labels,
        num_blocks=num_blocks(labels),
        algorithm="naive-refinement",
        cost=m.counter.summary(),
    )
