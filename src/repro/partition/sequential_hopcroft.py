"""Hopcroft-style O(n log n) sequential coarsest partition.

The Aho–Hopcroft–Ullman textbook algorithm the paper cites as the first
non-trivial sequential bound: partition refinement with the
"process the smaller half" rule.  For a single function the algorithm
specialises nicely: maintain the current partition; repeatedly pick a
splitter block ``S`` from a worklist and split every block ``B`` into
``B ∩ f⁻¹(S)`` and ``B \\ f⁻¹(S)``; when a block splits, add the smaller
piece to the worklist.  Each element is touched O(log n) times because it
only re-enters the worklist inside a piece at most half its previous size,
giving O(n log n) total.

This baseline is compared against the linear-time Paige–Tarjan–Bonic
algorithm and the parallel algorithms in experiment E1.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, List, Optional, Set

from ..pram.machine import Machine, resolve_machine
from ..types import PartitionResult
from .problem import SFCPInstance, canonical_labels, num_blocks


def hopcroft_partition(
    function,
    initial_labels,
    *,
    machine: Optional[Machine] = None,
    audit: Optional[bool] = None,
) -> PartitionResult:
    """Coarsest partition via smaller-half partition refinement (O(n log n)).

    The cost charged is sequential: every element inspection counts as one
    unit of both time and work.
    """
    instance = SFCPInstance.from_arrays(function, initial_labels)
    m = resolve_machine(machine, audit)
    f = instance.function
    n = instance.n

    # predecessor lists: preimage[y] = all x with f(x) = y
    preimage: List[List[int]] = [[] for _ in range(n)]
    for x in range(n):
        preimage[int(f[x])].append(x)

    # block bookkeeping
    labels = canonical_labels(instance.initial_labels)
    block_of = labels.copy()
    blocks: Dict[int, Set[int]] = defaultdict(set)
    for x in range(n):
        blocks[int(block_of[x])].add(x)
    next_block_id = len(blocks)

    # initial worklist: all blocks (for a single function every block is a
    # potential splitter; the smaller-half rule keeps the total cost low).
    worklist: deque = deque(sorted(blocks.keys()))
    in_worklist: Set[int] = set(worklist)

    operations = n  # the preimage construction

    while worklist:
        splitter_id = worklist.popleft()
        in_worklist.discard(splitter_id)
        splitter = list(blocks[splitter_id])

        # elements whose image lies in the splitter, grouped by their block
        touched: Dict[int, List[int]] = defaultdict(list)
        for y in splitter:
            operations += 1
            for x in preimage[y]:
                operations += 1
                touched[int(block_of[x])].append(x)

        for block_id, movers in touched.items():
            block = blocks[block_id]
            if len(movers) == len(block):
                continue  # no split: every element maps into the splitter
            # split: movers leave `block` and form a new block
            new_id = next_block_id
            next_block_id += 1
            for x in movers:
                operations += 1
                block.discard(x)
                blocks[new_id].add(x)
                block_of[x] = new_id
            # smaller-half rule
            smaller = new_id if len(blocks[new_id]) <= len(block) else block_id
            if block_id in in_worklist:
                # both pieces must eventually be processed if the parent was pending
                worklist.append(new_id)
                in_worklist.add(new_id)
            else:
                worklist.append(smaller)
                in_worklist.add(smaller)

    with m.span("hopcroft_partition"):
        m.tick(operations, rounds=operations)

    result_labels = canonical_labels(block_of)
    return PartitionResult(
        labels=result_labels,
        num_blocks=num_blocks(result_labels),
        algorithm="hopcroft",
        cost=m.counter.summary(),
    )
