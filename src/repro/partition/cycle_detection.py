"""*Algorithm finding cycle nodes* (Section 5) and a doubling baseline.

The paper identifies the cycle nodes of the pseudo-forest with the Euler
tour technique on the *doubled* graph: every functional edge ``(x, f(x))``
gets a buddy ``(f(x), x)``; the Tarjan–Vishkin successor function then
produces exactly two Euler circuits per pseudo-tree, and an edge lies on
the cycle of its pseudo-tree iff its two directed copies fall in
*different* circuits (tree edges, being bridges, keep both copies in the
same circuit).

:func:`find_cycle_nodes` implements exactly that.  As a structural bonus,
the circuit id of the forward arc ``(x, f(x))`` of a cycle node ``x``
identifies ``x``'s cycle (all forward arcs of one cycle trace the same
circuit), which the cycle-labelling phase reuses.  The ``2n``-arc
structure is built from ``f``'s in-arc order (one sort of the ``n`` values
of ``f``) and freed when the call returns.  The result keeps only
``n``-entry arrays: the cycle mask, the cycle keys and that order, from
which tree labeling derives the structure of its tree arcs.

:func:`find_cycle_nodes_doubling` is the simpler pointer-doubling baseline
(compute ``f^n`` by repeated squaring; its image is the set of cycle
nodes): same O(log n) time, but Θ(n log n) work — part of the E9 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graphs.functional_graph import validate_function
from ..pram.machine import Machine
from ..primitives.euler_tour import functional_euler_structure
from ..primitives.integer_sort import SortCostModel
from ..primitives.pointer_jumping import kth_successor


def _ensure_machine(machine: Optional[Machine]) -> Machine:
    return machine if machine is not None else Machine.default()


@dataclass
class CycleDetectionResult:
    """Output of the Euler-tour cycle detection.

    Attributes
    ----------
    on_cycle:
        Boolean mask over nodes.
    cycle_key:
        For cycle nodes, an identifier shared exactly by the nodes of the
        same cycle (the circuit id of the node's forward arc); ``-1`` for
        tree nodes.  Keys are *not* dense — use the cycle-labelling phase's
        enumeration for dense ids.
    in_arc_order:
        The nodes sorted by ``(f(y), y)`` (see
        :func:`~repro.primitives.euler_tour.in_arc_order`), which tree
        labeling builds its tree arcs from.  Every field holds ``n``
        entries.
    """

    on_cycle: np.ndarray
    cycle_key: np.ndarray
    in_arc_order: np.ndarray


def find_cycle_nodes(
    function,
    *,
    machine: Optional[Machine] = None,
    cost_model: SortCostModel = SortCostModel.CHARGED,
) -> CycleDetectionResult:
    """Mark the cycle nodes of a functional graph (the paper's Section 5).

    Cost: one adapter-charged integer sort (adjacency build), one
    list-ranking-style circuit labelling, and O(1) linear-work rounds —
    O(log n) time, O(n) work plus the sort.  The build and the arc marking
    charge what :func:`~repro.primitives.euler_tour.build_euler_structure`
    and :func:`~repro.primitives.euler_tour.mark_cycle_arcs` charge.
    """
    m = _ensure_machine(machine)
    f = validate_function(function)
    n = len(f)
    with m.span("find_cycle_nodes"):
        order, _successor, circuit_id = functional_euler_structure(
            f, machine=m, cost_model=cost_model
        )
        # forward arc x and its buddy n + x lie on different circuits iff
        # x is a cycle node
        with m.span("mark_cycle_arcs"):
            m.tick(2 * n)
        m.tick(n, rounds=2)
        on_cycle = circuit_id[:n] != circuit_id[n:]
        cycle_key = np.where(on_cycle, circuit_id[:n], -1)
    return CycleDetectionResult(on_cycle=on_cycle, cycle_key=cycle_key, in_arc_order=order)


def find_cycle_nodes_doubling(
    function,
    *,
    machine: Optional[Machine] = None,
) -> np.ndarray:
    """Baseline: cycle nodes = image of ``f^n`` (repeated squaring).

    O(log n) rounds of O(n) work each (Θ(n log n) work total) — the
    work-inefficient but very simple alternative used in the E9 ablation
    and as an independent correctness cross-check in the tests.
    """
    m = _ensure_machine(machine)
    f = validate_function(function)
    n = len(f)
    with m.span("find_cycle_nodes_doubling"):
        g = kth_successor(f, n, machine=m)
        m.tick(n)
        on_cycle = np.zeros(n, dtype=bool)
        on_cycle[g] = True
    return on_cycle
