"""*Algorithm tree node labeling* (Section 4): Q-labels of the tree nodes.

After the cycle nodes are labelled, the tree nodes split into two groups:

* nodes whose Q-label coincides with a cycle node's — by Lemma 4.1 these
  are exactly the nodes whose entire root path carries the same B-labels
  as the corresponding stretch of their cycle (walking backwards from the
  entry point); they inherit the corresponding cycle node's label;
* the remaining nodes, which form a *residual forest* rooted just below
  the labelled region; by Lemma 4.2 two of them are equivalent iff their
  root-path B-label strings are equal and the Q-labels of their roots'
  parents agree.  The paper labels this forest with the pointer-jumping /
  BB-table encoding technique of Section 3.2, with the Kedem–Palem
  scheduling argument bringing the work to O(n).

Implementation notes (cost accounting): steps 1–4 are realised with the
Euler-tour weighted-level primitive, so they charge the paper's O(log n)
time / O(n) work.  Step 5 is charged as BB-table doubling over the
residual forest, which incurs Θ(n log D) operations for a residual forest
of depth D; the published O(R) bound (Kedem–Palem [15]) is recorded through
the cost adapter exactly like the integer-sorting substitution (DESIGN.md
§2), so both figures appear in the accounting and in the E9 ablation.  The
host no longer runs that doubling on the default path: the
:func:`~repro.pram.kernels.residual_forest_classes` kernel classes the
residual nodes outward from their absorbers in O(n) host work, and the
doubling loop's codes and charges follow from the forest's depth in
closed form, so every label and charged figure is unchanged.  The loop
itself stays as :func:`_label_residual_forest_reference`: the parity
reference, and the path for a RANDOM winner, for models whose audit
validates writes, and for forests that are deep relative to ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graphs.functional_graph import validate_function
from ..pram.kernels import residual_forest_classes
from ..pram.machine import Machine
from ..pram.metrics import CostCounter, log_time_bound
from ..pram.models import ArbitraryWinner
from ..primitives.euler_tour import functional_forest_structure, vertex_levels_from_tree
from ..primitives.integer_sort import SortCostModel, rank_values
from ..types import as_int_array
from .cycle_labeling import CycleLabelingResult


def _ensure_machine(machine: Optional[Machine]) -> Machine:
    return machine if machine is not None else Machine.default()


@dataclass
class TreeLabelingResult:
    """Q-labels for every node plus diagnostics about the phase."""

    q_labels: np.ndarray
    num_labels: int
    #: tree nodes that inherited a cycle node's label (marked after step 3)
    inherited_mask: np.ndarray
    #: size of the residual forest labelled in step 5
    residual_size: int


def label_tree_nodes(
    function,
    initial_labels,
    on_cycle,
    cycles: CycleLabelingResult,
    *,
    machine: Optional[Machine] = None,
    cost_model: SortCostModel = SortCostModel.CHARGED,
    in_arc_order: Optional[np.ndarray] = None,
) -> TreeLabelingResult:
    """Label the tree nodes given the labelled cycles (see module docstring).

    The Euler structure of the tree arcs (step 1 below) comes from
    ``in_arc_order``, the order cycle detection returns
    (:attr:`~repro.partition.cycle_detection.CycleDetectionResult.in_arc_order`),
    without a sort of its own; when it is omitted the call sorts ``f``
    itself.  Either way the charges are those of the generic
    :func:`~repro.primitives.euler_tour.forest_structure`.
    """
    m = _ensure_machine(machine)
    f = validate_function(function)
    labels_b = as_int_array(initial_labels, "initial_labels")
    n = len(f)
    on_cyc = np.asarray(on_cycle, dtype=bool)
    q_labels = cycles.q_labels.copy()
    next_label = cycles.num_labels

    tree_nodes = np.flatnonzero(~on_cyc)
    if len(tree_nodes) == 0:
        return TreeLabelingResult(
            q_labels=q_labels,
            num_labels=next_label,
            inherited_mask=np.zeros(n, dtype=bool),
            residual_size=0,
        )

    with m.span("tree_labeling"):
        # --------------------------------------------------------------
        # Step 1: levels and entry points (roots) of the trees hanging off
        # the cycles — Euler tour technique, O(log n) time, O(n) work.
        # --------------------------------------------------------------
        parent = np.where(on_cyc, np.arange(n, dtype=np.int64), f)
        structure, root_of = functional_forest_structure(
            f, on_cyc, in_arc_order, machine=m, cost_model=cost_model
        )
        level = vertex_levels_from_tree(parent, on_cyc, machine=m, structure=structure)

        # --------------------------------------------------------------
        # Step 2: mark tree nodes whose B-label matches the corresponding
        # cycle node (Lemma 4.1): the cycle node `level` steps *before* the
        # entry point along the cycle.
        # --------------------------------------------------------------
        m.tick(n, rounds=3)
        entry = root_of  # cycle node the tree drains into (self for cycle nodes)
        c_of_entry = cycles.cycle_index[entry]
        k_of_entry = np.where(c_of_entry >= 0, cycles.cycle_lengths[np.maximum(c_of_entry, 0)], 1)
        corresponding_rank = (cycles.cycle_rank[entry] - level) % k_of_entry
        corresponding = cycles.layout_node[
            cycles.cycle_offsets[np.maximum(c_of_entry, 0)] + corresponding_rank
        ]
        marked = on_cyc | (labels_b == labels_b[corresponding])

        # --------------------------------------------------------------
        # Step 3: unmark every descendant of an unmarked node — a node stays
        # marked iff no ancestor (itself included) is unmarked, i.e. iff its
        # unmarked-ancestor count is zero.  Weighted Euler levels give that
        # count in O(log n) time and O(n) work.
        # --------------------------------------------------------------
        unmarked_weight = (~marked).astype(np.int64)
        unmarked_count = vertex_levels_from_tree(
            parent, on_cyc, machine=m, node_weight=unmarked_weight, structure=structure
        )
        m.tick(n)
        inherits = (~on_cyc) & (unmarked_count == 0)

        # --------------------------------------------------------------
        # Step 4: marked nodes inherit the corresponding cycle node's label.
        # --------------------------------------------------------------
        m.tick(n)
        q_labels[inherits] = cycles.q_labels[corresponding[inherits]]

        # --------------------------------------------------------------
        # Step 5: residual forest (still-unlabelled nodes).
        # --------------------------------------------------------------
        residual = (~on_cyc) & ~inherits
        residual_size = int(residual.sum())
        if residual_size:
            new_codes = _label_residual_forest(
                f, labels_b, q_labels, residual, level, m, cost_model
            )
            m.tick(residual_size)
            dense, num_new = rank_values(new_codes, machine=m, cost_model=cost_model)
            q_labels[residual] = next_label + dense - 1
            next_label += int(num_new)

    return TreeLabelingResult(
        q_labels=q_labels,
        num_labels=next_label,
        inherited_mask=inherits,
        residual_size=residual_size,
    )


#: The host kernel runs only when the forest has at least this many nodes
#: per Euler level of its deepest residual node (``n >= 128 * max level``).
#: Its cost is O(n) plus a fixed ~7 us per level, against the doubling
#: loop's O(n log D).  Measured on a 2-core x86-64 VM at n = 2^10..2^18, it
#: lost by up to 17% at 64 nodes per level and won by 12-69% at 128
#: (PERFORMANCE.md, "Residual forest on the host").
_HOST_MIN_NODES_PER_LEVEL = 128


def _label_residual_forest(
    f: np.ndarray,
    labels_b: np.ndarray,
    q_labels: np.ndarray,
    residual: np.ndarray,
    level: np.ndarray,
    machine: Machine,
    cost_model: SortCostModel,
) -> np.ndarray:
    """Codes for the residual-forest nodes: equal code iff equal Q-label.

    Returns the codes of :func:`_label_residual_forest_reference` bit for
    bit and charges the same adapter figures, without running its
    BB-table doubling on the host.  That loop runs ``r0 + 1`` rounds, with
    ``r0 = max(1, ceil(log2 D))`` for the deepest residual depth ``D``
    (it stops one round after every pointer reached an absorber), each
    round costing ``3n`` work in 3 rounds after an initial ``n``-work
    round.  Its final round leaves each node the code ``absorber_space +
    r0 * n`` plus the index of its class's winning writer: the lowest
    node index of the class under a FIRST winner, the highest under LAST
    — which :func:`~repro.pram.kernels.residual_forest_classes` computes
    in O(n) host work.  The reference runs instead wherever its errors
    must surface (an audit that validates writes, labels its pair keys
    cannot encode), for a RANDOM winner, and for forests deep relative to
    ``n``.
    """
    n = len(f)
    model = machine.model
    winner = model.write.winner
    validates = machine.audit and (
        not model.write.allow_concurrent
        or model.write.require_common_value
        or not model.read.allow_concurrent
    )
    absorber_space = int(labels_b.max()) + int(q_labels.max()) + 3
    max_level = int(level[residual].max())
    # The loop raises where its pair keys leave int64 (or go negative); its
    # codes stay below absorber_space + (r0 + 1) * n, and D <= max_level.
    widest_code = absorber_space + (max(1, (max_level - 1).bit_length()) + 1) * n
    if (
        winner is ArbitraryWinner.RANDOM
        or validates
        or int(labels_b.min()) < 0
        or widest_code**2 > np.iinfo(np.int64).max
        or n < _HOST_MIN_NODES_PER_LEVEL * max_level
    ):
        return _label_residual_forest_reference(
            f, labels_b, q_labels, residual, machine, cost_model
        )
    representative, deepest = residual_forest_classes(
        f, labels_b, q_labels, residual, level, last=winner is ArbitraryWinner.LAST
    )
    r = len(representative)
    r0 = max(1, (deepest - 1).bit_length())
    machine.counter.charge_adapter(
        incurred_work=n + 3 * n * (r0 + 1),
        incurred_rounds=1 + 3 * (r0 + 1),
        charged_work=4 * max(1, r),
        charged_rounds=log_time_bound(max(2, r), 2.0),
        label="residual_forest_labeling",
    )
    return absorber_space + r0 * n + representative


def _label_residual_forest_reference(
    f: np.ndarray,
    labels_b: np.ndarray,
    q_labels: np.ndarray,
    residual: np.ndarray,
    machine: Machine,
    cost_model: SortCostModel,
) -> np.ndarray:
    """BB-table pointer doubling over the residual forest (Lemma 4.2 /
    Section 3.2 technique): the executable spec of
    :func:`_label_residual_forest`.

    Runs on a sub-counter; the published Kedem–Palem O(R) work bound is
    charged through the adapter while the incurred Θ(n log D) operations
    are preserved for the ablation.
    """
    n = len(f)
    sub = Machine(machine.model, counter=CostCounter(), audit=machine.audit)
    res_nodes = np.flatnonzero(residual)
    r = len(res_nodes)

    # Initial codes: residual nodes use their (densified) B-label; labelled
    # nodes (cycle nodes, inheriting tree nodes) act as absorbers carrying
    # their Q-label shifted into a disjoint range.
    sub.tick(n)
    sigma = int(labels_b.max()) + 1
    eq = np.where(residual, labels_b, sigma + np.maximum(q_labels, 0)).astype(np.int64)
    absorber_space = sigma + int(q_labels.max()) + 2
    ptr = np.where(residual, f, np.arange(n, dtype=np.int64))

    table = sub.sparse_table("BB-residual")
    address_base = absorber_space
    max_rounds = int(np.ceil(np.log2(max(2, n)))) + 2
    # All nodes participate every round: absorbers recombine with themselves
    # so that code granularities stay aligned across rounds (Section 3.2).
    everyone = np.arange(n, dtype=np.int64)
    active = np.flatnonzero(residual)
    saturated_before = False
    for _round in range(max_rounds):
        eq = sub.concurrent_combine_pairs(table, eq, eq[ptr], address_base + everyone)
        sub.tick(n)
        ptr = ptr[ptr]
        address_base += n
        # Stop one full round *after* every residual pointer has reached the
        # labelled region, so the combined code provably includes the
        # absorbing parent's Q-label (the path signature of Lemma 4.2).
        saturated_now = not residual[ptr[active]].any()
        if saturated_before and saturated_now:
            break
        saturated_before = saturated_now

    machine.counter.charge_adapter(
        incurred_work=sub.counter.work,
        incurred_rounds=sub.counter.time,
        charged_work=4 * max(1, r),
        charged_rounds=log_time_bound(max(2, r), 2.0),
        label="residual_forest_labeling",
    )
    return eq[res_nodes]
