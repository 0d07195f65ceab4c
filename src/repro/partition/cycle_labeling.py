"""*Algorithm cycle node labeling* (Section 3): Q-labels of the cycle nodes.

Given the cycle nodes of the pseudo-forest, this phase

1. picks a head per cycle, ranks every cycle node from its head (list
   ranking), and lays the cycles out consecutively in memory together with
   their B-label strings (the paper's Step 1);
2. reduces every cycle's label string to its smallest repeating prefix and
   rotates it to its minimal starting point (the m.s.p. algorithms of
   Section 3.1), run concurrently across cycles — the efficient algorithm
   as one lockstep pass over all cycles, charged cycle by cycle;
3. groups the canonical prefixes into cyclic-shift equivalence classes
   with *Algorithm partition* (Section 3.2) and assigns the Q-labels:
   equivalent cycles share labels, and within a cycle two nodes share a
   label iff their offsets from the canonical starting point agree modulo
   the prefix length.

The returned :class:`CycleLabelingResult` also exposes the cycle layout
(dense cycle ids, ranks, offsets, canonical starting points) because the
tree-labelling phase needs it to locate each tree node's "corresponding"
cycle node (Lemma 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graphs.functional_graph import validate_function
from ..pram.machine import Machine
from ..pram.metrics import CostCounter
from ..primitives.integer_sort import SortCostModel
from ..primitives.list_ranking import rank_cycle
from ..primitives.prefix_sums import prefix_sums
from ..strings.msp_efficient import efficient_msp, efficient_msp_segments
from ..strings.msp_simple import simple_msp
from ..types import as_int_array

#: The Section 3.1 algorithms that can canonise the cycle label strings.
MSP_ALGORITHMS = ("efficient", "simple")


def _ensure_machine(machine: Optional[Machine]) -> Machine:
    return machine if machine is not None else Machine.default()


@dataclass
class CycleLabelingResult:
    """Q-labels of the cycle nodes plus the layout reused by tree labelling.

    Attributes
    ----------
    q_labels:
        Per-node Q-labels; ``-1`` on tree nodes (not labelled here).
    num_labels:
        Number of distinct Q-labels assigned to cycle nodes.
    cycle_index:
        Dense cycle id per node (``-1`` for tree nodes).
    cycle_rank:
        Rank of each cycle node from its cycle's head (``-1`` for tree nodes).
    cycle_lengths:
        Length of each cycle, indexed by dense cycle id.
    cycle_offsets:
        Exclusive prefix sums of ``cycle_lengths`` — the layout offsets.
    layout_node:
        ``layout_node[cycle_offsets[c] + r]`` is the node of cycle ``c`` at
        rank ``r``.
    msp:
        Minimal starting point (rank offset) of each cycle's label string.
    period:
        Smallest repeating prefix length of each cycle's label string.
    class_of:
        Equivalence class of each cycle.
    class_base:
        First Q-label used by each equivalence class.
    """

    q_labels: np.ndarray
    num_labels: int
    cycle_index: np.ndarray
    cycle_rank: np.ndarray
    cycle_lengths: np.ndarray
    cycle_offsets: np.ndarray
    layout_node: np.ndarray
    msp: np.ndarray
    period: np.ndarray
    class_of: np.ndarray
    class_base: np.ndarray


def check_msp_algorithm(msp_algorithm: str) -> None:
    """Raise :class:`ValueError` unless ``msp_algorithm`` names an m.s.p. algorithm."""
    if msp_algorithm not in MSP_ALGORITHMS:
        raise ValueError(f"unknown msp_algorithm {msp_algorithm!r}; choose from {list(MSP_ALGORITHMS)}")


def _label_cycles_reference(
    layout_labels: np.ndarray,
    bounds: np.ndarray,
    m: Machine,
    cost_model: SortCostModel,
    msp_algorithm: str,
) -> "tuple[np.ndarray, np.ndarray]":
    """Step 2a as one m.s.p. call per cycle, each on a machine of its own.

    Cycle ``c``'s label string is ``layout_labels[bounds[c]:bounds[c+1]]``.
    The sub-machines' costs are absorbed as concurrent (max time, summed
    work).  This is the path of ``msp_algorithm="simple"`` and the parity
    reference of the lockstep pass (:func:`efficient_msp_segments`).
    Returns ``(msp, period)``.
    """
    num_cycles = len(bounds) - 1
    msp = np.zeros(num_cycles, dtype=np.int64)
    period = np.ones(num_cycles, dtype=np.int64)
    sub_counters = []
    for c in range(num_cycles):
        blabel_string = layout_labels[int(bounds[c]): int(bounds[c + 1])]
        sub = Machine(m.model, counter=CostCounter(), audit=m.audit)
        if msp_algorithm == "simple":
            res = simple_msp(blabel_string, machine=sub)
        else:
            res = efficient_msp(blabel_string, machine=sub, cost_model=cost_model)
        msp[c] = res.index
        period[c] = res.period
        sub_counters.append(sub.counter)
    m.counter.absorb_concurrent(sub_counters)
    return msp, period


def _label_cycles_lockstep(
    layout_labels: np.ndarray,
    bounds: np.ndarray,
    m: Machine,
    cost_model: SortCostModel,
) -> "tuple[np.ndarray, np.ndarray]":
    """Step 2a as one lockstep pass of *Algorithm efficient m.s.p.* over
    all cycles (:func:`efficient_msp_segments`).

    Charges exactly what :func:`_label_cycles_reference` charges: the
    per-cycle figures combined as concurrent (max time, summed work).
    The pass runs under a scratch counter's ``efficient_msp`` span, so a
    wall profile shows it in the row the per-cycle machines used to give.
    Returns ``(msp, period)``.
    """
    with CostCounter().span("efficient_msp"):
        lockstep = efficient_msp_segments(layout_labels, bounds, cost_model=cost_model)
    if len(bounds) > 1:
        m.counter.charge_concurrent(
            time=int(lockstep.time.max()),
            work=int(lockstep.work.sum()),
            charged_work=int(lockstep.charged_work.sum()),
        )
    return lockstep.index, lockstep.period


def label_cycle_nodes(
    function,
    initial_labels,
    on_cycle,
    cycle_key,
    *,
    machine: Optional[Machine] = None,
    cost_model: SortCostModel = SortCostModel.CHARGED,
    msp_algorithm: str = "efficient",
) -> CycleLabelingResult:
    """Run the cycle-labelling phase.

    Parameters
    ----------
    function, initial_labels:
        The instance arrays ``A_f`` and ``A_B``.
    on_cycle:
        Boolean mask of cycle nodes (from the detection phase).
    cycle_key:
        Per-cycle-node key shared exactly by nodes of the same cycle (the
        detection phase provides the circuit id of the forward arc); any
        array with that property works.
    msp_algorithm:
        ``"efficient"`` (paper's O(n log log n)-work algorithm, default) or
        ``"simple"`` (the O(n log n)-work tournament) — the E9 ablation
        flips this switch.  Anything else raises :class:`ValueError`.
    """
    check_msp_algorithm(msp_algorithm)
    m = _ensure_machine(machine)
    f = validate_function(function)
    labels_b = as_int_array(initial_labels, "initial_labels")
    n = len(f)
    on_cyc = np.asarray(on_cycle, dtype=bool)
    key = as_int_array(cycle_key, "cycle_key")

    with m.span("cycle_labeling"):
        # ------------------------------------------------------------------
        # Step 1: heads, ranks, layout.
        # ------------------------------------------------------------------
        m.tick(n, rounds=2)
        idx = np.arange(n, dtype=np.int64)
        # head of each cycle = its minimum-index node, found by a scatter-min
        # keyed on the cycle key (a concurrent "priority" write, charged as a
        # couple of rounds of linear work).
        key_space = int(key.max()) + 2 if len(key) else 1
        best = np.full(key_space, n, dtype=np.int64)
        cyc_nodes = np.flatnonzero(on_cyc)
        np.minimum.at(best, key[cyc_nodes], cyc_nodes)
        is_head = np.zeros(n, dtype=bool)
        is_head[cyc_nodes] = best[key[cyc_nodes]] == cyc_nodes

        # ranks around each cycle from the head (work-optimal list ranking)
        succ_for_rank = np.where(on_cyc, f, idx)
        head_for_rank = is_head & on_cyc
        if not head_for_rank.any() and on_cyc.any():
            raise ValueError("cycle heads could not be determined")
        rank = rank_cycle(succ_for_rank, head_for_rank, machine=m) if on_cyc.any() else np.zeros(n, dtype=np.int64)
        rank = np.where(on_cyc, rank, -1)

        # dense cycle ids in head-index order, lengths, offsets, layout
        heads = np.flatnonzero(head_for_rank)
        num_cycles = len(heads)
        m.tick(n, rounds=2)
        dense_of_key = np.full(key_space, -1, dtype=np.int64)
        dense_of_key[key[heads]] = prefix_sums(head_for_rank.astype(np.int64), machine=m, inclusive=False)[heads]
        cycle_index = np.where(on_cyc, dense_of_key[np.where(on_cyc, key, 0)], -1)
        cycle_lengths = np.zeros(max(1, num_cycles), dtype=np.int64)[:num_cycles]
        if num_cycles:
            cycle_lengths = np.bincount(cycle_index[cyc_nodes], minlength=num_cycles).astype(np.int64)
        cycle_offsets = prefix_sums(cycle_lengths, machine=m, inclusive=False) if num_cycles else np.zeros(0, dtype=np.int64)
        total_cycle_nodes = int(cycle_lengths.sum()) if num_cycles else 0
        m.tick(total_cycle_nodes)
        layout_node = np.empty(total_cycle_nodes, dtype=np.int64)
        slots = cycle_offsets[cycle_index[cyc_nodes]] + rank[cyc_nodes]
        layout_node[slots] = cyc_nodes
        layout_labels = labels_b[layout_node]

        # ------------------------------------------------------------------
        # Step 2a: per-cycle smallest repeating prefix + m.s.p.
        # (concurrent across cycles: time is the max, work the sum)
        # ------------------------------------------------------------------
        bounds = np.append(cycle_offsets, total_cycle_nodes) if num_cycles else np.zeros(1, dtype=np.int64)
        if msp_algorithm == "simple":
            msp, period = _label_cycles_reference(layout_labels, bounds, m, cost_model, msp_algorithm)
        else:
            msp, period = _label_cycles_lockstep(layout_labels, bounds, m, cost_model)

        # ------------------------------------------------------------------
        # Step 2b: equivalence classes of the canonical prefixes.
        # ------------------------------------------------------------------
        from .equivalence import partition_cycles  # local import avoids a module cycle

        m.tick(total_cycle_nodes)
        # canonical prefix of cycle c: its `period` labels from rank msp[c]
        # on, gathered at once (msp < period, so one wrap at most)
        canon_offsets = np.concatenate(([0], np.cumsum(period))).astype(np.int64)
        owner = np.repeat(np.arange(num_cycles, dtype=np.int64), period)
        rank_in_cycle = msp[owner] + np.arange(len(owner), dtype=np.int64) - canon_offsets[owner]
        rank_in_cycle -= np.where(rank_in_cycle >= cycle_lengths[owner], cycle_lengths[owner], 0)
        canon_flat = layout_labels[cycle_offsets[owner] + rank_in_cycle]
        eq = partition_cycles(canon_flat, canon_offsets, machine=m, cost_model=cost_model) if num_cycles else None

        # ------------------------------------------------------------------
        # Q-labels: class base offsets + within-class offsets mod period.
        # ------------------------------------------------------------------
        q_labels = np.full(n, -1, dtype=np.int64)
        num_labels = 0
        class_of = eq.class_of if eq is not None else np.zeros(0, dtype=np.int64)
        class_base = np.zeros(0, dtype=np.int64)
        if num_cycles:
            m.tick(num_cycles + total_cycle_nodes, rounds=3)
            num_classes = eq.num_classes
            # each class uses `period of any member` labels; members of a class
            # share the period (equal canonical strings have equal length)
            class_period = np.zeros(num_classes, dtype=np.int64)
            class_period[class_of] = period
            class_base = prefix_sums(class_period, machine=m, inclusive=False)
            num_labels = int(class_period.sum())
            # node x on cycle c at rank r: offset = (r - msp[c]) mod period[c]
            c_of = cycle_index[cyc_nodes]
            offsets_in_class = (rank[cyc_nodes] - msp[c_of]) % period[c_of]
            q_labels[cyc_nodes] = class_base[class_of[c_of]] + offsets_in_class

    return CycleLabelingResult(
        q_labels=q_labels,
        num_labels=num_labels,
        cycle_index=cycle_index,
        cycle_rank=rank,
        cycle_lengths=cycle_lengths if num_cycles else np.zeros(0, dtype=np.int64),
        cycle_offsets=cycle_offsets if num_cycles else np.zeros(0, dtype=np.int64),
        layout_node=layout_node,
        msp=msp,
        period=period,
        class_of=class_of,
        class_base=class_base,
    )
