"""Euler-tour technique on forests and pseudo-forests.

The Euler tour technique (Tarjan & Vishkin) turns tree computations into
list computations: replace every undirected tree edge by two directed arcs
("buddies"), define a successor function that, at each vertex, routes an
incoming arc to the next outgoing arc in the circular adjacency order, and
the arcs form one Euler circuit per tree, which can then be processed with
list ranking.

Two uses in the paper:

* *Algorithm finding cycle nodes* (Section 5): build the buddy graph of
  the pseudo-forest; the successor function produces, for every
  pseudo-tree, exactly **two** Euler circuits, and a functional-graph edge
  lies on the cycle of its pseudo-tree iff its two directed copies end up
  in *different* circuits (tree edges and their buddies share a circuit).
* *Algorithm tree node labeling* (Section 4, Step 1): vertex levels in the
  rooted trees via the standard Euler-tour +1/-1 trick.

Costs: building the adjacency structure charges one pair sort of the
``2m`` arcs by tail through the adapter; the tours and rankings are
``O(log n)`` time, ``O(n)`` work.  :func:`build_euler_structure` and
:func:`forest_structure` are the generic builders, for any graph, and the
reference the two functional-graph builders are tested against.  For the
edges ``x -> f(x)`` of a functional graph that sort's outcome is known
once ``f``'s in-arcs are grouped by head (:func:`in_arc_order`, one stable
sort of the ``n`` values of ``f``): a node's out-arcs are its own forward
arc followed by the buddies of its in-arcs, by index.  So
:func:`functional_euler_structure` (cycle detection) and
:func:`functional_forest_structure` (tree levels, from the same order)
write the successor in closed form and charge the generic build's figures
without running its sort.

Which path runs when: cycle detection (step 1) always builds its doubled
structure.  Tree labeling (step 3) builds :func:`functional_forest_structure`
and runs :func:`vertex_levels_from_tree` only for forests too deep for its
level path; otherwise it walks the trees level by level
(:mod:`repro.pram.kernels`) and charges exactly what those calls charge
from the trees' shape: :func:`forest_tour` reads the circuit sizes and the
list ranking's ruler positions off the levels, subtree sizes and preorder
indices, and :func:`charge_forest_structure` and
:func:`charge_vertex_levels` charge them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..pram.kernels import ForestLevels, cycle_min_labels, sort_indices
from ..pram.machine import Machine
from ..pram.metrics import CapturedCost
from ..types import as_int_array
from .integer_sort import SortCostModel, charge_pair_sort, sort_pairs
from .list_ranking import charge_optimal_rank, default_ruler_spacing, optimal_rank
from .prefix_sums import charge_prefix_sums, charge_segmented_prefix_sums, prefix_sums


def _ensure_machine(machine: Optional[Machine]) -> Machine:
    return machine if machine is not None else Machine.default()


@dataclass
class EulerStructure:
    """Directed-arc structure of the doubled (buddy) graph.

    For an input with ``n`` nodes and ``m`` edges ``(u_i, v_i)`` the doubled
    graph has ``2m`` arcs: arc ``i`` is ``u_i -> v_i`` for ``i < m`` and the
    buddy ``v_{i-m} -> u_{i-m}`` for ``i >= m``.

    Attributes
    ----------
    tail, head:
        Arc endpoints, length ``2m``.
    buddy:
        ``buddy[a]`` is the index of the reversed copy of arc ``a``.
    successor:
        The Euler-tour successor: the arc that follows ``a`` in its circuit.
    circuit_id:
        Identifier (smallest arc index) of the circuit each arc belongs to.
    """

    tail: np.ndarray
    head: np.ndarray
    buddy: np.ndarray
    successor: np.ndarray
    circuit_id: np.ndarray

    @property
    def num_arcs(self) -> int:
        return len(self.tail)


def build_euler_structure(
    edge_tail,
    edge_head,
    num_nodes: int,
    *,
    machine: Optional[Machine] = None,
    cost_model: SortCostModel = SortCostModel.CHARGED,
) -> EulerStructure:
    """Build the buddy-arc Euler structure of an undirected (multi)graph.

    ``edge_tail[i] -> edge_head[i]`` are the original directed edges (for a
    functional graph, ``x -> f(x)``); each gets a buddy in the reverse
    direction.  The successor function is the Tarjan–Vishkin one: the arc
    following ``(u, v)`` is the buddy-of-the-next arc in ``v``'s circular
    list of incident arcs — equivalently, ``successor[a] = next arc out of
    head[a] after buddy[a]`` in the sorted adjacency order.

    The generic reference: it sorts the arcs by tail, so it serves any
    graph.  The solver's functional graphs take
    :func:`functional_euler_structure` and
    :func:`functional_forest_structure`, which return its arrays and
    charge its figures without the sort.

    Cost: one pair sort over ``2m`` items (adapter-charged) plus ``O(1)``
    linear-work rounds.
    """
    m = _ensure_machine(machine)
    tail0 = as_int_array(edge_tail, "edge_tail")
    head0 = as_int_array(edge_head, "edge_head")
    if len(tail0) != len(head0):
        raise ValueError("edge_tail and edge_head must have equal length")
    n_edges = len(tail0)
    with m.span("euler_structure"):
        m.tick(2 * n_edges if n_edges else 0)
        tail = np.concatenate([tail0, head0])
        head = np.concatenate([head0, tail0])
        n_arcs = 2 * n_edges
        buddy = np.concatenate(
            [
                np.arange(n_edges, dtype=np.int64) + n_edges,
                np.arange(n_edges, dtype=np.int64),
            ]
        )
        if n_arcs == 0:
            empty = np.zeros(0, dtype=np.int64)
            return EulerStructure(tail, head, buddy, empty, empty)

        # Group arcs by tail: sort arcs by (tail, arc index) so that each
        # vertex's outgoing arcs occupy a contiguous, circularly ordered run.
        perm = sort_pairs(
            tail,
            np.arange(n_arcs, dtype=np.int64),
            machine=m,
            key_range=max(int(num_nodes), n_arcs) + 1,
            cost_model=cost_model,
        )
        m.tick(n_arcs, rounds=2)
        sorted_tail = tail[perm]
        # position of each arc within its vertex group, and group boundaries
        is_head_of_group = np.empty(n_arcs, dtype=bool)
        is_head_of_group[0] = True
        is_head_of_group[1:] = sorted_tail[1:] != sorted_tail[:-1]
        group_start_positions = np.flatnonzero(is_head_of_group)
        group_of_sorted = np.cumsum(is_head_of_group.astype(np.int64)) - 1
        group_sizes = np.diff(np.append(group_start_positions, n_arcs))
        pos_in_group = np.arange(n_arcs, dtype=np.int64) - group_start_positions[group_of_sorted]

        # next_out[a] = the arc after a in its tail vertex's circular order
        m.tick(n_arcs)
        next_pos = (pos_in_group + 1) % group_sizes[group_of_sorted]
        next_sorted_index = group_start_positions[group_of_sorted] + next_pos
        next_out_sorted = perm[next_sorted_index]
        next_out = np.empty(n_arcs, dtype=np.int64)
        next_out[perm] = next_out_sorted

        # Tarjan–Vishkin successor: succ(a) = next_out[buddy[a]]
        m.tick(n_arcs)
        successor = next_out[buddy]

        circuit_id = _circuit_ids(successor, m)
    return EulerStructure(tail, head, buddy, successor, circuit_id)


def in_arc_order(f: np.ndarray) -> np.ndarray:
    """The nodes sorted by ``(f(y), y)``: every node's in-arcs, by index.

    One stable radix sort of the ``n`` values of ``f``.  Host only: the
    builders that take it charge the generic build's pair sort instead.
    """
    return sort_indices(f, len(f))


def _doubled_successor(f: np.ndarray, order: np.ndarray, keep: Optional[np.ndarray]) -> np.ndarray:
    """The successor of :func:`functional_euler_structure` (at least one
    node kept), in closed form.

    The forward arc of the ``i``-th kept node is ``i``, its buddy
    ``c + i``, as :func:`build_euler_structure` numbers them.  Sorted by
    tail, a node's out-arcs are its own forward arc (if kept), then the
    buddies of its kept in-arcs by index: ``order`` filtered to kept
    nodes.  So the forward arc of ``y`` goes to the buddy of ``y``'s next
    sibling under ``f(y)``, or from the last sibling to ``f(y)``'s first
    out-arc; the buddy arc of ``y`` goes to the buddy of ``y``'s first
    in-arc, or to ``y``'s forward arc when ``y`` has none.
    """
    if keep is None:
        nodes = arc_of = order
    else:
        rank = np.cumsum(keep) - 1
        nodes = order[keep[order]]
        arc_of = rank[nodes]
    c = len(nodes)
    heads = f[nodes]
    last = np.empty(c, dtype=bool)
    last[-1] = True
    np.not_equal(heads[1:], heads[:-1], out=last[:-1])
    ends = np.flatnonzero(last)
    starts = np.concatenate(([0], ends[:-1] + 1))
    parent = heads[ends]
    first_buddy = arc_of[starts] + c
    successor = np.empty(2 * c, dtype=np.int64)
    successor[c:] = np.arange(c, dtype=np.int64)
    next_arc = np.empty(c, dtype=np.int64)
    next_arc[:-1] = arc_of[1:] + c
    if keep is None:
        next_arc[ends] = parent
        successor[c + parent] = first_buddy
    else:
        inner = keep[parent]
        next_arc[ends] = np.where(inner, rank[parent], first_buddy)
        successor[c + rank[parent[inner]]] = first_buddy[inner]
    successor[arc_of] = next_arc
    return successor


def functional_euler_structure(
    function,
    order: Optional[np.ndarray] = None,
    keep: Optional[np.ndarray] = None,
    *,
    machine: Optional[Machine] = None,
    cost_model: SortCostModel = SortCostModel.CHARGED,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Euler structure of the doubled edges ``x -> f(x)`` of the nodes in
    ``keep`` (every node when ``None``), from ``f``'s in-arc order.

    Returns ``(order, successor, circuit_id)``: the :func:`in_arc_order`
    used (computed when ``order`` is ``None``), and the successor and
    circuit ids :func:`build_euler_structure` gives for the kept nodes in
    increasing order, array for array, with its charges under its span.
    Tail, head and buddy stay implicit; with every node kept, arc ``x`` is
    ``x -> f(x)`` and arc ``n + x`` its buddy.
    """
    m = _ensure_machine(machine)
    f = as_int_array(function, "function")
    n_arcs = 2 * (len(f) if keep is None else int(np.count_nonzero(keep)))
    successor = circuit_id = np.zeros(0, dtype=np.int64)
    with m.span("euler_structure"):
        if order is None:
            order = in_arc_order(f)
        m.tick(n_arcs)
        if n_arcs:
            _charge_build(m, len(f), n_arcs, cost_model)
            successor = _doubled_successor(f, order, keep)
            circuit_id = _circuit_ids(successor, m)
    return order, successor, circuit_id


def _charge_build(machine: Machine, n_nodes: int, n_arcs: int, cost_model: SortCostModel) -> None:
    """What :func:`build_euler_structure` charges for ``n_arcs >= 1`` arcs
    between its first tick and its circuit ids."""
    charge_pair_sort(machine, n_arcs, max(n_nodes, n_arcs) + 1, cost_model)
    # group bounds (two rounds), next_out and successor (one round each)
    machine.tick(3 * n_arcs, rounds=4)


def _circuit_ids(successor: np.ndarray, machine: Machine) -> np.ndarray:
    """Label each arc with the minimum arc index on its circuit.

    The *charged* figures replicate pointer doubling carrying a running
    minimum (``O(log n)`` rounds, ``O(n log n)`` incurred operations; the
    executable spec is :func:`_circuit_ids_reference`): the number of
    doubling rounds that loop performs is a closed-form function of the
    circuit lengths — see :func:`_reference_doubling_rounds` — so the
    adapter charge is emitted without running it.  The *host* labels come
    from :func:`repro.pram.kernels.cycle_min_labels`, which contracts
    resolved arcs out of the doubling set (O(n) host operations) instead
    of re-gathering all ``n`` every round.  The paper's Section 5 charges
    this step at the cost of optimal list ranking ("all the steps of the
    algorithm can be implemented using essentially the list ranking
    algorithm", i.e. ``O(n)`` work); the incurred/charged gap is recorded
    through the cost adapter so both figures appear in the accounting
    (see DESIGN.md §2 and experiment E9).
    """
    n = len(successor)
    label = cycle_min_labels(successor)
    sizes = np.bincount(label) if n else np.zeros(0, dtype=np.int64)
    _charge_circuit_ids(machine, n, _reference_doubling_rounds(sizes[sizes > 0], n))
    return label


def _charge_circuit_ids(machine: Machine, n: int, performed: int) -> None:
    """The adapter charge of circuit labeling on ``n`` arcs whose reference
    doubling loop runs ``performed`` rounds."""
    machine.counter.charge_adapter(
        incurred_work=n * performed,
        incurred_rounds=performed,
        charged_work=2 * n,
        charged_rounds=max(1, int(np.ceil(np.log2(max(2, n))))),
        label="circuit_ids",
    )


def _reference_doubling_rounds(sizes: np.ndarray, n: int) -> int:
    """Rounds the reference doubling loop performs on ``n`` arcs whose
    circuits have ``sizes`` arcs each.

    :func:`_circuit_ids_reference` exits early only when its label pass
    has stabilised (first round ``t`` with window ``2^(t-1) >= L`` for
    every circuit length ``L``) *and* pointer doubling has reached a
    fixed point (``succ^(2^t) == succ^(2^(t-1))``, i.e. every ``L``
    divides ``2^(t-1)`` — which happens iff every circuit length is a
    power of two).  Both conditions first hold at ``log2(Lmax) + 1`` in
    the power-of-two case; otherwise the loop runs its full
    ``ceil(log2(max(2, n))) + 1`` budget.  Parity with the executed loop
    is pinned by the kernel fuzz suite.
    """
    if n == 0:
        return 1
    if bool(np.all((sizes & (sizes - 1)) == 0)):
        return int(sizes.max()).bit_length()
    return int(np.ceil(np.log2(max(2, n)))) + 1


def _circuit_ids_reference(successor: np.ndarray, machine: Machine) -> np.ndarray:
    """Pre-PR 4 realisation of :func:`_circuit_ids`, kept as the executable
    spec of the charged figures (the fuzz suite pins the fast path's labels
    and accounting against it)."""
    n = len(successor)
    ptr = successor.copy()
    label = np.arange(n, dtype=np.int64)
    rounds = int(np.ceil(np.log2(max(2, n)))) + 1
    performed = 0
    labels_stable = False
    for _ in range(rounds):
        performed += 1
        if not labels_stable:
            gathered = label[ptr]
            new_label = np.minimum(label, gathered)
            # min(label, gathered) == label  <=>  nothing gathered was smaller;
            # once true it stays true (labels are constant along every pointer
            # orbit from then on), so later rounds skip the label pass.
            labels_stable = not bool((gathered < label).any())
        else:
            new_label = label
        new_ptr = ptr[ptr]
        if labels_stable and np.array_equal(new_ptr, ptr):
            break
        label, ptr = new_label, new_ptr
    _charge_circuit_ids(machine, n, performed)
    return label


def vertex_levels_from_tree(
    parent,
    roots,
    *,
    machine: Optional[Machine] = None,
    cost_model: SortCostModel = SortCostModel.CHARGED,
    node_weight=None,
    structure: Optional[EulerStructure] = None,
) -> np.ndarray:
    """Weighted depth of every node in a rooted forest given parent pointers.

    ``parent[r] == r`` for roots (the ``roots`` mask is validated against
    this).  With the default unit weights the result is the ordinary tree
    level (root = 0).  With per-node ``node_weight`` the result at ``x`` is
    the sum of weights over the ancestors of ``x`` *including x itself but
    excluding the root* — exactly the quantity needed by the paper's
    Algorithm *tree node labeling* Step 3 (count of unmarked ancestors,
    weight = 1 - marked) as well as Step 1 (levels, weight = 1).

    The paper computes these with the Euler-tour technique in ``O(log n)``
    time and ``O(n)`` work; that is the cost charged here (one Euler
    structure over the tree edges plus a list ranking and scans).  Passing
    a prebuilt ``structure`` (from a previous call on the same forest)
    reuses it and skips its construction cost.
    """
    m = _ensure_machine(machine)
    par = as_int_array(parent, "parent")
    root_mask = np.asarray(roots, dtype=bool)
    n = len(par)
    if len(root_mask) != n:
        raise ValueError("roots mask must match parent length")
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if not np.array_equal(par[root_mask], np.flatnonzero(root_mask)):
        raise ValueError("roots must satisfy parent[r] == r")

    with m.span("vertex_levels"):
        child = np.flatnonzero(~root_mask)
        if len(child) == 0:
            return np.zeros(n, dtype=np.int64)
        if structure is None:
            structure = build_euler_structure(
                child, par[child], n, machine=m, cost_model=cost_model
            )
        # Arc a contributes +w(child) when walking away from the root
        # (parent->child) and -w(child) when walking back.  In our arc
        # numbering the first len(child) arcs are child->parent (negative)
        # and their buddies are parent->child (positive).
        n_arcs = structure.num_arcs
        m.tick(n_arcs)
        if node_weight is None:
            per_child = np.ones(len(child), dtype=np.int64)
        else:
            w = np.asarray(node_weight, dtype=np.int64)
            if len(w) != n:
                raise ValueError("node_weight must have one entry per node")
            per_child = w[child]
        weight = np.concatenate([-per_child, per_child])
        level = _levels_from_tour(structure, weight, root_mask, m)
    return level


def forest_structure(
    parent,
    roots,
    *,
    machine: Optional[Machine] = None,
    cost_model: SortCostModel = SortCostModel.CHARGED,
) -> Tuple[EulerStructure, np.ndarray]:
    """Euler structure of a rooted forest plus each node's root.

    Returns ``(structure, root_of)``.  ``root_of[x]`` is the root of the
    tree containing ``x`` (roots map to themselves).  The root lookup is a
    constant-round scatter/gather through the circuit ids (each tree's
    doubled edges form exactly one Euler circuit), so the whole call stays
    within ``O(log n)`` time and ``O(n)`` work plus one adapter-charged
    sort for the adjacency build.
    """
    m = _ensure_machine(machine)
    par = as_int_array(parent, "parent")
    root_mask = np.asarray(roots, dtype=bool)
    child = np.flatnonzero(~root_mask)
    structure = build_euler_structure(child, par[child], len(par), machine=m, cost_model=cost_model)
    return structure, _forest_roots(structure, root_mask, child, m)


def functional_forest_structure(
    function,
    on_cycle,
    order: Optional[np.ndarray] = None,
    *,
    machine: Optional[Machine] = None,
    cost_model: SortCostModel = SortCostModel.CHARGED,
) -> Tuple[EulerStructure, np.ndarray]:
    """:func:`forest_structure` of the trees of a functional graph, rooted
    at its cycle nodes, from ``f``'s :func:`in_arc_order`.

    Returns what ``forest_structure(where(on_cycle, arange(n), f),
    on_cycle)`` returns, array for array and charge for charge.  The tree
    arcs are the doubled edges of the tree nodes, and a node's out-arcs
    are its tree in-arcs in ``order`` (a cycle node's cycle predecessor
    drops out with the cycle nodes), so no sort runs.  Without ``order``
    the call sorts ``f`` itself.
    """
    m = _ensure_machine(machine)
    f = as_int_array(function, "function")
    root_mask = np.asarray(on_cycle, dtype=bool)
    _order, successor, circuit_id = functional_euler_structure(
        f, order, ~root_mask, machine=m, cost_model=cost_model
    )
    child = np.flatnonzero(~root_mask)
    c = len(child)
    head = f[child]
    arcs = np.arange(c, dtype=np.int64)
    structure = EulerStructure(
        tail=np.concatenate([child, head]),
        head=np.concatenate([head, child]),
        buddy=np.concatenate([arcs + c, arcs]),
        successor=successor,
        circuit_id=circuit_id,
    )
    return structure, _forest_roots(structure, root_mask, child, m)


def _forest_roots(
    structure: EulerStructure, root_mask: np.ndarray, child: np.ndarray, machine: Machine
) -> np.ndarray:
    """Each node's root, through the circuit ids of a forest's structure."""
    root_of = np.arange(len(root_mask), dtype=np.int64)
    if structure.num_arcs:
        with machine.span("forest_roots"):
            machine.tick(structure.num_arcs, rounds=2)
            # arcs whose tail is a root broadcast that root through their circuit id
            root_arcs = np.flatnonzero(root_mask[structure.tail])
            per_circuit_root = np.full(structure.num_arcs, -1, dtype=np.int64)
            per_circuit_root[structure.circuit_id[root_arcs]] = structure.tail[root_arcs]
            # every non-root node has an outgoing (child->parent) arc: arc index == node position in `child`
            root_of[child] = per_circuit_root[structure.circuit_id[: len(child)]]
    return root_of


def tour_positions(
    structure: EulerStructure,
    start_mask: np.ndarray,
    *,
    machine: Optional[Machine] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Position of every arc along its Euler circuit, measured from the
    circuit's designated start arc.

    ``start_mask`` must flag exactly one arc per circuit.  Returns
    ``(position, circuit_length)`` (both per arc).  Cost: one list ranking
    plus O(1) linear-work rounds — ``O(log n)`` time, ``O(n)`` work.
    """
    m = _ensure_machine(machine)
    n_arcs = structure.num_arcs
    succ = structure.successor
    circuit = structure.circuit_id
    with m.span("tour_positions"):
        # Break each circuit just before its start arc and rank to the tail.
        m.tick(n_arcs)
        broken = np.where(start_mask[succ], np.arange(n_arcs, dtype=np.int64), succ)
        to_tail = optimal_rank(broken, machine=m)
        # The start arc's distance-to-tail is (circuit length - 1); broadcast
        # it through the circuit_id (an arc index, hence a valid address).
        m.tick(n_arcs, rounds=2)
        length_at = np.zeros(n_arcs, dtype=np.int64)
        starts = np.flatnonzero(start_mask)
        length_at[circuit[starts]] = to_tail[starts] + 1
        circuit_length = length_at[circuit]
        position = (circuit_length - 1) - to_tail
    return position, circuit_length


def _tour_layout(
    structure: EulerStructure,
    root_mask: np.ndarray,
    machine: Machine,
) -> Tuple[np.ndarray, np.ndarray]:
    """Tour-order slot of every arc plus the circuit segment heads.

    Weight-independent part of :func:`_levels_from_tour`: the start arcs,
    the list ranking and the contiguous circuit layout depend only on the
    structure and the root mask, so when two weighted-level passes share
    one structure (tree labeling steps 1 and 3) the layout is computed
    once and its exact accounting — captured via
    :meth:`~repro.pram.metrics.CostCounter.capture` — is replayed on
    reuse.  The charged totals are byte-identical to re-running the
    layout; only the host work disappears.
    """
    counter = machine.counter
    span_path = "/".join(counter._span_stack)
    cached = getattr(structure, "_tour_layout_cache", None)
    if cached is not None:
        slot, seg_heads, cached_mask, captured = cached
        if captured.span_path == span_path and np.array_equal(cached_mask, root_mask):
            counter.replay(captured)
            return slot, seg_heads
    n_arcs = structure.num_arcs
    circuit = structure.circuit_id
    with counter.capture() as captured:
        # Start arc of each circuit: the minimum arc index whose tail is a
        # root.  (Every circuit of a rooted tree's doubled graph contains
        # the root's outgoing arcs, so such an arc exists whenever the tree
        # has any edge.)
        machine.tick(n_arcs, rounds=2)
        candidate = np.where(
            root_mask[structure.tail], np.arange(n_arcs, dtype=np.int64), n_arcs
        )
        best = np.full(n_arcs, n_arcs, dtype=np.int64)
        np.minimum.at(best, circuit, candidate)
        start_of_circuit = best[circuit]
        start_mask = np.arange(n_arcs, dtype=np.int64) == start_of_circuit

        position, _length = tour_positions(structure, start_mask, machine=machine)

        # Lay the circuits out contiguously: offset per circuit via a
        # scatter of circuit sizes (indexed by circuit_id, which is an arc
        # index) and an exclusive prefix sum.
        machine.tick(n_arcs, rounds=2)
        sizes = np.zeros(n_arcs, dtype=np.int64)
        starts = np.flatnonzero(start_mask)
        sizes[circuit[starts]] = _length[starts]
        offsets = prefix_sums(sizes, machine=machine, inclusive=False)
        slot = offsets[circuit] + position
        seg_heads = np.zeros(n_arcs, dtype=bool)
        if n_arcs:
            seg_heads[0] = True
            seg_heads[offsets[circuit[starts]]] = True
    # copy the mask: caching the caller's array by reference would make the
    # staleness check compare a mutated mask against itself
    structure._tour_layout_cache = (slot, seg_heads, root_mask.copy(), captured)
    return slot, seg_heads


def _levels_from_tour(
    structure: EulerStructure,
    weight: np.ndarray,
    root_mask: np.ndarray,
    machine: Machine,
) -> np.ndarray:
    """Prefix-sum the +1/-1 arc weights along each Euler circuit.

    The inclusive prefix value at the (unique) parent->child arc entering a
    vertex is that vertex's depth.  All steps are O(1) linear-work rounds
    apart from one list ranking and one segmented scan (and the list
    ranking runs — and charges — once per structure, see :func:`_tour_layout`).
    """
    n_arcs = structure.num_arcs
    n_edges = n_arcs // 2

    slot, seg_heads = _tour_layout(structure, root_mask, machine)

    # Scatter weights into tour order and scan within each circuit.
    machine.tick(n_arcs, rounds=2)
    laid_weight = np.zeros(n_arcs, dtype=np.int64)
    laid_weight[slot] = weight
    from .prefix_sums import segmented_prefix_sums  # local import avoids a cycle at load time

    depth_in_order = segmented_prefix_sums(laid_weight, seg_heads, machine=machine)
    depth_at_arc = depth_in_order[slot]

    # The unique parent->child arc entering vertex v carries depth(v); those
    # are the buddy arcs (indices >= n_edges).  Exclusive writes.
    machine.tick(n_arcs)
    n_nodes = len(root_mask)
    level = np.zeros(n_nodes, dtype=np.int64)
    down = np.arange(n_edges, n_arcs, dtype=np.int64)
    level[structure.head[down]] = depth_at_arc[down]
    level[root_mask] = 0
    return level


class ForestTour(NamedTuple):
    """What the Euler tour of a functional graph's trees charges, read off
    the trees' shape (see :func:`forest_tour`)."""

    #: nodes of the graph
    n: int
    #: ``bounds[i]`` to ``bounds[i + 1] - 1`` are the tour positions of
    #: root ``i``'s circuit, laid end to end (twice its tree's node count)
    bounds: np.ndarray
    #: positions of :func:`optimal_rank`'s rulers (unsorted, with repeats)
    ruler_slots: np.ndarray

    @property
    def num_arcs(self) -> int:
        return int(self.bounds[-1])


def forest_tour(
    n: int, levels: ForestLevels, size: np.ndarray, pre: np.ndarray, tree_rank: np.ndarray
) -> ForestTour:
    """The :class:`ForestTour` of the trees ``levels`` walks, without the tour.

    ``size`` and ``pre`` are each position's subtree size and preorder
    index (:func:`~repro.pram.kernels.subtree_sizes`,
    :func:`~repro.pram.kernels.preorder`), and ``tree_rank`` the rank of
    each tree position's node among the tree nodes, by index.

    The tour of :func:`functional_forest_structure` starts each circuit at
    the arc into the root's first child and visits children by index, so
    the tree node at depth ``d`` with preorder index ``p`` is entered at
    position ``2p - d + 1`` of its circuit and left ``2 * size - 1``
    positions later.  Its up arc is arc ``tree_rank`` and its down arc arc
    ``c + tree_rank`` for ``c`` tree nodes; :func:`tour_positions` breaks
    each circuit before its start, whose head and tail are rulers too.
    """
    r = levels.bounds[1]
    bounds = np.zeros(r + 1, dtype=np.int64)
    np.cumsum(2 * (size[:r] - 1), out=bounds[1:])
    c = int(bounds[-1]) // 2

    def entered(at: np.ndarray) -> np.ndarray:
        depth = np.searchsorted(levels.bounds, at, side="right") - 1
        return bounds[levels.root[at]] + 2 * pre[at] - depth + 1

    ruler_slots = np.zeros(0, dtype=np.int64)
    if 2 * c > 4:  # optimal_rank's Wyllie branch needs no rulers
        spacing = default_ruler_spacing(2 * c)
        up = r + np.flatnonzero(tree_rank % spacing == 0)
        down = r + np.flatnonzero((tree_rank + c) % spacing == 0)
        ruler_slots = np.concatenate(
            (bounds[:-1], bounds[1:] - 1, entered(up) + 2 * size[up] - 1, entered(down))
        )
    return ForestTour(n, bounds, ruler_slots)


def charge_forest_structure(
    tour: ForestTour, *, machine: Machine, cost_model: SortCostModel = SortCostModel.CHARGED
) -> None:
    """Charge what :func:`functional_forest_structure` charges, root lookup
    included, for the trees of ``tour``, without building anything.

    Its one data-dependent figure, the circuit labeling's reference
    rounds, follows from the circuit sizes.
    """
    n_arcs = tour.num_arcs
    with machine.span("euler_structure"):
        machine.tick(n_arcs)
        _charge_build(machine, tour.n, n_arcs, cost_model)
        _charge_circuit_ids(machine, n_arcs, _reference_doubling_rounds(np.diff(tour.bounds), n_arcs))
    with machine.span("forest_roots"):
        machine.tick(n_arcs, rounds=2)


def charge_vertex_levels(
    tour: ForestTour, *, machine: Machine, layout: Optional[CapturedCost] = None
) -> CapturedCost:
    """Charge what :func:`vertex_levels_from_tree` charges on the trees of
    ``tour`` given their structure, without the tour.

    Returns the capture of the weight-independent layout charges; passed
    back as ``layout``, it is replayed as :func:`_tour_layout` replays its
    own for a second pass over the same structure.
    """
    n_arcs = tour.num_arcs
    counter = machine.counter
    with machine.span("vertex_levels"):
        machine.tick(n_arcs)
        if layout is not None and layout.span_path == "/".join(counter._span_stack):
            counter.replay(layout)
        else:
            with counter.capture() as layout:
                machine.tick(n_arcs, rounds=2)
                with machine.span("tour_positions"):
                    machine.tick(n_arcs)
                    charge_optimal_rank(machine, n_arcs, tour.bounds, tour.ruler_slots)
                    machine.tick(n_arcs, rounds=2)
                machine.tick(n_arcs, rounds=2)
                charge_prefix_sums(machine, n_arcs)
        machine.tick(n_arcs, rounds=2)
        charge_segmented_prefix_sums(machine, n_arcs)
        machine.tick(n_arcs)
    return layout


def mark_cycle_arcs(structure: EulerStructure, *, machine: Optional[Machine] = None) -> np.ndarray:
    """Mark the arcs of the doubled pseudo-forest that lie on a cycle.

    Per the paper's observation (Section 5): in the two Euler circuits of a
    doubled pseudo-tree, a *cycle* edge and its buddy fall in different
    circuits, while a *tree* edge and its buddy share a circuit.  So arc
    ``a`` is a cycle arc iff ``circuit_id[a] != circuit_id[buddy[a]]``.
    """
    m = _ensure_machine(machine)
    with m.span("mark_cycle_arcs"):
        m.tick(structure.num_arcs)
        return structure.circuit_id != structure.circuit_id[structure.buddy]
