"""Tests for the Euler tour technique: circuits, cycle arcs, tree levels,
and the functional-graph builders of steps 1 and 3 against the generic ones."""
import dataclasses

import numpy as np
import pytest

from repro.graphs.functional_graph import analyze_structure
from repro.graphs.generators import random_function, tree_heavy
from repro.partition import (
    CycleDetectionResult,
    find_cycle_nodes,
    jaja_ryu_partition,
    parallel,
    tree_labeling,
)
from repro.pram import Machine
from repro.pram.models import ArbitraryWinner, arbitrary_crcw
from repro.primitives import (
    SortCostModel,
    build_euler_structure,
    forest_structure,
    mark_cycle_arcs,
    vertex_levels_from_tree,
)
from repro.primitives.euler_tour import functional_euler_structure, functional_forest_structure


def test_two_circuits_per_pseudo_tree(machine):
    # single 4-cycle: doubled graph must split into exactly two circuits
    f = np.array([1, 2, 3, 0])
    es = build_euler_structure(np.arange(4), f, 4, machine=machine)
    assert len(np.unique(es.circuit_id)) == 2


def test_cycle_arcs_of_paper_example(machine):
    a_f = np.array([2, 4, 6, 8, 10, 12, 1, 3, 5, 7, 9, 11, 14, 15, 16, 13]) - 1
    es = build_euler_structure(np.arange(16), a_f, 16, machine=machine)
    cycle_arcs = mark_cycle_arcs(es, machine=machine)
    on_cycle = np.zeros(16, dtype=bool)
    on_cycle[es.tail[cycle_arcs]] = True
    assert on_cycle.all()  # the example is two pure cycles


@pytest.mark.parametrize("seed", range(6))
def test_cycle_arcs_match_sequential_analysis(seed, machine):
    f, _ = random_function(150, seed=seed)
    es = build_euler_structure(np.arange(150), f, 150, machine=machine)
    cycle_arcs = mark_cycle_arcs(es, machine=machine)
    on_cycle = np.zeros(150, dtype=bool)
    on_cycle[es.tail[cycle_arcs]] = True
    assert np.array_equal(on_cycle, analyze_structure(f).on_cycle)


def test_buddy_involution_and_endpoints(machine):
    f = np.array([1, 0, 0])
    es = build_euler_structure(np.arange(3), f, 3, machine=machine)
    assert np.array_equal(es.buddy[es.buddy], np.arange(es.num_arcs))
    assert np.array_equal(es.tail[es.buddy], es.head)


def test_successor_is_a_permutation_of_arcs(machine):
    f, _ = random_function(64, seed=3)
    es = build_euler_structure(np.arange(64), f, 64, machine=machine)
    assert sorted(es.successor.tolist()) == list(range(es.num_arcs))


def test_vertex_levels_simple_tree(machine):
    parent = np.array([0, 0, 0, 1, 1, 2, 5])
    roots = np.array([True] + [False] * 6)
    levels = vertex_levels_from_tree(parent, roots, machine=machine)
    assert levels.tolist() == [0, 1, 1, 2, 2, 2, 3]


def test_vertex_levels_weighted(machine):
    parent = np.array([0, 0, 1, 2])
    roots = np.array([True, False, False, False])
    weight = np.array([0, 1, 0, 1])  # only nodes 1 and 3 count
    levels = vertex_levels_from_tree(parent, roots, machine=machine, node_weight=weight)
    assert levels.tolist() == [0, 1, 1, 2]


def test_vertex_levels_forest_with_several_roots(machine):
    parent = np.array([0, 0, 1, 3, 3, 4])
    roots = np.array([True, False, False, True, False, False])
    levels = vertex_levels_from_tree(parent, roots, machine=machine)
    assert levels.tolist() == [0, 1, 2, 0, 1, 2]


def test_vertex_levels_match_sequential_depth(machine):
    f, _ = tree_heavy(300, seed=5)
    st = analyze_structure(f)
    parent = np.where(st.on_cycle, np.arange(len(f)), f)
    levels = vertex_levels_from_tree(parent, st.on_cycle, machine=machine)
    assert np.array_equal(levels, st.depth)


def test_vertex_levels_validates_roots(machine):
    with pytest.raises(ValueError):
        vertex_levels_from_tree(np.array([1, 0]), np.array([True, False]), machine=machine)


def test_forest_structure_roots(machine):
    f, _ = tree_heavy(200, seed=9)
    st = analyze_structure(f)
    parent = np.where(st.on_cycle, np.arange(len(f)), f)
    _es, root_of = forest_structure(parent, st.on_cycle, machine=machine)
    assert np.array_equal(root_of, st.root)


# ----------------------------------------------------------------------
# Functional-graph builders against the generic ones
# ----------------------------------------------------------------------
# Step 1 builds the doubled graph's structure from f's in-arc order
# (``functional_euler_structure``) and step 3 derives its tree arcs from the
# same order (``functional_forest_structure``).  The generic builders stay
# as the reference: every array, every root, every charge and every span
# must agree with theirs.


def _shuffled(rng, parent):
    """``parent`` (an array of slots) with node ids shuffled."""
    node = rng.permutation(len(parent))
    f = np.empty(len(parent), dtype=np.int64)
    f[node] = node[parent]
    return f


def _star(rng, n):
    """Every node maps to one self-loop."""
    return _shuffled(rng, np.zeros(n, dtype=np.int64))


def _stars_on_a_cycle(rng, n):
    """A 3-cycle whose nodes carry the other nodes as leaves."""
    parent = rng.integers(0, 3, n)
    parent[:3] = [1, 2, 0]
    return _shuffled(rng, parent)


def _long_path(rng, n):
    """A path of ``n - 3`` nodes into a 3-cycle."""
    parent = np.arange(n, dtype=np.int64) - 1
    parent[:3] = [1, 2, 0]
    return _shuffled(rng, parent)


def _recursive_tree(rng, n):
    """A random recursive tree hanging off a 4-cycle."""
    slot = np.arange(n, dtype=np.int64)
    parent = (rng.random(n) * slot).astype(np.int64)
    parent[:4] = (slot[:4] + 1) % 4
    return _shuffled(rng, parent)


def _pseudo_trees(rng, n):
    """Components of every kind side by side: a path into a 3-cycle, leaves
    on a 3-cycle, a recursive tree on a 4-cycle, a bare self-loop, a 2-cycle
    with a leaf and a longer cycle with a leaf."""
    parts, offset = [], 0
    for make, size in ((_long_path, 40), (_stars_on_a_cycle, 50), (_recursive_tree, n - 130)):
        parts.append(make(rng, size) + offset)
        offset += size
    parts.append(np.array([offset]))                                 # self-loop
    parts.append(np.array([offset + 2, offset + 1, offset + 1]))     # 2-cycle + leaf
    offset += 4
    parts.append(offset + np.roll(np.arange(n - 1 - offset), 1))     # bare cycle
    parts.append(np.array([offset]))                                 # leaf on it
    return np.concatenate(parts)


def _self_loops_with_trees(rng, n):
    """Half the nodes are self-loops; each other node hangs below a
    lower-numbered one, so every tree drains into a self-loop."""
    f = np.arange(n, dtype=np.int64)
    f[n // 2:] = rng.integers(0, n, n - n // 2)
    f[n // 2:] = np.minimum(f[n // 2:], np.arange(n // 2, n) - 1)
    return _shuffled(rng, f)


def _two_cycles_with_trees(rng, n):
    """2-cycles on the first nodes, random trees on the rest."""
    parent = np.arange(n, dtype=np.int64)
    pairs = (n // 4) * 2
    parent[:pairs] = np.arange(pairs) ^ 1
    parent[pairs:] = (rng.random(n - pairs) * np.arange(pairs, n)).astype(np.int64)
    return _shuffled(rng, parent)


FUNCTIONS = {
    "single": lambda rng, n: np.zeros(1, dtype=np.int64),
    "self-loops": lambda rng, n: np.arange(n, dtype=np.int64),
    "self-loops-trees": _self_loops_with_trees,
    "two-cycles": lambda rng, n: _shuffled(rng, np.arange(n, dtype=np.int64) ^ 1),
    "two-cycles-trees": _two_cycles_with_trees,
    "permutation": lambda rng, n: rng.permutation(n).astype(np.int64),
    "star": _star,
    "stars-on-a-cycle": _stars_on_a_cycle,
    "long-path": _long_path,
    "recursive-tree": _recursive_tree,
    "pseudo-trees": _pseudo_trees,
}
SHAPES = [(name, 300) for name in FUNCTIONS] + [
    ("random", n) for n in (16, 200, 1023, 1024, 1025, 4096, 1 << 14)
] + [("recursive-tree", 3000), ("long-path", 2000), ("permutation", 1 << 14)]
MACHINES = [
    (winner, audit, cost_model)
    for winner in (ArbitraryWinner.FIRST, ArbitraryWinner.LAST)
    for audit in (True, False)
    for cost_model in (SortCostModel.CHARGED, SortCostModel.INCURRED)
]


def _function(name, n):
    rng = np.random.default_rng(n)
    if name == "random":
        return rng.integers(0, n, n)
    return FUNCTIONS[name](rng, n)


def _accounting(machine):
    counter = machine.counter
    spans = {path: (r.time, r.work, r.charged_work, r.ticks) for path, r in counter._spans.items()}
    return counter.time, counter.work, counter.charged_work, spans


def _run(build, winner, audit, cost_model):
    machine = Machine(arbitrary_crcw(winner), audit=audit)
    with machine.span("step"):
        out = build(machine, cost_model)
    return out, _accounting(machine)


def _assert_arrays_equal(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("winner,audit,cost_model", MACHINES)
@pytest.mark.parametrize("name,n", SHAPES)
def test_functional_euler_structure_matches_generic(name, n, winner, audit, cost_model):
    f = _function(name, n)
    n = len(f)
    (order, successor, circuit_id), charges = _run(
        lambda m, cm: functional_euler_structure(f, machine=m, cost_model=cm), winner, audit, cost_model
    )
    generic, generic_charges = _run(
        lambda m, cm: build_euler_structure(np.arange(n), f, n, machine=m, cost_model=cm),
        winner, audit, cost_model,
    )
    _assert_arrays_equal(order, np.argsort(f, kind="stable"))
    _assert_arrays_equal(successor, generic.successor)
    _assert_arrays_equal(circuit_id, generic.circuit_id)
    # the arc numbering the builder leaves implicit
    assert np.array_equal(generic.tail, np.concatenate([np.arange(n), f]))
    assert np.array_equal(generic.buddy, np.concatenate([np.arange(n) + n, np.arange(n)]))
    assert charges == generic_charges


def _find_cycle_nodes_generic(f, *, machine, cost_model=SortCostModel.CHARGED):
    """Cycle detection on the generic builder, as it ran before the
    functional-graph builder (the reference for step 1's whole span)."""
    n = len(f)
    with machine.span("find_cycle_nodes"):
        structure = build_euler_structure(np.arange(n), f, n, machine=machine, cost_model=cost_model)
        cycle_arc = mark_cycle_arcs(structure, machine=machine)
        machine.tick(n, rounds=2)
        on_cycle = np.zeros(n, dtype=bool)
        on_cycle[structure.tail[:n][cycle_arc[:n]]] = True
        cycle_key = np.where(on_cycle, structure.circuit_id[:n], -1)
    return CycleDetectionResult(on_cycle=on_cycle, cycle_key=cycle_key, in_arc_order=None)


@pytest.mark.parametrize("winner,audit,cost_model", MACHINES)
@pytest.mark.parametrize("name,n", SHAPES)
def test_find_cycle_nodes_matches_generic(name, n, winner, audit, cost_model):
    f = _function(name, n)
    result, charges = _run(
        lambda m, cm: find_cycle_nodes(f, machine=m, cost_model=cm), winner, audit, cost_model
    )
    reference, reference_charges = _run(
        lambda m, cm: _find_cycle_nodes_generic(f, machine=m, cost_model=cm), winner, audit, cost_model
    )
    _assert_arrays_equal(result.on_cycle, reference.on_cycle)
    _assert_arrays_equal(result.cycle_key, reference.cycle_key)
    assert np.array_equal(result.on_cycle, analyze_structure(f).on_cycle)
    assert charges == reference_charges


@pytest.mark.parametrize("given_order", [True, False], ids=["order", "no-order"])
@pytest.mark.parametrize("winner,audit,cost_model", MACHINES)
@pytest.mark.parametrize("name,n", SHAPES)
def test_functional_forest_structure_matches_generic(name, n, winner, audit, cost_model, given_order):
    f = _function(name, n)
    on_cycle = analyze_structure(f).on_cycle
    order = np.argsort(f, kind="stable") if given_order else None
    (structure, root_of), charges = _run(
        lambda m, cm: functional_forest_structure(f, on_cycle, order, machine=m, cost_model=cm),
        winner, audit, cost_model,
    )
    parent = np.where(on_cycle, np.arange(len(f)), f)
    (generic, generic_root_of), generic_charges = _run(
        lambda m, cm: forest_structure(parent, on_cycle, machine=m, cost_model=cm),
        winner, audit, cost_model,
    )
    for field in ("tail", "head", "buddy", "successor", "circuit_id"):
        _assert_arrays_equal(getattr(structure, field), getattr(generic, field))
    _assert_arrays_equal(root_of, generic_root_of)
    assert np.array_equal(root_of, analyze_structure(f).root)
    assert charges == generic_charges


def test_find_cycle_nodes_result_holds_no_arc_array():
    # The 2n-arc structure must die inside step 1: nothing the result
    # carries into steps 2 and 3 may be longer than n.
    f = _function("random", 4096)
    result = find_cycle_nodes(f)
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        assert isinstance(value, np.ndarray) and len(value) == len(f), field.name


def _solve_on_generic_builders(f, b, monkeypatch, **kwargs):
    def generic_forest(function, on_cycle, order=None, *, machine, cost_model):
        parent = np.where(on_cycle, np.arange(len(function)), function)
        return forest_structure(parent, on_cycle, machine=machine, cost_model=cost_model)

    with monkeypatch.context() as patch:
        patch.setattr(parallel, "find_cycle_nodes", _find_cycle_nodes_generic)
        patch.setattr(tree_labeling, "functional_forest_structure", generic_forest)
        return jaja_ryu_partition(f, b, **kwargs)


@pytest.mark.parametrize("cost_model", [SortCostModel.CHARGED, SortCostModel.INCURRED])
@pytest.mark.parametrize("name,n", [
    ("random", 1 << 12), ("random", 1 << 16), ("recursive-tree", 1 << 12),
    ("recursive-tree", 1 << 16), ("permutation", 1 << 12), ("pseudo-trees", 1 << 16),
])
def test_solve_matches_generic_builders(name, n, cost_model, monkeypatch):
    f = _function(name, n)
    b = np.random.default_rng(n + 1).integers(0, 3, len(f))
    result = jaja_ryu_partition(f, b, cost_model=cost_model)
    reference = _solve_on_generic_builders(f, b, monkeypatch, cost_model=cost_model)
    assert np.array_equal(result.labels, reference.labels)
    assert result.num_blocks == reference.num_blocks
    assert result.cost == reference.cost  # totals and every span
