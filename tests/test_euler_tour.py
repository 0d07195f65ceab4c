"""Tests for the Euler tour technique: circuits, cycle arcs, tree levels."""
import numpy as np
import pytest

from repro.graphs.functional_graph import analyze_structure
from repro.graphs.generators import random_function, tree_heavy
from repro.primitives import (
    build_euler_structure,
    forest_structure,
    mark_cycle_arcs,
    vertex_levels_from_tree,
)


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
