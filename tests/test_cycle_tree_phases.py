"""Tests for the cycle-labelling and tree-labelling phases in isolation."""
import numpy as np

from repro.graphs.functional_graph import analyze_structure
from repro.graphs.generators import random_function, random_permutation
from repro.partition import (
    brute_force_coarsest,
    canonical_labels,
    find_cycle_nodes,
    label_cycle_nodes,
    label_tree_nodes,
    same_partition,
)


def _run_phases(f, b):
    det = find_cycle_nodes(f)
    cycles = label_cycle_nodes(f, canonical_labels(b), det.on_cycle, det.cycle_key)
    trees = label_tree_nodes(f, canonical_labels(b), det.on_cycle, cycles)
    return det, cycles, trees


def test_cycle_labels_match_reference_on_permutation():
    f, b = random_permutation(60, num_labels=2, seed=3)
    det, cycles, _ = _run_phases(f, b)
    expect = brute_force_coarsest(f, b)
    assert same_partition(cycles.q_labels, expect)


def test_cycle_layout_is_consistent():
    f, b = random_permutation(48, num_labels=2, seed=5)
    det, cycles, _ = _run_phases(f, b)
    st = analyze_structure(f)
    assert cycles.cycle_lengths.sum() == 48
    # layout_node really lays each cycle out in f-order
    for c in range(len(cycles.cycle_lengths)):
        lo = int(cycles.cycle_offsets[c])
        members = cycles.layout_node[lo: lo + int(cycles.cycle_lengths[c])]
        for i in range(len(members) - 1):
            assert f[members[i]] == members[i + 1]
        assert f[members[-1]] == members[0]


def test_cycle_period_divides_length():
    f, b = random_permutation(64, num_labels=2, seed=8)
    _, cycles, _ = _run_phases(f, b)
    assert np.all(cycles.cycle_lengths % cycles.period == 0)
    assert np.all(cycles.msp < np.maximum(cycles.period, 1))


def test_tree_labels_complete_and_match_reference():
    for seed in range(4):
        f, b = random_function(80, num_labels=2, seed=seed)
        det, cycles, trees = _run_phases(f, b)
        assert (trees.q_labels >= 0).all()
        expect = brute_force_coarsest(f, b)
        assert same_partition(trees.q_labels, expect)


def test_inherited_nodes_have_cycle_labels():
    # one cycle of constant label with a chain of the same label: every tree
    # node matches its corresponding cycle node and inherits a cycle label.
    f = np.array([1, 2, 0, 0, 3, 4])
    b = np.zeros(6, dtype=np.int64)
    det, cycles, trees = _run_phases(f, b)
    assert trees.residual_size == 0
    assert trees.inherited_mask[3:].all()
    assert len(np.unique(trees.q_labels)) == 1


def test_residual_forest_when_labels_differ():
    # chain labelled differently from the cycle: nothing can inherit
    f = np.array([1, 2, 0, 0, 3, 4])
    b = np.array([0, 0, 0, 1, 1, 1])
    det, cycles, trees = _run_phases(f, b)
    assert trees.residual_size == 3
    expect = brute_force_coarsest(f, b)
    assert same_partition(trees.q_labels, expect)


def test_pure_cycle_instance_has_no_tree_phase_work():
    f, b = random_permutation(32, num_labels=2, seed=1)
    det, cycles, trees = _run_phases(f, b)
    assert trees.residual_size == 0
    assert not trees.inherited_mask.any()
