"""Parity suite for the residual-forest host kernel (tree labeling, step 5).

``_label_residual_forest`` classes the residual nodes with
:func:`repro.pram.kernels.residual_forest_classes` and derives the codes
and charges of the BB-table doubling loop in closed form.  The loop stays
as ``_label_residual_forest_reference``; this suite pins that the two
agree bit for bit — codes, adapter figures, final labels and span
summaries — and that the cases the kernel must not take (a RANDOM
winner, an audit that validates writes, a forest deep relative to ``n``)
still run the loop.
"""
import numpy as np
import pytest

from repro.errors import CommonWriteValueError, ConcurrentWriteError
from repro.partition import (
    find_cycle_nodes,
    jaja_ryu_partition,
    label_cycle_nodes,
    label_tree_nodes,
    tree_labeling,
)
from repro.pram import Machine
from repro.pram.models import ArbitraryWinner, arbitrary_crcw, common_crcw, erew
from repro.primitives import SortCostModel

FIRST, LAST, RANDOM = ArbitraryWinner.FIRST, ArbitraryWinner.LAST, ArbitraryWinner.RANDOM


def _shuffled(rng, parent):
    """``parent`` (an array of slots) with node ids shuffled."""
    node = rng.permutation(len(parent))
    f = np.empty(len(parent), dtype=np.int64)
    f[node] = node[parent]
    return f


def random_function(rng, n):
    return rng.integers(0, n, n)


def recursive_tree(rng, n):
    """One 4-cycle under a random recursive tree holding every other node."""
    slot = np.arange(n, dtype=np.int64)
    parent = (rng.random(n) * slot).astype(np.int64)
    parent[:4] = (slot[:4] + 1) % 4
    return _shuffled(rng, parent)


def long_path(rng, n):
    """A path of ``n - 3`` nodes into a 3-cycle."""
    parent = np.arange(n, dtype=np.int64) - 1
    parent[:3] = [1, 2, 0]
    return _shuffled(rng, parent)


def spine_with_twigs(levels):
    """Identical residual twigs hanging off inherited nodes at every level.

    Node 0 is a self-loop labelled 0 and nodes ``1..levels`` a chain of
    0-labelled nodes under it, so the chain inherits node 0's label.  Each
    chain node carries the same 3-node twig (labels 1, 2, 0), which is
    residual: every twig's nodes share classes across Euler levels.
    """
    f = [0] + list(range(levels))
    b = [0] * (levels + 1)
    for spine in range(levels + 1):
        root = len(f)
        f += [spine, root, root]
        b += [1, 2, 0]
    return np.array(f, dtype=np.int64), np.array(b, dtype=np.int64)


def _instance(family, n, sigma, seed):
    rng = np.random.default_rng(seed)
    if family == "spine":
        return spine_with_twigs(n)
    f = {"function": random_function, "tree": recursive_tree, "path": long_path}[family](rng, n)
    return f, rng.integers(0, sigma, len(f))


def _reference_with_level(f, labels_b, q_labels, residual, level, machine, cost_model, depth=None):
    return tree_labeling._label_residual_forest_reference(
        f, labels_b, q_labels, residual, machine, cost_model
    )


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the host kernel's calls from tree labeling."""
    calls = []
    real = tree_labeling.residual_forest_classes

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(tree_labeling, "residual_forest_classes", spy)
    return calls


def _solve(f, b, model, audit, monkeypatch):
    """Solve, and return the result plus the inputs step 5 was called with."""
    seen = []
    real = tree_labeling._label_residual_forest

    def record(*args):
        seen.append(args[:5])
        return real(*args)

    monkeypatch.setattr(tree_labeling, "_label_residual_forest", record)
    try:
        result = jaja_ryu_partition(f, b, machine=Machine(model, audit=audit))
    finally:
        monkeypatch.setattr(tree_labeling, "_label_residual_forest", real)
    return result, (seen[0] if seen else None)


def _solve_with_reference(f, b, model, audit, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(tree_labeling, "_label_residual_forest", _reference_with_level)
        return jaja_ryu_partition(f, b, machine=Machine(model, audit=audit))


def _step5(fn, args, model, audit):
    """Codes of one step-5 call on a fresh machine, and its accounting:
    every adapter charge's arguments, the totals and the span summary."""
    machine = Machine(model, audit=audit)
    counter = machine.counter
    adapter = []
    charge = counter.charge_adapter
    counter.charge_adapter = lambda **figures: adapter.append(figures) or charge(**figures)
    with machine.span("step5"):
        codes = fn(*args, machine, SortCostModel.CHARGED)
    return codes, (adapter, counter.time, counter.work, counter.charged_work, counter.summary().spans)


def _assert_step5_parity(inputs, model, audit):
    codes, figures = _step5(tree_labeling._label_residual_forest, inputs, model, audit)
    ref_codes, ref_figures = _step5(
        tree_labeling._label_residual_forest_reference, inputs[:4], model, audit
    )
    assert codes.dtype == ref_codes.dtype
    assert np.array_equal(codes, ref_codes)
    assert figures == ref_figures


CASES = [
    ("function", 1000, 2),
    ("function", 4096, 3),
    ("function", 4096, 2048),
    ("function", 4096, 4096),
    ("function", 1 << 16, 3),
    ("tree", 5000, 2),
    ("tree", 1 << 16, 3),
    ("path", 3000, 2),
    ("spine", 300, None),
]


@pytest.mark.parametrize("audit", [True, False], ids=["audit", "no-audit"])
@pytest.mark.parametrize("winner", [FIRST, LAST], ids=["first", "last"])
@pytest.mark.parametrize("family,n,sigma", CASES, ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in CASES])
def test_host_kernel_matches_reference(family, n, sigma, winner, audit, monkeypatch, kernel_calls):
    # every forest, however deep, down the kernel
    monkeypatch.setattr(tree_labeling, "_HOST_MIN_NODES_PER_LEVEL", 0)
    f, b = _instance(family, n, sigma, seed=n + (sigma or 0))
    model = arbitrary_crcw(winner)
    host, inputs = _solve(f, b, model, audit, monkeypatch)
    assert inputs is not None and kernel_calls
    _assert_step5_parity(inputs, model, audit)
    reference = _solve_with_reference(f, b, model, audit, monkeypatch)
    assert np.array_equal(host.labels, reference.labels)
    assert host.cost == reference.cost  # totals and every span


def test_spine_classes_span_euler_levels(monkeypatch):
    # The twig roots sit at Euler levels 1..301 yet form one class: numbering
    # classes per Euler level instead of per residual depth would split them.
    monkeypatch.setattr(tree_labeling, "_HOST_MIN_NODES_PER_LEVEL", 0)
    f, b = spine_with_twigs(300)
    _, inputs = _solve(f, b, arbitrary_crcw(), True, monkeypatch)
    codes, _ = _step5(tree_labeling._label_residual_forest, inputs, arbitrary_crcw(), True)
    residual, level = inputs[3], inputs[4]
    res_nodes = np.flatnonzero(residual)
    roots = res_nodes[b[res_nodes] == 1]
    assert len(np.unique(level[roots])) == 301
    assert len(np.unique(codes[np.isin(res_nodes, roots)])) == 1


def test_host_kernel_fuzz(monkeypatch):
    monkeypatch.setattr(tree_labeling, "_HOST_MIN_NODES_PER_LEVEL", 0)
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        family = ("function", "tree", "path")[int(rng.integers(3))]
        n = int(rng.integers(4, 300))
        sigma = int(rng.integers(1, n + 1))
        f, b = _instance(family, n, sigma, seed=int(rng.integers(2**31)))
        model = arbitrary_crcw((FIRST, LAST)[int(rng.integers(2))])
        audit = bool(rng.integers(2))
        _, inputs = _solve(f, b, model, audit, monkeypatch)
        if inputs is None:
            continue
        _assert_step5_parity(inputs, model, audit)
        checked += 1
    assert checked > 150


def test_random_winner_takes_reference_path(monkeypatch, kernel_calls):
    monkeypatch.setattr(tree_labeling, "_HOST_MIN_NODES_PER_LEVEL", 0)
    f, b = _instance("function", 4096, 3, seed=5)
    model = arbitrary_crcw(RANDOM)
    result, inputs = _solve(f, b, model, True, monkeypatch)
    assert not kernel_calls
    _assert_step5_parity(inputs, model, True)
    reference = _solve_with_reference(f, b, model, True, monkeypatch)
    assert np.array_equal(result.labels, reference.labels)
    assert result.cost == reference.cost


@pytest.mark.parametrize(
    "model,error",
    [(common_crcw(), CommonWriteValueError), (erew(), ConcurrentWriteError)],
    ids=["common-crcw", "erew"],
)
def test_validating_audit_takes_reference_path(model, error, monkeypatch, kernel_calls):
    # Steps 1-4 on the default machine; step 5 alone on the validating model,
    # whose audit must still reject the doubling loop's concurrent accesses.
    monkeypatch.setattr(tree_labeling, "_HOST_MIN_NODES_PER_LEVEL", 0)
    f, b = _instance("function", 2048, 3, seed=9)
    _, inputs = _solve(f, b, arbitrary_crcw(), True, monkeypatch)
    kernel_calls.clear()
    with pytest.raises(error):
        _step5(tree_labeling._label_residual_forest, inputs, model, True)
    with pytest.raises(error):
        _step5(tree_labeling._label_residual_forest_reference, inputs[:4], model, True)
    assert not kernel_calls
    # without the audit nothing is validated, and the kernel takes over
    _assert_step5_parity(inputs, model, False)
    assert kernel_calls


@pytest.mark.parametrize("bad_label", [-1, 1 << 50], ids=["negative", "huge"])
def test_unkeyable_labels_take_reference_path(bad_label, monkeypatch, kernel_calls):
    # The step functions take raw labels; tree-node labels the doubling loop
    # cannot encode must keep raising its error, not reach the kernel.
    monkeypatch.setattr(tree_labeling, "_HOST_MIN_NODES_PER_LEVEL", 0)
    f, b = _instance("function", 4096, 3, seed=11)
    detection = find_cycle_nodes(f)
    b[np.flatnonzero(~detection.on_cycle)[:10]] = bad_label
    cycles = label_cycle_nodes(f, b, detection.on_cycle, detection.cycle_key)
    with pytest.raises(ValueError, match="pair"):
        label_tree_nodes(f, b, detection.on_cycle, cycles)
    assert not kernel_calls


@pytest.mark.parametrize(
    "family,n,host",
    [
        ("function", 1 << 16, True),   # ~150 nodes per level (`forest`, at 2^19: ~390)
        ("tree", 1 << 14, True),
        ("function", 256, False),      # a `serve` request
        ("tree", 256, False),
        ("path", 4096, False),         # one node per level
    ],
)
def test_depth_crossover_picks_the_path(family, n, host, monkeypatch, kernel_calls):
    f, b = _instance(family, n, 3, seed=n)
    result, inputs = _solve(f, b, arbitrary_crcw(), True, monkeypatch)
    assert inputs is not None
    assert bool(kernel_calls) is host
    reference = _solve_with_reference(f, b, arbitrary_crcw(), True, monkeypatch)
    assert np.array_equal(result.labels, reference.labels)
    assert result.cost == reference.cost
