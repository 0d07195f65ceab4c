"""Parity suite for tree labeling's level path and step 2's cycle-only ranking.

Step 3 walks the trees one level at a time (``_inherit_on_levels``) and
charges the Euler tour it no longer builds; the tour stays as
``_inherit_on_tour``, the reference and the path of deep forests.  Step 2's
``rank_cycle`` ranks only the cycle nodes when some nodes sit off the
cycles and charges the ``n``-node ranking, which stays as
``_rank_every_node``.  On the shared corpus (``tests/corpus.py``), this
suite pins each pair: labels, ``CostSummary`` time, work and charged work,
and every span path, under FIRST and LAST winners, with audit on and off,
under both cost models.  It also pins the ruling-set charge function
against the ranking it stands in for, the tree shape the level walk reads
against the tour's own positions, and which inputs take which path.
"""
import numpy as np
import pytest

import corpus
from repro.graphs.functional_graph import analyze_structure
from repro.partition import (
    find_cycle_nodes,
    jaja_ryu_partition,
    label_cycle_nodes,
    label_tree_nodes,
    tree_labeling,
)
from repro.pram import Machine
from repro.pram.kernels import forest_levels, preorder, subtree_sizes
from repro.pram.models import ArbitraryWinner, arbitrary_crcw
from repro.primitives import SortCostModel, list_ranking
from repro.primitives.euler_tour import (
    _circuit_ids_reference,
    charge_forest_structure,
    forest_tour,
    functional_forest_structure,
    in_arc_order,
    tour_positions,
)
from repro.primitives.list_ranking import (
    _ruling_set_rank,
    charge_optimal_rank,
    default_ruler_spacing,
    optimal_rank,
)

MACHINES = [
    pytest.param(winner, audit, cost_model, id=f"{winner.name.lower()}-{'audit' if audit else 'fast'}-{cost_model.name.lower()}")
    for winner in (ArbitraryWinner.FIRST, ArbitraryWinner.LAST)
    for audit in (True, False)
    for cost_model in (SortCostModel.CHARGED, SortCostModel.INCURRED)
]
CASES = corpus.cases([16, 256, 4096]) + corpus.cases([256, 4096], corpus.DEEP)


def _accounting(machine):
    """Totals and every span record: time, work, charged work, ticks."""
    counter = machine.counter
    spans = {path: (r.time, r.work, r.charged_work, r.ticks) for path, r in counter._spans.items()}
    return counter.time, counter.work, counter.charged_work, spans


def _force(monkeypatch, path):
    """Send step 3 down the level path or the Euler tour, whatever the depth."""
    monkeypatch.setattr(tree_labeling, "_max_levels", lambda n: 1 << 62 if path == "levels" else 0)


def _step3(f, b, path, winner, audit, cost_model, monkeypatch):
    detection = find_cycle_nodes(f)
    cycles = label_cycle_nodes(f, b, detection.on_cycle, detection.cycle_key)
    machine = Machine(arbitrary_crcw(winner), audit=audit)
    with monkeypatch.context() as patch:
        _force(patch, path)
        with machine.span("step3"):
            result = label_tree_nodes(
                f, b, detection.on_cycle, cycles, machine=machine, cost_model=cost_model,
                in_arc_order=detection.in_arc_order,
            )
    return result, _accounting(machine)


@pytest.mark.parametrize("winner,audit,cost_model", MACHINES)
@pytest.mark.parametrize("category,n", CASES)
def test_level_path_matches_tour(category, n, winner, audit, cost_model, monkeypatch):
    f, b = corpus.instance(category, n)
    got, charges = _step3(f, b, "levels", winner, audit, cost_model, monkeypatch)
    want, want_charges = _step3(f, b, "tour", winner, audit, cost_model, monkeypatch)
    assert np.array_equal(got.q_labels, want.q_labels)
    assert got.num_labels == want.num_labels
    assert np.array_equal(got.inherited_mask, want.inherited_mask)
    assert got.residual_size == want.residual_size
    assert charges == want_charges


@pytest.mark.parametrize("cost_model", [SortCostModel.CHARGED, SortCostModel.INCURRED])
@pytest.mark.parametrize("category,n", [("random", 1 << 16), ("recursive-tree", 1 << 14), ("deep-caterpillar", 1 << 12)])
def test_whole_solve_matches_tour(category, n, cost_model, monkeypatch):
    f, b = corpus.instance(category, n, alphabet=3)
    with monkeypatch.context() as patch:
        _force(patch, "levels")
        got = jaja_ryu_partition(f, b, cost_model=cost_model)
    with monkeypatch.context() as patch:
        _force(patch, "tour")
        want = jaja_ryu_partition(f, b, cost_model=cost_model)
    assert np.array_equal(got.labels, want.labels)
    assert got.cost == want.cost  # totals and every span


# ----------------------------------------------------------------------
# the tree shape the level walk reads, against the tour's own positions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("category,n", CASES)
def test_walk_reads_the_tours_positions(category, n):
    # The tour enters the node at depth d with preorder index p at
    # position 2p - d + 1 of its circuit and leaves it 2 * size - 1 later.
    f, _ = corpus.instance(category, n)
    on_cycle = analyze_structure(f).on_cycle
    if on_cycle.all():
        return
    levels = forest_levels(f, on_cycle, in_arc_order(f), 1 << 62)
    size = subtree_sizes(levels)
    pre = preorder(levels, size)
    r = levels.bounds[1]
    nodes = levels.nodes[r:]
    depth = np.repeat(np.arange(len(levels.bounds) - 1), np.diff(levels.bounds))[r:]

    structure, root_of = functional_forest_structure(f, on_cycle, machine=Machine.default())
    c = structure.num_arcs // 2
    arcs = np.arange(2 * c)
    # each circuit starts at its lowest arc out of the root, as _tour_layout picks it
    first = np.full(2 * c, 2 * c)
    np.minimum.at(first, structure.circuit_id, np.where(on_cycle[structure.tail], arcs, 2 * c))
    position, length = tour_positions(
        structure, arcs == first[structure.circuit_id], machine=Machine.default()
    )
    rank = np.cumsum(~on_cycle)[nodes] - 1
    assert np.array_equal(root_of[nodes], levels.nodes[levels.root[r:]])
    assert np.array_equal(position[c + rank], 2 * pre[r:] - depth + 1)
    assert np.array_equal(position[rank], 2 * pre[r:] - depth + 2 * size[r:])
    assert np.array_equal(length[rank], 2 * (size[levels.root[r:]] - 1))


def _adapter_charges(machine):
    """Record every adapter charge the machine's counter takes."""
    calls = []
    charge = machine.counter.charge_adapter
    machine.counter.charge_adapter = lambda **figures: calls.append(figures) or charge(**figures)
    return calls


@pytest.mark.parametrize("category,n", CASES)
def test_circuit_charge_matches_executed_doubling(category, n):
    # Both paths share the closed form of the circuit labeling's rounds, so
    # pin the level path's charge against the doubling loop itself.
    f, _ = corpus.instance(category, n)
    on_cycle = analyze_structure(f).on_cycle
    if on_cycle.all():
        return
    levels = forest_levels(f, on_cycle, in_arc_order(f), 1 << 62)
    size = subtree_sizes(levels)
    tour = forest_tour(
        n, levels, size, preorder(levels, size), np.cumsum(~on_cycle)[levels.nodes[levels.bounds[1]:]] - 1
    )
    machine = Machine.default()
    charged = _adapter_charges(machine)
    charge_forest_structure(tour, machine=machine)
    structure, _ = functional_forest_structure(f, on_cycle, machine=Machine.default())
    reference = Machine.default()
    executed = _adapter_charges(reference)
    _circuit_ids_reference(structure.successor, reference)
    assert [c for c in charged if c["label"] == "circuit_ids"] == executed


# ----------------------------------------------------------------------
# step 2: the cycle-only ranking against the n-node one
# ----------------------------------------------------------------------
def _rank_all_nodes(monkeypatch):
    monkeypatch.setattr(
        list_ranking, "_rank_cycle_nodes",
        lambda succ, heads, nodes, m: list_ranking._rank_every_node(succ, heads, m),
    )


def _step2(f, b, winner, audit, cost_model, every_node, monkeypatch):
    detection = find_cycle_nodes(f)
    machine = Machine(arbitrary_crcw(winner), audit=audit)
    with monkeypatch.context() as patch:
        if every_node:
            _rank_all_nodes(patch)
        with machine.span("step2"):
            result = label_cycle_nodes(
                f, b, detection.on_cycle, detection.cycle_key, machine=machine, cost_model=cost_model
            )
    return result, _accounting(machine)


@pytest.mark.parametrize("winner,audit,cost_model", MACHINES)
@pytest.mark.parametrize("category,n", CASES)
def test_cycle_only_ranking_matches_every_node(category, n, winner, audit, cost_model, monkeypatch):
    f, b = corpus.instance(category, n)
    got, charges = _step2(f, b, winner, audit, cost_model, False, monkeypatch)
    want, want_charges = _step2(f, b, winner, audit, cost_model, True, monkeypatch)
    for field in ("q_labels", "cycle_rank", "cycle_index", "layout_node", "msp", "period"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert charges == want_charges


# ----------------------------------------------------------------------
# the ruling-set charge function against the ranking it charges for
# ----------------------------------------------------------------------
def _lists(succ):
    """Each list of ``succ`` as its nodes from head to tail."""
    n = len(succ)
    has_pred = np.zeros(n, dtype=bool)
    has_pred[succ[succ != np.arange(n)]] = True
    out = []
    for head in np.flatnonzero(~has_pred):
        nodes = [int(head)]
        while succ[nodes[-1]] != nodes[-1]:
            nodes.append(int(succ[nodes[-1]]))
        out.append(nodes)
    return out


def _charge_from_layout(succ, machine, lay_out_singletons):
    """charge_optimal_rank fed from a head-first layout of ``succ``'s lists,
    its rulers unsorted and repeated as its callers pass them."""
    n = len(succ)
    spacing = default_ruler_spacing(n) if n > 1 else 2
    laid = [nodes for nodes in _lists(succ) if lay_out_singletons or len(nodes) > 1]
    bounds = np.zeros(len(laid) + 1, dtype=np.int64)
    np.cumsum([len(nodes) for nodes in laid], out=bounds[1:])
    spaced = [int(base) + k for base, nodes in zip(bounds, laid) for k, x in enumerate(nodes) if x % spacing == 0]
    slots = np.concatenate((bounds[1:] - 1, np.array(spaced, dtype=np.int64), bounds[:-1]))
    charge_optimal_rank(machine, n, bounds, slots, singletons=n - int(bounds[-1]))


def _random_lists(rng, n, lists):
    """``lists`` open lists over a random permutation of ``n`` nodes."""
    order = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=lists - 1, replace=False)) if lists > 1 else []
    succ = np.arange(n, dtype=np.int64)
    for part in np.split(order, cuts):
        succ[part[:-1]] = part[1:]
    return succ


def _with_loops(rng, n, loops):
    """Open lists next to ``loops`` self-loop tails, as step 2 ranks its
    broken cycles beside the tree nodes."""
    body = _random_lists(rng, n - loops, int(rng.integers(1, max(2, (n - loops) // 8) + 1)))
    succ = np.arange(n, dtype=np.int64)
    node = rng.permutation(n)
    succ[node[: n - loops]] = node[body]
    return succ


def _adversarial(n, spacing):
    """One list visiting every ruler first, then the long run without one:
    the widest gap a list of ``n`` nodes can have."""
    rulers = np.arange(0, n, spacing)
    rest = np.setdiff1d(np.arange(n), rulers)
    order = np.concatenate((rulers, rest))
    succ = np.arange(n, dtype=np.int64)
    succ[order[:-1]] = order[1:]
    return succ


def _ruling_cases():
    rng = np.random.default_rng(77)
    cases = []
    for n in (5, 6, 7, 8, 9, 16, 33, 100, 1000, 5000):
        for lists in (1, 2, 5, n // 3 or 1, n):
            cases.append(("random", _random_lists(rng, n, max(1, min(lists, n)))))
        cases.append(("loops", _with_loops(rng, n, int(rng.integers(0, n // 2 + 1)))))
        cases.append(("adversarial", _adversarial(n, default_ruler_spacing(n))))
        cases.append(("adversarial-reversed", _reverse(_adversarial(n, default_ruler_spacing(n)))))
    for n in (1, 2, 3, 4):
        cases.append(("wyllie", _random_lists(rng, n, 1)))
        cases.append(("wyllie-loops", np.arange(n, dtype=np.int64)))
    return cases


def _reverse(succ):
    """The same lists walked the other way."""
    n = len(succ)
    out = np.arange(n, dtype=np.int64)
    moving = succ != np.arange(n)
    out[succ[moving]] = np.flatnonzero(moving)
    return out


RULING_CASES = _ruling_cases()


@pytest.mark.parametrize("lay_out_singletons", [True, False], ids=["laid-out", "counted"])
@pytest.mark.parametrize("index", range(len(RULING_CASES)), ids=[
    f"{kind}-{len(succ)}-{i}" for i, (kind, succ) in enumerate(RULING_CASES)
])
def test_charge_optimal_rank_matches_ranking(index, lay_out_singletons):
    _, succ = RULING_CASES[index]
    ranked, charged = Machine.default(), Machine.default()
    with ranked.span("rank"):
        optimal_rank(succ, machine=ranked)
    with charged.span("rank"):
        _charge_from_layout(succ, charged, lay_out_singletons)
    assert _accounting(charged) == _accounting(ranked)


def test_adversarial_layout_charges_its_widest_gap():
    # the charge must follow the walk's real rounds, not the spacing
    n = 4096
    succ = _adversarial(n, default_ruler_spacing(n))
    machine = Machine.default()
    _charge_from_layout(succ, machine, True)
    assert machine.counter.time > n - n // default_ruler_spacing(n)
    assert _ruling_set_rank(succ, Machine.default())[0][0] == n - 1


# ----------------------------------------------------------------------
# which inputs take which path
# ----------------------------------------------------------------------
@pytest.fixture
def paths_taken(monkeypatch):
    taken = []
    for name in ("_inherit_on_levels", "_inherit_on_tour"):
        real = getattr(tree_labeling, name)

        def spy(*args, real=real, name=name):
            taken.append(name)
            return real(*args)

        monkeypatch.setattr(tree_labeling, name, spy)
    return taken


@pytest.mark.parametrize("category,n,path", [
    ("random", 256, "levels"),          # a `serve` request
    ("random", 1 << 16, "levels"),
    ("recursive-tree", 4096, "levels"),
    ("caterpillar-64", 256, "levels"),
    ("one-tree-node", 256, "levels"),
    ("deep-path", 256, "tour"),
    ("deep-caterpillar", 4096, "tour"),
])
def test_depth_bound_picks_the_path(category, n, path, paths_taken):
    f, b = corpus.instance(category, n)
    jaja_ryu_partition(f, b)
    assert paths_taken == [f"_inherit_on_{path}"]


def test_walk_gives_up_past_its_bound():
    f, _ = corpus.instance("deep-caterpillar", 4096)
    on_cycle = analyze_structure(f).on_cycle
    depth = int(analyze_structure(f).depth.max())
    order = in_arc_order(f)
    assert forest_levels(f, on_cycle, order, depth - 1) is None
    assert len(forest_levels(f, on_cycle, order, depth).bounds) == depth + 2
    assert tree_labeling._max_levels(4096) < depth


def test_walk_rejects_a_cycle_left_unmarked():
    f = np.array([1, 0, 3, 2, 2])  # two 2-cycles and a leaf on the second
    on_cycle = np.array([True, True, False, False, False])
    with pytest.raises(ValueError, match="unmarked"):
        forest_levels(f, on_cycle, in_arc_order(f), 1 << 62)


@pytest.mark.parametrize("category", ["random", "permutation", "star", "one-tree-node"])
def test_rank_cycle_ranks_only_cycle_nodes_beside_trees(category, monkeypatch):
    calls = []
    real = list_ranking._rank_cycle_nodes
    monkeypatch.setattr(
        list_ranking, "_rank_cycle_nodes", lambda *args: calls.append(len(args[2])) or real(*args)
    )
    f, b = corpus.instance(category, 4096)
    detection = find_cycle_nodes(f)
    label_cycle_nodes(f, b, detection.on_cycle, detection.cycle_key)
    cycle_nodes = int(detection.on_cycle.sum())
    assert calls == ([] if cycle_nodes == len(f) else [cycle_nodes])
