"""Parity of the lockstep m.s.p. pass with the per-cycle reference loop.

Step 2a of cycle labeling runs *Algorithm efficient m.s.p.* over all
cycles at once (``efficient_msp_segments``) and charges each cycle's
figures in closed form.  ``_label_cycles_reference`` runs one
``efficient_msp`` call per cycle on a machine of its own; it is the spec.
Every case below checks m.s.p., period, classes, Q-labels, the absorbed
time/work/charged work and the full span summary against it.
"""
import numpy as np
import pytest

from repro.graphs.generators import random_function, random_permutation
from repro.partition import canonical_labels, cycle_labeling, find_cycle_nodes, label_cycle_nodes
from repro.pram import CostCounter, Machine
from repro.primitives import SortCostModel
from repro.strings.msp_efficient import efficient_msp, efficient_msp_segments

MODES = [
    (cost_model, audit) for cost_model in (SortCostModel.CHARGED, SortCostModel.INCURRED) for audit in (True, False)
]


def permutation_of_cycles(labels_per_cycle, seed=0):
    """A permutation whose cycles carry the given label strings, node ids shuffled."""
    lengths = [len(x) for x in labels_per_cycle]
    n = sum(lengths)
    ends = np.cumsum(lengths)
    successor = np.arange(1, n + 1, dtype=np.int64)
    successor[ends - 1] = ends - lengths
    node = np.random.default_rng(seed).permutation(n)
    f = np.empty(n, dtype=np.int64)
    b = np.empty(n, dtype=np.int64)
    f[node] = node[successor]
    b[node] = np.concatenate([np.asarray(x, dtype=np.int64) for x in labels_per_cycle])
    return f, b


def rotated_patterns(rng, long_cycles, long_length, count, short_length=32, patterns=4):
    """The perfbench ``cycles`` layout at a smaller size: long random
    cycles plus short cycles labelled with rotations of a few patterns."""
    strings = [rng.integers(0, 3, long_length) for _ in range(long_cycles)]
    base = rng.integers(0, 3, (patterns, short_length))
    for _ in range(count):
        strings.append(np.roll(base[rng.integers(0, patterns)], int(rng.integers(0, short_length))))
    return permutation_of_cycles(strings, seed=int(rng.integers(0, 2**31)))


def assert_parity(f, b, monkeypatch, cost_model=SortCostModel.CHARGED, audit=True, on_cycle=None):
    labels_b = canonical_labels(b)
    detection = find_cycle_nodes(f)
    mask = detection.on_cycle if on_cycle is None else on_cycle

    def run():
        machine = Machine.default(audit=audit)
        with machine.span("step2"):
            result = label_cycle_nodes(
                f, labels_b, mask, detection.cycle_key, machine=machine, cost_model=cost_model
            )
        return result, machine.counter

    lockstep, lockstep_counter = run()
    calls = []

    def reference_loop(layout, bounds, m, cm):
        calls.append(len(bounds) - 1)
        return cycle_labeling._label_cycles_reference(layout, bounds, m, cm, "efficient")

    with monkeypatch.context() as patch:
        patch.setattr(cycle_labeling, "_label_cycles_lockstep", reference_loop)
        reference, reference_counter = run()
    assert calls == [len(reference.cycle_lengths)]
    for field in ("msp", "period", "class_of", "class_base", "q_labels", "cycle_lengths"):
        assert np.array_equal(getattr(lockstep, field), getattr(reference, field)), field
        assert getattr(lockstep, field).dtype == getattr(reference, field).dtype, field
    assert lockstep.num_labels == reference.num_labels
    assert (lockstep_counter.time, lockstep_counter.work, lockstep_counter.charged_work) == (
        reference_counter.time,
        reference_counter.work,
        reference_counter.charged_work,
    )
    assert lockstep_counter.summary().spans == reference_counter.summary().spans
    return lockstep


def strings_parity(strings, cost_model=SortCostModel.CHARGED):
    """``efficient_msp_segments`` against one ``efficient_msp`` call per string."""
    flat = np.concatenate([np.asarray(x, dtype=np.int64) for x in strings]) if strings else np.zeros(0, np.int64)
    offsets = np.concatenate(([0], np.cumsum([len(x) for x in strings]))).astype(np.int64)
    got = efficient_msp_segments(flat, offsets, cost_model=cost_model)
    counters = []
    for i, x in enumerate(strings):
        machine = Machine(counter=CostCounter())
        res = efficient_msp(x, machine=machine, cost_model=cost_model)
        c = machine.counter
        assert (got.index[i], got.period[i]) == (res.index, res.period), i
        assert (got.time[i], got.work[i], got.charged_work[i]) == (c.time, c.work, c.charged_work), i
        counters.append(c)
    return counters


# ----------------------------------------------------------------------
# the segmented entry point, string by string
# ----------------------------------------------------------------------
def test_no_strings():
    got = efficient_msp_segments(np.zeros(0, np.int64), np.zeros(1, np.int64))
    assert len(got.index) == len(got.period) == len(got.time) == 0


@pytest.mark.parametrize("cost_model", list(SortCostModel))
def test_short_strings_and_periods(cost_model):
    strings = [
        [4], [0, 1], [1, 0], [2, 2], [0, 1, 1], [1, 1, 0], [3, 3, 3],
        [7] * 40,  # all equal: period 1
        [0, 1, 2] * 12,  # period 3 < L
        [1, 0, 0, 1, 0] * 24,
        list(range(30, 0, -1)),
    ]
    strings_parity(strings, cost_model)


def test_single_mark_in_round_one_and_in_a_later_round():
    round_one = [0] + [1, 2] * 31 + [1]  # a unique minimum
    later = [0, 1] + [3] * 30 + [0, 2] + [3] * 30  # two marks, then a unique pair
    counters = strings_parity([round_one, later])
    for counter, sorts in zip(counters, (None, 1)):
        spans = counter.summary().spans
        assert not any(path.endswith("simple_msp") for path in spans)  # left on a single mark
        integer_sorts = counter._spans.get("integer_sort")
        assert (integer_sorts.ticks if integer_sorts else None) == sorts


@pytest.mark.parametrize("cost_model", list(SortCostModel))
def test_random_strings_of_mixed_lengths(cost_model):
    rng = np.random.default_rng(7)
    strings = []
    for length in rng.integers(1, 300, 60).tolist() + [720, 1024, 4999]:
        alphabet = int(rng.integers(1, 4))
        if rng.random() < 0.3:
            p = int(rng.integers(1, 12))
            strings.append(np.tile(rng.integers(0, alphabet, p), max(1, length // p)))
        else:
            strings.append(rng.integers(0, alphabet, length))
    strings_parity(strings, cost_model)


@pytest.mark.parametrize("cost_model", list(SortCostModel))
def test_labels_beyond_the_packed_pair_range(cost_model):
    # pair keys above PAIR_PACK_MAX_RANGE are charged as two single-key sorts
    rng = np.random.default_rng(3)
    huge = rng.integers(2**61, 2**62, 64)
    huge[::8] = 0  # eight marks, so the first round pairs symbols near 2^62
    strings_parity([huge, rng.integers(0, 2**62, 64), [2**40, 5, 2**40 + 1, 7, 3, 3, 2**40] * 5], cost_model)


# ----------------------------------------------------------------------
# label_cycle_nodes: lockstep against the reference loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cost_model,audit", MODES)
def test_cycles_of_length_one_two_and_three(cost_model, audit, monkeypatch):
    f, b = permutation_of_cycles([[0], [1], [0, 1], [1, 1], [1, 0], [0, 0, 1], [2, 2, 2], [0, 1, 2]])
    assert_parity(f, b, monkeypatch, cost_model, audit)


def test_no_cycle_nodes(monkeypatch):
    f, b = random_function(64, num_labels=2, seed=1)
    result = assert_parity(f, b, monkeypatch, on_cycle=np.zeros(64, dtype=bool))
    assert len(result.msp) == len(result.period) == 0
    assert (result.q_labels == -1).all()


@pytest.mark.parametrize("cost_model,audit", MODES)
def test_equal_and_periodic_labels(cost_model, audit, monkeypatch):
    strings = [[5] * 17, [5] * 40, [0, 1] * 20, [0, 1, 1] * 9, [1, 1, 0] * 9, [2, 0, 1, 0] * 16]
    assert_parity(*permutation_of_cycles(strings), monkeypatch, cost_model, audit)


@pytest.mark.parametrize("cost_model,audit", MODES)
def test_rotated_patterns(cost_model, audit, monkeypatch):
    f, b = rotated_patterns(np.random.default_rng(11), long_cycles=3, long_length=2048, count=128)
    result = assert_parity(f, b, monkeypatch, cost_model, audit)
    assert len(np.unique(result.class_of)) <= 3 + 4


@pytest.mark.parametrize("n,seed", [(1 << 8, 0), (1 << 12, 1), (1 << 16, 2)])
def test_random_permutations(n, seed, monkeypatch):
    f, b = random_permutation(n, num_labels=3, seed=seed)
    assert_parity(f, b, monkeypatch)


@pytest.mark.parametrize("n,seed", [(1 << 10, 3), (1 << 16, 4)])
def test_random_functions(n, seed, monkeypatch):
    f, b = random_function(n, num_labels=2, seed=seed)
    assert_parity(f, b, monkeypatch, SortCostModel.INCURRED, False)


def test_many_short_cycles_of_every_length(monkeypatch):
    rng = np.random.default_rng(5)
    strings = [rng.integers(0, 2, length) for length in range(1, 90) for _ in range(3)]
    assert_parity(*permutation_of_cycles(strings, seed=5), monkeypatch)


def test_unknown_msp_algorithm_is_rejected():
    f, b = random_permutation(16, seed=0)
    detection = find_cycle_nodes(f)
    with pytest.raises(ValueError, match="msp_algorithm"):
        label_cycle_nodes(f, canonical_labels(b), detection.on_cycle, detection.cycle_key, msp_algorithm="bogus")
