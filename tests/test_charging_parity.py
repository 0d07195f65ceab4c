"""Charging parity: the closed-form cost accounting equals the old loops.

The engine overhaul (closed-form ``charge_tree``/``charge_rounds``, the
single-argsort integer sort, fused BB-table steps, frontier-based pointer
jumping) must not move a single charged unit: Theorem 5.1 is a counting
claim and the committed ``BENCH_E*.json`` trajectory depends on totals
staying directly comparable across PRs.  Two layers of protection:

* *reference replicas* — the pre-refactor loop-based accounting is
  reimplemented here verbatim and compared against the live primitives on
  randomized sizes;
* *golden files* — ``tests/golden_charging.json`` and
  ``tests/golden_pipeline.json`` hold totals captured by running the
  pre-refactor implementation, so even a bug faithfully mirrored into a
  reference replica cannot slip through.
"""
import json
import pathlib

import numpy as np
import pytest

from repro.analysis.workloads import get_workload
from repro.partition import (
    galley_iliopoulos_partition,
    jaja_ryu_partition,
    srikant_partition,
)
from repro.pram import CostCounter, Machine
from repro.primitives import (
    compact,
    jump_to_fixed_point,
    kth_successor,
    optimal_rank,
    prefix_sums,
    reduce_min,
    reduce_sum,
    segmented_prefix_sums,
    wyllie_rank,
)
from repro.primitives.integer_sort import SortCostModel, sort_by_keys
from repro.strings.pair_encoding import _charge_scan

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN_CHARGING = json.loads((HERE / "golden_charging.json").read_text())
GOLDEN_PIPELINE = json.loads((HERE / "golden_pipeline.json").read_text())

SIZES = [1, 2, 3, 4, 5, 6, 7, 9, 13, 33, 100, 1000, 4097]


def totals(machine: Machine) -> dict:
    c = machine.counter
    return {"time": c.time, "work": c.work, "charged_work": c.charged_work}


# ----------------------------------------------------------------------
# reference replicas of the pre-refactor loop charging
# ----------------------------------------------------------------------
def loop_tree_charge(n: int) -> tuple:
    """The old up-sweep loop: (rounds, work)."""
    rounds = work = 0
    level = n
    while level > 1:
        work += level // 2
        rounds += 1
        level = (level + 1) // 2
    return rounds, work


def loop_downsweep_charge(n: int) -> tuple:
    """The old down-sweep loop: (rounds, work)."""
    rounds = work = 0
    level = 1
    while level < n:
        work += min(level, n - level)
        rounds += 1
        level *= 2
    return rounds, work


def loop_radix_charge(n: int, key_range: int) -> tuple:
    """The old per-pass counting-sort accounting: (rounds, work)."""
    base = max(2, n)
    num_buckets = min(base, key_range)
    rounds = work = 0
    remaining = key_range
    while True:
        rounds += 2 * int(np.ceil(np.log2(max(2, num_buckets)))) + 3
        work += 2 * n + num_buckets
        remaining = (remaining + base - 1) // base
        if remaining <= 1:
            break
        work += n
        rounds += 1
    return rounds, work


@pytest.mark.parametrize("n", SIZES)
def test_charge_tree_matches_both_loop_sweeps(n):
    up_rounds, up_work = loop_tree_charge(n)
    down_rounds, down_work = loop_downsweep_charge(n)
    assert up_rounds == down_rounds
    assert up_work == down_work
    counter = CostCounter()
    counter.charge_tree(n)
    assert counter.time == up_rounds
    assert counter.work == up_work


def test_charge_scan_matches_its_two_loop_sweeps():
    # the pair-encoding scan used to tick the up- and down-sweep level by
    # level; it is now two closed-form tree charges, spans included
    for n in range(5000):
        reference = CostCounter()
        with reference.span("scan"):
            for level_work in _loop_sweep_ticks(n):
                reference.tick(level_work)
        m = Machine.default()
        with m.span("scan"):
            _charge_scan(m, n)
        assert (m.time, m.work, m.counter.charged_work) == (reference.time, reference.work, reference.charged_work), n
        assert m.counter.summary().spans == reference.summary().spans, n


def _loop_sweep_ticks(n: int) -> list:
    """Per-round work of the old ``_charge_scan`` loops."""
    ticks = []
    level = n
    while level > 1:
        ticks.append(level // 2)
        level = (level + 1) // 2
    level = 1
    while level < n:
        ticks.append(min(level, n - level))
        level *= 2
    return ticks


@pytest.mark.parametrize("n", SIZES)
def test_prefix_sums_charges_two_tree_sweeps(n, rng):
    m = Machine.default()
    prefix_sums(rng.integers(0, 9, n), machine=m)
    rounds, work = loop_tree_charge(n)
    assert totals(m) == {"time": 2 * rounds, "work": 2 * work, "charged_work": 2 * work}


@pytest.mark.parametrize("n", SIZES)
def test_reductions_charge_one_tree_sweep(n, rng):
    x = rng.integers(0, 9, n)
    rounds, work = loop_tree_charge(n)
    m = Machine.default()
    reduce_sum(x, machine=m)
    assert totals(m) == {"time": rounds, "work": work, "charged_work": work}
    if n:
        m = Machine.default()
        reduce_min(x, machine=m)
        assert totals(m) == {"time": rounds, "work": work, "charged_work": work}


@pytest.mark.parametrize("n", SIZES)
def test_compact_and_segmented_scan_charges(n, rng):
    x = rng.integers(0, 9, n)
    mask = rng.random(n) < 0.5
    rounds, work = loop_tree_charge(n)
    m = Machine.default()
    compact(x, mask, machine=m)
    # compact = exclusive scan (2 sweeps) + one n-work scatter round
    assert totals(m) == {
        "time": 2 * rounds + 1,
        "work": 2 * work + n,
        "charged_work": 2 * work + n,
    }
    if n:
        heads = np.zeros(n, dtype=bool)
        heads[0] = True
        m = Machine.default()
        segmented_prefix_sums(x, heads, machine=m)
        assert totals(m) == {"time": rounds + 1, "work": work + n, "charged_work": work + n}


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1000])
@pytest.mark.parametrize("range_factor", [1, 3, 1000, 10**7])
def test_integer_sort_charges_the_loop_schedule(n, range_factor, rng):
    key_range = max(1, n * range_factor)
    keys = rng.integers(0, key_range, n)
    rounds, work = loop_radix_charge(n, key_range)
    m = Machine.default()
    perm = sort_by_keys(keys, machine=m, key_range=key_range, cost_model=SortCostModel.INCURRED)
    assert totals(m) == {"time": rounds, "work": work, "charged_work": work}
    sorted_keys = keys[perm]
    assert (np.diff(sorted_keys) >= 0).all()
    # stability: equal keys keep input order
    for v in np.unique(keys[:50]):
        positions = perm[sorted_keys == v]
        assert (np.diff(positions) > 0).all()


@pytest.mark.parametrize("n", SIZES)
def test_kth_successor_charges_one_round_per_bit(n, rng):
    if n == 0:
        return
    f = rng.integers(0, n, n)
    for k in (0, 1, 5, n):
        m = Machine.default()
        kth_successor(f, k, machine=m)
        bits = int(k).bit_length()
        assert totals(m) == {"time": bits, "work": n * bits, "charged_work": n * bits}


def test_frontier_jump_charges_full_rounds(rng):
    # a chain: 0 <- 1 <- 2 ... depth n-1; old loop ran ceil(log2 depth)+1
    # verification-included rounds of n work each — frontier must charge the same
    n = 100
    succ = np.maximum(np.arange(n) - 1, 0)
    m = Machine.default()
    roots = jump_to_fixed_point(succ, machine=m)
    assert (roots == 0).all()
    rounds_used = m.time
    # replicate the old full-array loop round count
    ref, performed = succ.copy(), 0
    for _ in range(int(np.ceil(np.log2(max(2, n)))) + 1):
        performed += 1
        nxt = ref[ref]
        if np.array_equal(nxt, ref):
            break
        ref = nxt
    assert rounds_used == performed
    assert m.work == n * performed


@pytest.mark.parametrize("layout", ["sequential", "shuffled"])
def test_list_ranking_charges_match_full_array_reference(layout, rng):
    n = 257
    order = np.arange(n) if layout == "sequential" else rng.permutation(n)
    succ = np.arange(n)
    for i in range(n - 1):
        succ[order[i]] = order[i + 1]
    succ[order[-1]] = order[-1]

    # old Wyllie reference: full-array loop with identical charging
    ref_succ = succ.copy()
    ref_rank = np.zeros(n, dtype=np.int64)
    ref_rank[ref_succ != np.arange(n)] = 1
    ref_time, ref_work = 1, n  # init tick
    for _ in range(int(np.ceil(np.log2(max(2, n)))) + 1):
        ref_time += 1
        ref_work += n
        not_done = ref_succ != ref_succ[ref_succ]
        new_rank = ref_rank + ref_rank[ref_succ]
        new_succ = ref_succ[ref_succ]
        ref_rank = np.where(ref_succ != np.arange(n), new_rank, ref_rank)
        ref_succ = new_succ
        if not not_done.any():
            break

    m = Machine.default()
    got = wyllie_rank(succ, machine=m)
    assert np.array_equal(got, ref_rank)
    assert (m.time, m.work) == (ref_time, ref_work)

    opt = optimal_rank(succ, machine=Machine.default())
    assert np.array_equal(opt, ref_rank)


# ----------------------------------------------------------------------
# golden files captured from the pre-refactor implementation
# ----------------------------------------------------------------------
def test_primitive_golden_totals():
    rng = np.random.default_rng(1234)
    checked = 0
    for n in [1, 2, 3, 5, 17, 64, 100, 257, 1024, 5000]:
        # replay the capture script's rng stream exactly
        x = rng.integers(0, 50, n)
        mask = rng.random(n) < 0.5
        heads = np.zeros(n, dtype=bool)
        heads[0] = True
        heads |= rng.random(n) < 0.2
        f = rng.integers(0, n, n)
        keys = rng.integers(0, max(1, 3 * n), n)
        a = rng.integers(0, n + 3, n)
        b = rng.integers(0, n + 3, n)
        succ = np.arange(n)
        if n > 1:
            for i in range(1, n):
                succ[i] = rng.integers(0, i)
        perm = rng.permutation(n)
        succ_list = np.arange(n)
        for i in range(n - 1):
            succ_list[perm[i]] = perm[i + 1]
        succ_list[perm[-1]] = perm[-1]

        runs = {
            "prefix_sums": lambda m: prefix_sums(x, machine=m),
            "reduce_sum": lambda m: reduce_sum(x, machine=m),
            "reduce_min": lambda m: reduce_min(x, machine=m),
            "compact": lambda m: compact(x, mask, machine=m),
            "segmented_prefix_sums": lambda m: segmented_prefix_sums(x, heads, machine=m),
            "kth_successor": lambda m: kth_successor(f, n, machine=m),
            "sort_by_keys_charged": lambda m: sort_by_keys(keys, machine=m),
            "sort_by_keys_incurred": lambda m: sort_by_keys(
                keys, machine=m, cost_model=SortCostModel.INCURRED
            ),
            "jump_to_fixed_point": lambda m: jump_to_fixed_point(succ, machine=m),
            "wyllie_rank": lambda m: wyllie_rank(succ_list, machine=m),
            "optimal_rank": lambda m: optimal_rank(succ_list, machine=m),
        }
        for name, fn in runs.items():
            machine = Machine.default()
            fn(machine)
            assert totals(machine) == GOLDEN_CHARGING[name][str(n)], (name, n)
            checked += 1
    assert checked == 110


@pytest.mark.parametrize(
    "key", sorted(k for k in GOLDEN_PIPELINE if ":64:" in k or ":257:" in k)
)
def test_pipeline_golden_totals_small(key):
    _assert_pipeline_golden(key)


@pytest.mark.slow
@pytest.mark.parametrize("key", sorted(k for k in GOLDEN_PIPELINE if ":1024:" in k))
def test_pipeline_golden_totals_large(key):
    _assert_pipeline_golden(key)


def _assert_pipeline_golden(key):
    algos = {
        "jaja-ryu": jaja_ryu_partition,
        "galley-iliopoulos": galley_iliopoulos_partition,
        "srikant": srikant_partition,
    }
    workload, n, algo, audit_part = key.split(":")
    f, b = get_workload(workload).instance(int(n), 0)
    result = algos[algo](f, b, audit=(audit_part == "audit=True"))
    nn = len(result.labels)
    got = {
        "time": result.cost.time,
        "work": result.cost.work,
        "charged_work": result.cost.charged_work,
        "labels_sha": int(
            np.sum(result.labels * (np.arange(nn) + 1)) % (2**61 - 1)
        ),
        "blocks": result.num_blocks,
    }
    assert got == GOLDEN_PIPELINE[key], key
