"""End-to-end tests for the paper's algorithm and the parallel baselines."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.generators import (
    cycles_of_equal_length,
    label_function_composition,
    periodic_labeled_cycle,
    random_function,
    random_permutation,
    tree_heavy,
)
from repro.partition import (
    brute_force_coarsest,
    coarsest_partition,
    galley_iliopoulos_partition,
    jaja_ryu_partition,
    linear_partition,
    naive_parallel_partition,
    paper_example_2_2,
    paper_example_2_2_expected_labels,
    same_partition,
    srikant_partition,
)
from repro.primitives import SortCostModel

PARALLEL = [jaja_ryu_partition, galley_iliopoulos_partition, srikant_partition]


@pytest.mark.parametrize("algo", PARALLEL + [naive_parallel_partition])
def test_paper_example(algo):
    inst = paper_example_2_2()
    res = algo(inst.function, inst.initial_labels)
    assert same_partition(res.labels, paper_example_2_2_expected_labels())
    assert res.num_blocks == 4


@pytest.mark.parametrize("algo", PARALLEL)
@pytest.mark.parametrize(
    "gen,kwargs",
    [
        (random_function, {}),
        (random_permutation, {}),
        (tree_heavy, {}),
        (cycles_of_equal_length, {"length": 6, "num_classes": 2}),
    ],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_matches_linear_baseline(algo, gen, kwargs, seed):
    if gen is cycles_of_equal_length:
        f, b = gen(12, kwargs["length"], num_labels=2, seed=seed, num_classes=kwargs["num_classes"])
    else:
        f, b = gen(90, num_labels=3, seed=seed)
    expect = linear_partition(f, b)
    res = algo(f, b)
    assert same_partition(res.labels, expect.labels)
    assert res.num_blocks == expect.num_blocks


@pytest.mark.parametrize("algo", PARALLEL)
def test_engineered_block_count(algo):
    f, b = label_function_composition(64, 8, seed=0)
    assert algo(f, b).num_blocks == 8


@pytest.mark.parametrize("algo", PARALLEL)
def test_periodic_cycle_block_count(algo):
    f, b = periodic_labeled_cycle(24, [0, 1, 0, 2], seed=1)
    assert algo(f, b).num_blocks == 4


@pytest.mark.parametrize("algo", PARALLEL)
def test_tiny_instances(algo):
    assert algo([0], [0]).num_blocks == 1
    assert algo([1, 0], [0, 0]).num_blocks == 1
    assert algo([1, 0], [0, 1]).num_blocks == 2


def test_jaja_ryu_simple_msp_variant():
    f, b = random_function(100, num_labels=2, seed=4)
    expect = linear_partition(f, b)
    res = jaja_ryu_partition(f, b, msp_algorithm="simple")
    assert same_partition(res.labels, expect.labels)


def test_jaja_ryu_incurred_cost_model():
    f, b = random_function(100, num_labels=2, seed=5)
    res_incurred = jaja_ryu_partition(f, b, cost_model=SortCostModel.INCURRED)
    res_charged = jaja_ryu_partition(f, b, cost_model=SortCostModel.CHARGED)
    assert same_partition(res_incurred.labels, linear_partition(f, b).labels)
    assert same_partition(res_incurred.labels, res_charged.labels)
    # flipping the sort cost model never changes the answer, only the accounting
    assert res_incurred.cost.work == res_charged.cost.work
    assert res_incurred.cost.charged_work >= res_charged.cost.charged_work


def test_phase_spans_present():
    f, b = random_function(200, num_labels=3, seed=6)
    res = jaja_ryu_partition(f, b)
    span_names = set(res.cost.spans)
    assert any("step1_find_cycles" in s for s in span_names)
    assert any("step2_label_cycles" in s for s in span_names)
    assert any("step3_label_trees" in s for s in span_names)


def test_naive_parallel_rejects_large_inputs():
    f, b = random_function(4096, seed=0)
    with pytest.raises(ValueError):
        naive_parallel_partition(f, b)


def test_dispatcher_names():
    f, b = random_function(40, seed=2)
    expect = linear_partition(f, b)
    for name in ("jaja-ryu", "galley-iliopoulos", "srikant", "paige-tarjan-bonic", "hopcroft", "naive"):
        assert same_partition(coarsest_partition(f, b, algorithm=name).labels, expect.labels)
    with pytest.raises(ValueError):
        coarsest_partition(f, b, algorithm="unknown")


def test_charged_work_scales_below_nlogn_baseline():
    sizes = (1024, 4096)
    ratios = []
    for n in sizes:
        f, b = random_function(n, num_labels=3, seed=1)
        ours = jaja_ryu_partition(f, b)
        theirs = galley_iliopoulos_partition(f, b)
        ratios.append(ours.cost.charged_work / theirs.cost.work)
    # the ratio (n log log n)/(n log n) shrinks as n grows
    assert ratios[-1] < ratios[0] * 1.1


def test_parallel_time_logarithmic_vs_srikant_squared():
    times_ours, times_srikant = [], []
    for n in (256, 4096):
        f, b = random_function(n, num_labels=3, seed=2)
        times_ours.append(jaja_ryu_partition(f, b).cost.time)
        times_srikant.append(srikant_partition(f, b).cost.time)
    growth_ours = times_ours[1] / times_ours[0]
    growth_srikant = times_srikant[1] / times_srikant[0]
    assert growth_ours < growth_srikant * 1.5


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10**6), st.integers(1, 3))
def test_jaja_ryu_agreement_property(n, seed, num_labels):
    rng = np.random.default_rng(seed)
    f = rng.integers(0, n, n)
    b = rng.integers(0, num_labels, n)
    expect = brute_force_coarsest(f, b)
    assert same_partition(jaja_ryu_partition(f, b).labels, expect)


@pytest.mark.parametrize(
    "family,n,seed,host_kernel",
    [
        # a random recursive tree is shallow: the residual-forest host kernel
        ("tree", 1 << 12, 0, True),
        ("tree", 1 << 14, 1, True),
        ("tree", 1 << 16, 2, True),
        # a random function's trees are ~sqrt(n) deep: the doubling loop
        ("function", 1 << 12, 3, False),
        ("function", 1 << 14, 4, False),
        ("function", 1 << 16, 5, False),
        ("chains", 1 << 12, 6, False),
    ],
)
def test_jaja_ryu_agrees_with_linear_at_scale(family, n, seed, host_kernel, monkeypatch):
    """Answers at the sizes the solver is benchmarked at, on both sides of
    tree labeling's depth crossover (the property test stops at n = 40)."""
    from repro.partition import tree_labeling

    if family == "function":
        f, b = random_function(n, num_labels=3, seed=seed)
    else:
        f, b = tree_heavy(n, num_labels=3, chain_bias=0.9 if family == "chains" else 0.5, seed=seed)
    calls = []
    kernel = tree_labeling.residual_forest_classes
    monkeypatch.setattr(
        tree_labeling,
        "residual_forest_classes",
        lambda *args, **kwargs: calls.append(1) or kernel(*args, **kwargs),
    )
    ours = jaja_ryu_partition(f, b)
    assert bool(calls) is host_kernel
    assert same_partition(ours.labels, coarsest_partition(f, b, algorithm="paige-tarjan-bonic").labels)


@pytest.mark.parametrize("n,seed", [(1 << 12, 7), (1 << 14, 8), (1 << 16, 9)])
def test_permutations_agree_with_linear_at_scale(n, seed):
    """Step 2 alone decides a permutation: its lockstep m.s.p. pass runs
    long and short cycles together."""
    f, b = random_permutation(n, num_labels=3, seed=seed)
    ours = jaja_ryu_partition(f, b, audit=False)
    expect = coarsest_partition(f, b, algorithm="paige-tarjan-bonic")
    assert same_partition(ours.labels, expect.labels)
    assert ours.num_blocks == expect.num_blocks


def test_unknown_msp_algorithm_is_rejected():
    f, b = random_permutation(12, seed=0)
    with pytest.raises(ValueError, match="msp_algorithm"):
        coarsest_partition(f, b, msp_algorithm="bogus")
    with pytest.raises(ValueError, match="msp_algorithm"):
        jaja_ryu_partition(f, b, msp_algorithm="")


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 30), st.integers(0, 10**6))
def test_permutation_only_instances_property(n, seed):
    rng = np.random.default_rng(seed)
    f = rng.permutation(n)
    b = rng.integers(0, 2, n)
    expect = brute_force_coarsest(f, b)
    assert same_partition(jaja_ryu_partition(f, b).labels, expect)
