"""Experiment runners shared by the benchmark harness and EXPERIMENTS.md.

Each ``run_eX`` function executes one experiment of the evaluation plan
(DESIGN.md §4) and returns long-format rows (list of dicts) ready for
:func:`repro.analysis.tables.render_table`.  The benchmark files under
``benchmarks/`` are thin wrappers that time one representative
configuration with pytest-benchmark and print the regenerated table; the
tests assert the acceptance criteria on (smaller) sweeps of the same rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..pram import Machine, StepProfile, bound_ratios
from ..partition import (
    galley_iliopoulos_partition,
    jaja_ryu_partition,
    linear_partition,
    naive_parallel_partition,
    partition_cycles,
    partition_cycles_all_pairs,
    partition_cycles_sorting,
    same_partition,
    srikant_partition,
)
from ..primitives.integer_sort import SortCostModel
from ..strings import (
    booth_msp,
    efficient_msp,
    sequential_msp,
    simple_msp,
    sort_strings,
    sort_strings_comparison,
    sort_strings_doubling,
    sort_strings_sequential,
)
from .workloads import DEFAULT_SWEEP, circular_string_workloads, get_workload, string_list_workloads

Row = Dict[str, object]

PARTITION_ALGORITHMS = {
    "jaja-ryu": jaja_ryu_partition,
    "galley-iliopoulos": galley_iliopoulos_partition,
    "srikant": srikant_partition,
    "paige-tarjan-bonic": linear_partition,
}


def _cost_row(name: str, n: int, cost) -> Row:
    ratios = bound_ratios(n, cost.time, cost.work)
    charged_ratios = bound_ratios(n, cost.time, cost.charged_work)
    return {
        "algorithm": name,
        "n": n,
        "time": cost.time,
        "work": cost.work,
        "charged_work": cost.charged_work,
        "time/log n": round(ratios["time_per_log_n"], 2),
        "work/n": round(ratios["work_per_n"], 2),
        "work/(n lg lg n)": round(ratios["work_per_nloglogn"], 2),
        "work/(n lg n)": round(ratios["work_per_nlogn"], 2),
        "charged/(n lg lg n)": round(charged_ratios["work_per_nloglogn"], 2),
    }


# ----------------------------------------------------------------------
# E1 / E2 — full-problem work and time scaling
# ----------------------------------------------------------------------
def run_e1_work_comparison(
    sizes: Sequence[int] = DEFAULT_SWEEP,
    *,
    workload: str = "mixed",
    seed: int = 0,
    algorithms: Optional[Sequence[str]] = None,
    include_naive: bool = False,
    verify: bool = True,
    audit: Optional[bool] = None,
) -> List[Row]:
    """E1: total work of each coarsest-partition algorithm across a size sweep.

    ``audit=False`` runs every algorithm on the no-audit fast path (charged
    cost is identical; only the conflict validation is skipped).
    """
    wl = get_workload(workload)
    names = list(algorithms) if algorithms is not None else list(PARTITION_ALGORITHMS)
    rows: List[Row] = []
    for n in sizes:
        f, b = wl.instance(n, seed)
        reference = None
        for name in names:
            algo = PARTITION_ALGORITHMS[name]
            result = algo(f, b, audit=audit)
            if verify:
                if reference is None:
                    reference = linear_partition(f, b).labels
                assert same_partition(result.labels, reference), (name, n, workload)
            row = _cost_row(name, n, result.cost)
            row["workload"] = workload
            row["blocks"] = result.num_blocks
            rows.append(row)
        if include_naive and n <= 2048:
            result = naive_parallel_partition(f, b, audit=audit)
            row = _cost_row("naive-parallel", n, result.cost)
            row["workload"] = workload
            row["blocks"] = result.num_blocks
            rows.append(row)
    return rows


def run_e2_time_scaling(
    sizes: Sequence[int] = DEFAULT_SWEEP,
    *,
    workload: str = "mixed",
    seed: int = 0,
    audit: Optional[bool] = None,
) -> List[Row]:
    """E2: parallel rounds of each algorithm across the sweep (Figure 1)."""
    rows = run_e1_work_comparison(sizes, workload=workload, seed=seed, verify=False, audit=audit)
    # E2 reads the same runs; keep only the time-related columns.
    return [
        {
            "algorithm": r["algorithm"],
            "n": r["n"],
            "time": r["time"],
            "time/log n": r["time/log n"],
            "time/log^2 n": round(r["time"] / (max(1.0, np.log2(r["n"])) ** 2), 3),
        }
        for r in rows
    ]


# ----------------------------------------------------------------------
# E3 — minimal starting point
# ----------------------------------------------------------------------
def run_e3_msp(
    sizes: Sequence[int] = DEFAULT_SWEEP,
    *,
    string_family: str = "random_small_alphabet",
    seed: int = 0,
    verify: bool = True,
) -> List[Row]:
    """E3: work/time of the m.s.p. algorithms across string sizes (Table 2)."""
    rows: List[Row] = []
    for n in sizes:
        s = circular_string_workloads(n, seed)[string_family]
        runs = {
            "efficient-msp": lambda: efficient_msp(s),
            "simple-msp": lambda: simple_msp(s),
            "sequential-booth": lambda: sequential_msp(s, algorithm="booth"),
        }
        reference = booth_msp(s)
        for name, fn in runs.items():
            result = fn()
            if verify:
                assert result.index == reference, (name, n, string_family)
            row = _cost_row(name, n, result.cost)
            row["family"] = string_family
            row["msp"] = result.index
            rows.append(row)
    return rows


def run_e6_shrink(
    sizes: Sequence[int] = DEFAULT_SWEEP,
    *,
    string_family: str = "random_small_alphabet",
    seed: int = 0,
) -> List[Row]:
    """E6: per-round shrink factor of the efficient m.s.p. recursion (Figure 2)."""
    rows: List[Row] = []
    for n in sizes:
        s = circular_string_workloads(n, seed)[string_family]
        lengths = _shrink_trace(s)
        factors = [lengths[i + 1] / lengths[i] for i in range(len(lengths) - 1)]
        rows.append(
            {
                "n": n,
                "family": string_family,
                "rounds": len(lengths) - 1,
                "lengths": "->".join(str(l) for l in lengths),
                "max_shrink_factor": round(max(factors), 4) if factors else 1.0,
                "bound": 2 / 3,
            }
        )
    return rows


def _shrink_trace(symbols: np.ndarray) -> List[int]:
    """Lengths of the working string after each pair-encoding round."""
    from ..strings.pair_encoding import circular_pairs, rank_replace
    from ..strings.period import smallest_circular_period

    s = np.asarray(symbols, dtype=np.int64)
    period = smallest_circular_period(s)
    s = s[:period]
    lengths = [len(s)]
    threshold = max(4, int(len(s) / max(1.0, np.log2(max(2, len(s))))))
    while len(s) > threshold:
        smallest = int(s.min())
        prev = np.roll(s, 1)
        marked = (s == smallest) & (prev != smallest)
        if marked.sum() <= 1:
            break
        first, second, heads = circular_pairs(s, marked, pad_symbol=smallest)
        codes, _sigma = rank_replace(first, second)
        s = codes
        lengths.append(len(s))
    return lengths


# ----------------------------------------------------------------------
# E4 — string sorting
# ----------------------------------------------------------------------
def run_e4_string_sorting(
    sizes: Sequence[int] = DEFAULT_SWEEP,
    *,
    family: str = "uniform_short",
    seed: int = 0,
    verify: bool = True,
) -> List[Row]:
    """E4: work/time of the string-sorting algorithms (Table 3)."""
    rows: List[Row] = []
    for total in sizes:
        strings = string_list_workloads(total, seed)[family]
        n = int(sum(len(s) for s in strings))
        runs = {
            "jaja-ryu-sort": lambda: sort_strings(strings),
            "doubling-sort": lambda: sort_strings_doubling(strings),
            "comparison-mergesort": lambda: sort_strings_comparison(strings),
            "sequential-radix": lambda: sort_strings_sequential(strings),
        }
        reference = None
        for name, fn in runs.items():
            result = fn()
            if verify:
                ordered = [tuple(strings[i].tolist()) for i in result.order]
                if reference is None:
                    reference = sorted(tuple(s.tolist()) for s in strings)
                assert ordered == reference, (name, total, family)
            row = _cost_row(name, n, result.cost)
            row["family"] = family
            row["num_strings"] = len(strings)
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# E5 — cycle equivalence classes
# ----------------------------------------------------------------------
def run_e5_equivalence(
    cycle_counts: Sequence[int] = (4, 16, 64, 256, 1024),
    *,
    length: int = 32,
    seed: int = 0,
    verify: bool = True,
) -> List[Row]:
    """E5: BB-table equivalence vs all-pairs vs sorting as k grows (Table 4)."""
    rows: List[Row] = []
    rng = np.random.default_rng(seed)
    for k in cycle_counts:
        # build k canonical strings of equal length over a small alphabet,
        # drawn from 4 patterns so classes exist
        patterns = rng.integers(0, 3, (4, length)).astype(np.int64)
        choice = rng.integers(0, 4, k)
        flat = np.concatenate([patterns[c] for c in choice])
        offsets = np.arange(0, (k + 1) * length, length, dtype=np.int64)
        n = k * length
        runs = {
            "bb-doubling": lambda: partition_cycles(flat, offsets),
            "all-pairs": lambda: partition_cycles_all_pairs(flat, offsets),
            "string-sorting": lambda: partition_cycles_sorting(flat, offsets),
        }
        reference = None
        for name, fn in runs.items():
            result = fn()
            if verify:
                if reference is None:
                    reference = result.class_of
                assert np.array_equal(result.class_of, reference), (name, k)
            row = _cost_row(name, n, result.cost)
            row["k"] = k
            row["classes"] = result.num_classes
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Scaling — wall-clock and charged cost as n grows (up to 2^20)
# ----------------------------------------------------------------------
def run_scaling(
    sizes: Sequence[int] = (16384, 65536, 262144),
    *,
    workload: str = "mixed",
    seed: int = 0,
    audit: Optional[bool] = None,
    algorithms: Sequence[str] = ("jaja-ryu", "galley-iliopoulos", "paige-tarjan-bonic"),
    baseline_max_n: int = 1048576,
    verify_max_n: int = 65536,
) -> List[Row]:
    """Scaling sweep: host wall-clock next to the charged PRAM cost.

    Unlike E1 (which records only the counted cost), every row carries the
    measured ``wall_seconds`` and the derived ``ns_per_node`` of the solve
    call, so the artifact doubles as the perf-trajectory evidence that the
    simulator's *host* time scales like the cost it charges.  ``jaja-ryu``
    runs at every size; the other algorithms stop at ``baseline_max_n``.
    Labels are verified against the sequential oracle up to
    ``verify_max_n`` (verification is itself O(n) host work and would
    otherwise dominate the largest cells).
    """
    import time as _time

    wl = get_workload(workload)
    rows: List[Row] = []
    # Warm-up: one tiny untimed solve per algorithm so the first timed row
    # does not absorb lazy imports and code-path warming.
    warm_f, warm_b = wl.instance(256, seed)
    for name in algorithms:
        PARTITION_ALGORITHMS[name](warm_f, warm_b, audit=audit)
    for n in sizes:
        f, b = wl.instance(n, seed)
        reference = None
        for name in algorithms:
            if name != "jaja-ryu" and n > baseline_max_n:
                continue
            algo = PARTITION_ALGORITHMS[name]
            start = _time.perf_counter()
            result = algo(f, b, audit=audit)
            wall = _time.perf_counter() - start
            if n <= verify_max_n:
                if reference is None:
                    reference = linear_partition(f, b).labels
                # a hard raise (not assert): the scaling artifact is committed
                # perf evidence and must never be produced from wrong labels,
                # even under python -O
                if not same_partition(result.labels, reference):
                    from ..errors import ExperimentError

                    raise ExperimentError(
                        f"scaling: {name} labels disagree with the sequential "
                        f"oracle at n={n} (workload={workload!r}, seed={seed})"
                    )
            row = _cost_row(name, n, result.cost)
            row["workload"] = workload
            row["blocks"] = result.num_blocks
            row["wall_seconds"] = round(wall, 6)
            row["ns_per_node"] = round(wall / n * 1e9, 1)
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# E7 — Brent speedup
# ----------------------------------------------------------------------
def run_e7_speedup(
    n: int = 8192,
    processor_counts: Sequence[int] = (1, 4, 16, 64, 256, 1024, 4096),
    *,
    workload: str = "mixed",
    seed: int = 0,
) -> List[Row]:
    """E7: simulated p-processor execution time of each algorithm (Figure 3)."""
    wl = get_workload(workload)
    f, b = wl.instance(n, seed)
    rows: List[Row] = []
    for name, algo in PARTITION_ALGORITHMS.items():
        result = algo(f, b)
        profile = StepProfile.from_aggregate(result.cost.time, result.cost.work)
        for point in profile.sweep(processor_counts):
            rows.append(
                {
                    "algorithm": name,
                    "n": n,
                    "processors": point.processors,
                    "brent_time": point.brent_time,
                    "speedup": round(point.speedup, 2),
                    "efficiency": round(point.efficiency, 4),
                }
            )
    return rows


# ----------------------------------------------------------------------
# E8 — agreement fuzzing
# ----------------------------------------------------------------------
def run_e8_agreement(
    trials: int = 50,
    *,
    max_n: int = 300,
    seed: int = 0,
) -> List[Row]:
    """E8: exhaustive agreement between all algorithms on random instances."""
    from ..graphs.generators import random_function, random_permutation, tree_heavy

    rng = np.random.default_rng(seed)
    generators = [random_function, random_permutation, tree_heavy]
    agree = 0
    blocks_checked = 0
    for t in range(trials):
        n = int(rng.integers(2, max_n))
        gen = generators[t % len(generators)]
        f, b = gen(n, num_labels=int(rng.integers(1, 4)), seed=int(rng.integers(0, 10**6)))
        reference = linear_partition(f, b)
        ok = True
        for name, algo in PARTITION_ALGORITHMS.items():
            result = algo(f, b)
            ok = ok and same_partition(result.labels, reference.labels)
            ok = ok and result.num_blocks == reference.num_blocks
        agree += int(ok)
        blocks_checked += reference.num_blocks
    return [
        {
            "trials": trials,
            "agreeing": agree,
            "agreement_rate": round(agree / trials, 4),
            "total_blocks_checked": blocks_checked,
        }
    ]


# ----------------------------------------------------------------------
# E9 / E10 — ablations
# ----------------------------------------------------------------------
def run_e9_sort_ablation(
    sizes: Sequence[int] = DEFAULT_SWEEP,
    *,
    workload: str = "mixed",
    seed: int = 0,
) -> List[Row]:
    """E9: where does the work go?  Charged vs incurred, sorting vs the rest."""
    wl = get_workload(workload)
    rows: List[Row] = []
    for n in sizes:
        f, b = wl.instance(n, seed)
        for cost_model in (SortCostModel.CHARGED, SortCostModel.INCURRED):
            result = jaja_ryu_partition(f, b, cost_model=cost_model)
            rows.append(
                {
                    "n": n,
                    "cost_model": cost_model.value,
                    "time": result.cost.time,
                    "work": result.cost.work,
                    "charged_work": result.cost.charged_work,
                    "work/n": round(result.cost.work / n, 2),
                    "charged/n": round(result.cost.charged_work / n, 2),
                }
            )
    return rows


def run_e10_model_ablation(
    k: int = 128,
    length: int = 32,
    *,
    seed: int = 0,
) -> List[Row]:
    """E10: winner-policy invariance of the arbitrary-CRCW equivalence step."""
    from ..pram import ArbitraryWinner, arbitrary_crcw

    rng = np.random.default_rng(seed)
    patterns = rng.integers(0, 3, (4, length)).astype(np.int64)
    choice = rng.integers(0, 4, k)
    flat = np.concatenate([patterns[c] for c in choice])
    offsets = np.arange(0, (k + 1) * length, length, dtype=np.int64)
    rows: List[Row] = []
    reference = None
    for winner in ArbitraryWinner:
        machine = Machine(arbitrary_crcw(winner), seed=seed)
        result = partition_cycles(flat, offsets, machine=machine)
        if reference is None:
            reference = result.class_of
        rows.append(
            {
                "winner_policy": winner.value,
                "k": k,
                "classes": result.num_classes,
                "matches_reference": bool(np.array_equal(result.class_of, reference)),
                "work": result.cost.work,
            }
        )
    return rows
