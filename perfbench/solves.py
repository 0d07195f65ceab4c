"""The ``forest`` and ``cycles`` workloads: one large solve after another.

An operation is one ``repro.coarsest_partition(f, b)`` call with library
defaults on a fresh instance of n = 2^19 nodes.  The untraced loop times
each call and nothing else; every answer is then checked (refinement and
stability) after its timer has stopped.  The traced run adds, for each
instance, a second pass that calls the paper's three step functions in
sequence under ``repro.pram.wall_profiling()``, and once per run a third
pass under ``tracemalloc`` for the per-step memory peaks.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import tracemalloc
import traceback

import numpy as np

import repro
from repro.partition import (
    canonical_labels,
    find_cycle_nodes,
    is_stable,
    label_cycle_nodes,
    label_tree_nodes,
    refines,
    same_partition,
)
from repro.pram import Machine, wall_profiling

import instances
from report import Report

N = 1 << 19
#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: Solves every run makes, however long they take.  The exact counts are
#: averaged over these first instances, so the same seed gives the same
#: counts whatever the machine's speed.
COUNTED = 5

GENERATORS = {"forest": instances.forest_instance, "cycles": instances.cycles_instance}

#: Profiler rows summed by the last segment of their span path.  Summing
#: by the last segment keeps a metric's name when a row moves under
#: another span.
PROFILE_ROWS = {
    "pram.kernel.radix": "[kernel] radix",
    "pram.kernel.cycle_labels": "[kernel] cycle_labels",
    "primitives.euler_structure": "euler_structure",
    "strings.msp": "efficient_msp",
    "partition.equivalence": "partition_cycles",
}

#: Profiler rows whose call count is a metric too.
COUNTED_CALLS = ("pram.kernel.radix", "primitives.euler_structure", "strings.msp")

#: Per-layer metrics of the serving stack, which these workloads never use.
UNUSED = (
    "service.queued_ms_p50", "service.solve_ms_p50", "workers.busy_ms_per_request",
    "batcher.batches", "batcher.mean_occupancy", "wire.encode_request_us",
    "wire.decode_response_us", "transport.ms_p50", "loadgen.lateness_ms_p99",
)

STEPS = (1, 2, 3)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def profile_sums(profile) -> dict:
    """``{metric: (exclusive wall seconds, calls)}`` of the ``PROFILE_ROWS``
    the profile holds.  A row that never appears gets no entry, so a
    renamed span leaves its metric without a value instead of reading 0.
    """
    sums = {}
    by_segment = {segment: name for name, segment in PROFILE_ROWS.items()}
    for row in profile.rows():
        name = by_segment.get(str(row["span"]).rsplit("/", 1)[-1])
        if name is not None:
            wall, calls = sums.get(name, (0.0, 0))
            sums[name] = (wall + float(row["wall_seconds"]), calls + int(row["calls"]))
    return sums


def record_profile(report: Report, sums: dict, samples: int) -> None:
    """Per-layer metrics from ``{metric: (wall seconds, calls)}`` per operation."""
    for name, (wall, calls) in sums.items():
        report.layer(f"{name}.wall_s", wall, "s", samples)
        if name in COUNTED_CALLS:
            report.layer(f"{name}.calls", calls, "count", samples)


def run_steps(f, b, *, memory: bool = False) -> dict:
    """Run the three paper steps in sequence, as ``jaja_ryu_partition`` does.

    Returns the canonical labels, each step's wall seconds, charged work
    and PRAM rounds (deltas of the machine's counter), the step results'
    sizes, and, with ``memory``, each step's ``tracemalloc`` peak above
    the memory traced when the step began.
    """
    machine = Machine.default()
    counter = machine.counter
    out = {"wall_s": {}, "charged_work": {}, "rounds": {}, "peak_mib": {}}

    def step(number, call, *args):
        if memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        work0, rounds0 = counter.charged_work, counter.time
        start = time.perf_counter()
        result = call(*args, machine=machine)
        out["wall_s"][number] = time.perf_counter() - start
        out["charged_work"][number] = counter.charged_work - work0
        out["rounds"][number] = counter.time - rounds0
        if memory:
            out["peak_mib"][number] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        return result

    labels_b = canonical_labels(b)
    detection = step(1, find_cycle_nodes, f)
    cycles = step(2, label_cycle_nodes, f, labels_b, detection.on_cycle, detection.cycle_key)
    trees = step(3, label_tree_nodes, f, labels_b, detection.on_cycle, cycles)
    out["labels"] = canonical_labels(trees.q_labels)
    out["cycle_node_share"] = float(np.mean(detection.on_cycle))
    out["residual_nodes"] = int(trees.residual_size)
    out["cycles"] = len(cycles.cycle_lengths)
    return out


def memory_peaks(f, b) -> dict:
    """Each step's ``tracemalloc`` peak (MiB) on one instance."""
    tracemalloc.start()
    try:
        return run_steps(f, b, memory=True)["peak_mib"]
    finally:
        tracemalloc.stop()


def record_steps(report: Report, samples: list, peaks: dict, n: int) -> None:
    """Per-layer metrics of the paper steps: medians over ``samples``."""
    def median(key):
        return statistics.median(key(s) for s in samples)

    for number in STEPS:
        prefix = f"partition.step{number}"
        report.layer(f"{prefix}.wall_s", median(lambda s: s["wall_s"][number]), "s", len(samples))
        report.layer(f"{prefix}.charged_work", median(lambda s: s["charged_work"][number]), "ops", len(samples))
        report.layer(f"{prefix}.rounds", median(lambda s: s["rounds"][number]), "rounds", len(samples))
        report.layer(f"{prefix}.peak_mib", peaks[number], "MiB", 1)
    report.layer("partition.step2.cycles", median(lambda s: s["cycles"]), "count", len(samples))
    report.layer("partition.step3.residual_nodes", median(lambda s: s["residual_nodes"]), "count", len(samples))
    report.layer("input.cycle_node_share", median(lambda s: s["cycle_node_share"]), "share", len(samples))
    report.layer("input.residual_share", median(lambda s: s["residual_nodes"]) / n, "share", len(samples))


def run(workload: str, seed: int, seconds: float, trace: bool, report: Report) -> None:
    make = GENERATORS[workload]

    for index in range(SETUPS):
        start = time.perf_counter()
        f, b = make(instances.stream(seed, instances.WARMUP, index), N)
        repro.coarsest_partition(f, b)
        report.setup_done(time.perf_counter() - start)

    walls, cpus, digests, traced, costs = [], [], [], [], []
    first = None
    window_end = time.perf_counter() + seconds
    index = 0
    while index < COUNTED or time.perf_counter() < window_end:
        f, b = make(instances.stream(seed, instances.TIMED, index), N)
        digests.append(instances.digest(f, b))
        gc.collect()
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            result = repro.coarsest_partition(f, b)
        except Exception:  # noqa: BLE001 — a crashed solve is one failed operation
            traceback.print_exc(file=sys.stderr)
            report.attempt(ok=False, what=f"solve {index} raised")
            index += 1
            continue
        walls.append(time.perf_counter() - start)
        cpus.append(time.process_time() - cpu0)
        ok = refines(result.labels, b) and is_stable(result.labels, f)
        if index == 0:
            first = (f, b, result)
        if index < COUNTED:
            costs.append(result.cost)
        op = report.attempt(ok=ok, what=f"solve {index}: labels do not refine b or are not stable")
        if trace:
            gc.collect()
            start = time.perf_counter()
            with wall_profiling() as profile:
                steps = run_steps(f, b)
            steps["overhead"] = (time.perf_counter() - start) / walls[-1]
            steps["profile"] = profile_sums(profile)
            traced.append(steps)
            if not np.array_equal(steps["labels"], result.labels):
                report.fail(op, f"solve {index}: step-by-step labels differ from the solve")
        index += 1
    rss = peak_rss_mib()

    if first is not None:
        f, b, result = first
        oracle = repro.coarsest_partition(f, b, algorithm="paige-tarjan-bonic")
        if not same_partition(result.labels, oracle.labels):
            report.fail(0, "solve 0 differs from the paige-tarjan-bonic oracle")

    report.e2e("peak_rss_mib", rss, "MiB", 1)
    if walls:
        report.e2e("ns_per_node", statistics.median(walls) / N * 1e9, "ns/node", len(walls))
        report.e2e("latency_p50_ms", statistics.median(walls) * 1e3, "ms", len(walls))
        # Too few solves for a p99: the slowest one stands in for it.
        report.e2e("latency_p99_ms", max(walls) * 1e3, "ms", len(walls))
        report.e2e("cpu_ms_per_request", statistics.median(cpus) * 1e3, "ms", len(cpus))
    if costs:
        report.e2e("charged_work_per_node", statistics.mean(c.charged_work for c in costs) / N, "ops/node", len(costs))
        report.e2e("pram_rounds", statistics.mean(c.time for c in costs), "rounds", len(costs))
    report.layer("input.repeat_share", instances.repeat_share(digests), "share", len(digests))

    if trace and traced and first is not None:
        f, b, _ = first
        record_steps(report, traced, memory_peaks(f, b), N)
        seen = [name for name in PROFILE_ROWS if any(name in s["profile"] for s in traced)]
        medians = {
            name: tuple(statistics.median(s["profile"].get(name, (0.0, 0))[k] for s in traced) for k in (0, 1))
            for name in seen
        }
        record_profile(report, medians, len(traced))
        report.layer("trace.overhead", statistics.median(s["overhead"] for s in traced), "ratio", len(traced))
