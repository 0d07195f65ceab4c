#!/usr/bin/env python
"""Quickstart: solve the paper's worked example (Example 2.2) and inspect cost.

Run with:  python examples/quickstart.py
"""

from repro import Machine, coarsest_partition, linear_partition, same_partition
from repro.pram import cost_report, phase_report
from repro.partition import paper_example_2_2, paper_example_2_2_expected_labels


def main() -> None:
    # The instance of the paper's Example 2.2 / Figure 1 (two cycles, n=16).
    instance = paper_example_2_2()
    print("function  A_f =", (instance.function + 1).tolist(), "(1-indexed, as in the paper)")
    print("B-labels  A_B =", instance.initial_labels.tolist())

    # Solve with the paper's parallel algorithm on a fresh arbitrary-CRCW
    # machine so we can inspect the simulated cost afterwards.
    machine = Machine.default()
    result = coarsest_partition(
        instance.function, instance.initial_labels, algorithm="jaja-ryu", machine=machine
    )
    print("\nQ-labels     =", result.labels.tolist())
    print("paper's A_Q  =", (paper_example_2_2_expected_labels() - 1).tolist(), "(same partition, renamed)")
    assert same_partition(result.labels, paper_example_2_2_expected_labels())
    print("blocks       =", result.num_blocks)

    # Cross-check against the linear-time sequential algorithm.
    sequential = linear_partition(instance.function, instance.initial_labels)
    assert same_partition(result.labels, sequential.labels)
    print("matches the Paige–Tarjan–Bonic sequential result: yes")

    # The simulator's accounting: parallel rounds, operations, phase split.
    print("\n" + cost_report("jaja-ryu (Example 2.2)", instance.n, result.cost))
    print("\nPhase breakdown:")
    print(phase_report(result.cost))


if __name__ == "__main__":
    main()
