"""*Algorithm coarsest partition* — the paper's full parallel pipeline.

Theorem 5.1: the single function coarsest partition problem can be solved
in O(log n) time using O(n log log n) operations on the arbitrary CRCW
PRAM.  The pipeline is the three-step strategy of Section 2:

1. mark the cycle nodes of the pseudo-forest
   (:mod:`repro.partition.cycle_detection`),
2. Q-label the cycle nodes (:mod:`repro.partition.cycle_labeling`, which
   uses the m.s.p. and equivalence machinery of Section 3),
3. Q-label the tree nodes (:mod:`repro.partition.tree_labeling`).

:func:`jaja_ryu_partition` is the public entry point; it accepts the same
``(A_f, A_B)`` arrays as the sequential baselines and returns a
:class:`~repro.types.PartitionResult` whose cost summary carries the
simulator's time/work accounting broken down by phase.
"""

from __future__ import annotations

from typing import Optional

from ..pram.machine import Machine, resolve_machine
from ..primitives.integer_sort import SortCostModel
from ..types import PartitionResult
from .cycle_detection import find_cycle_nodes
from .cycle_labeling import check_msp_algorithm, label_cycle_nodes
from .problem import SFCPInstance, canonical_labels, num_blocks
from .tree_labeling import label_tree_nodes


def jaja_ryu_partition(
    function,
    initial_labels,
    *,
    machine: Optional[Machine] = None,
    audit: Optional[bool] = None,
    cost_model: SortCostModel = SortCostModel.CHARGED,
    msp_algorithm: str = "efficient",
) -> PartitionResult:
    """Solve the SFCP instance with the paper's parallel algorithm.

    Parameters
    ----------
    function, initial_labels:
        The instance arrays ``A_f`` (with ``A_f[x] = f(x)``) and ``A_B``
        (equal values = same initial block).
    machine:
        PRAM simulator to charge; a fresh arbitrary-CRCW machine is created
        when omitted (inspect ``result.cost`` for the accounting).
    audit:
        Override for the machine's conflict-auditing flag.  ``audit=False``
        selects the no-audit fast path end-to-end (cost is still charged,
        access patterns are not validated); ``None`` keeps the machine's
        setting.  When a machine is supplied the override runs on a
        span-preserving clone, leaving the caller's machine untouched.
    cost_model:
        Whether the integer sorts charge their published Bhatt et al.
        bound (default) or the operations actually incurred — the E9
        ablation switch.  The other black boxes always charge their
        published bounds: residual-forest labeling, the period adapter
        and the Euler-tour circuit labeling ignore the switch.
    msp_algorithm:
        ``"efficient"`` (default) or ``"simple"`` — which Section 3.1
        algorithm canonises the cycle label strings.  Anything else
        raises :class:`ValueError`.

    Returns
    -------
    PartitionResult
        Canonical Q-labels, the block count, and the cost summary.

    The opening densification of ``A_B`` and the closing renumbering of
    the Q-labels are each charged as one linear-work step.  On the host
    both run :func:`canonical_labels`, which renumbers in O(n) when the
    labels' range is below ``4n``: always for the Q-labels, which lie
    below ``n``, and for ``A_B`` unless its values are sparse.  The two
    Euler-tour builds (steps 1 and 3) each charge a pair sort of their
    arcs, but the host sorts only once, the ``n`` values of ``f``: step 1
    returns that in-arc order and step 3 filters it to the tree arcs.
    """
    check_msp_algorithm(msp_algorithm)
    instance = SFCPInstance.from_arrays(function, initial_labels)
    m = resolve_machine(machine, audit)
    f = instance.function
    n = instance.n

    with m.span("jaja_ryu"):
        # Densify the initial labels so every later addressing step stays in
        # a polynomial range (one O(log n)-round, linear-work re-ranking).
        m.tick(n)
        labels_b = canonical_labels(instance.initial_labels)

        with m.span("step1_find_cycles"):
            detection = find_cycle_nodes(f, machine=m, cost_model=cost_model)

        with m.span("step2_label_cycles"):
            cycles = label_cycle_nodes(
                f,
                labels_b,
                detection.on_cycle,
                detection.cycle_key,
                machine=m,
                cost_model=cost_model,
                msp_algorithm=msp_algorithm,
            )

        with m.span("step3_label_trees"):
            trees = label_tree_nodes(
                f,
                labels_b,
                detection.on_cycle,
                cycles,
                machine=m,
                cost_model=cost_model,
                in_arc_order=detection.in_arc_order,
            )

        m.tick(n)
        labels_q = canonical_labels(trees.q_labels)

    return PartitionResult(
        labels=labels_q,
        num_blocks=num_blocks(labels_q),
        algorithm="jaja-ryu",
        cost=m.counter.summary(),
    )


def coarsest_partition(
    function,
    initial_labels,
    *,
    algorithm: str = "jaja-ryu",
    machine: Optional[Machine] = None,
    audit: Optional[bool] = None,
    **kwargs,
) -> PartitionResult:
    """Dispatch to any of the implemented coarsest-partition algorithms.

    ``algorithm`` is one of ``"jaja-ryu"`` (default), ``"galley-iliopoulos"``,
    ``"srikant"``, ``"naive-parallel"``, ``"paige-tarjan-bonic"``,
    ``"hopcroft"`` or ``"naive"``.  ``audit=False`` selects the no-audit
    fast path on whichever implementation is chosen.  Keyword arguments are
    forwarded to the selected implementation.
    """
    from .baseline_parallel import (
        galley_iliopoulos_partition,
        naive_parallel_partition,
        srikant_partition,
    )
    from .sequential_hopcroft import hopcroft_partition
    from .sequential_linear import linear_partition
    from .sequential_naive import naive_partition

    dispatch = {
        "jaja-ryu": jaja_ryu_partition,
        "galley-iliopoulos": galley_iliopoulos_partition,
        "srikant": srikant_partition,
        "naive-parallel": naive_parallel_partition,
        "paige-tarjan-bonic": linear_partition,
        "hopcroft": hopcroft_partition,
        "naive": naive_partition,
    }
    if algorithm not in dispatch:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {sorted(dispatch)}")
    return dispatch[algorithm](function, initial_labels, machine=machine, audit=audit, **kwargs)
