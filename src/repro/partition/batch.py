"""Batched SFCP solving: many instances through one PRAM machine.

A production deployment of the partition algorithm rarely sees one giant
instance; it sees *streams* of medium instances (one per DFA to minimise,
one per Markov chain to lump).  :func:`solve_batch` packs many instances
into one disjoint-union instance — node ids are offset so the functions
never cross, and initial labels are offset so no initial block spans two
instances — and solves it by a *single* invocation of the selected
algorithm against one :class:`~repro.pram.machine.Machine`, so the whole
batch shares one cost ledger.

This is the PRAM-faithful batching: all instances are refined
simultaneously, the parallel time of the batch is the time of the union
(not the sum), and restricting the union's coarsest partition to one
instance provably gives that instance's own coarsest partition (stability
and signature refinement are component-local).  Per-instance *work*
attribution is the union work shared proportionally to instance size;
per-instance *time* is the batch time (the instances ran concurrently).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import BatchError
from ..pram.machine import Machine, resolve_machine
from ..types import CostSummary, PartitionResult
from .parallel import coarsest_partition
from .problem import SFCPInstance, canonical_labels, num_blocks

InstanceLike = Union[SFCPInstance, Tuple[np.ndarray, np.ndarray]]


class CompatKey(NamedTuple):
    """Hashable key identifying a class of mutually batchable solve calls."""

    algorithm: str
    audit: bool
    params: Tuple[Tuple[str, object], ...]


def batch_compat_key(
    algorithm: str = "jaja-ryu",
    audit: Optional[bool] = None,
    *,
    params: Optional[Mapping[str, object]] = None,
) -> CompatKey:
    """Key under which solve requests may share one :func:`solve_batch` call.

    Two requests can ride in the same batch iff they agree on the algorithm,
    the audit flag and every algorithm keyword argument — the batch runs
    as *one* machine execution, so any of these differing would silently
    apply one request's settings to another.  Schedulers (e.g.
    :mod:`repro.serving`) group queued requests by this key before
    coalescing them.

    ``audit=None`` normalises to ``True`` (the default-machine setting used
    when :func:`solve_batch` builds a fresh machine).
    """
    frozen = tuple(sorted((params or {}).items()))
    return CompatKey(str(algorithm), True if audit is None else bool(audit), frozen)


@dataclass(frozen=True)
class BatchItemReport:
    """Cost attribution for one instance of a batch."""

    index: int
    n: int
    num_blocks: int
    time: int
    work: int
    charged_work: int

    def as_row(self) -> dict:
        return {
            "instance": self.index,
            "n": self.n,
            "blocks": self.num_blocks,
            "time": self.time,
            "work": self.work,
            "charged_work": self.charged_work,
        }


@dataclass
class BatchResult:
    """Result of :func:`solve_batch`.

    ``results[i]`` is the :class:`PartitionResult` of instance ``i`` (its
    ``cost`` holds the per-instance attribution, see the module docstring);
    ``cost`` is the exact aggregate ledger of the whole batch.
    """

    results: List[PartitionResult]
    cost: CostSummary
    per_instance: List[BatchItemReport]
    algorithm: str

    def __len__(self) -> int:
        return len(self.results)

    def as_rows(self) -> List[dict]:
        return [item.as_row() for item in self.per_instance]


def _as_instance(item: InstanceLike) -> SFCPInstance:
    if isinstance(item, SFCPInstance):
        return item
    function, initial_labels = item
    return SFCPInstance.from_arrays(function, initial_labels)


def solve_batch(
    instances: Sequence[InstanceLike],
    *,
    algorithm: str = "jaja-ryu",
    machine: Optional[Machine] = None,
    audit: Optional[bool] = None,
    **kwargs,
) -> BatchResult:
    """Solve many SFCP instances as one packed union through one machine.

    Parameters
    ----------
    instances:
        ``SFCPInstance`` objects or ``(function, initial_labels)`` pairs.
        Must be non-empty: an empty batch indicates a scheduler bug (a
        batcher should never dispatch one) and raises
        :class:`~repro.errors.BatchError`.  A single-instance batch is
        legitimate — it degenerates to one ordinary solve.
    algorithm:
        Any name accepted by :func:`~repro.partition.parallel.coarsest_partition`.
    machine:
        Shared machine to charge; a fresh default machine when omitted.
    audit:
        Conflict-auditing override (``False`` = no-audit fast path for the
        entire batch); ``None`` keeps the machine's setting.  A sequence of
        per-instance flags is accepted for scheduler convenience but they
        must all agree — the batch executes as one machine run, so mixed
        flags raise :class:`~repro.errors.BatchError` (group requests by
        :func:`batch_compat_key` first).
    kwargs:
        Forwarded to the selected algorithm (e.g. ``cost_model``).
    """
    audit = _uniform_audit(audit)
    parsed = [_as_instance(item) for item in instances]
    if not parsed:
        raise BatchError(
            "solve_batch received an empty batch; a batcher must never "
            "dispatch zero instances (coalesce first, then solve)"
        )
    return _solve_packed(parsed, algorithm, resolve_machine(machine, audit), kwargs)


def _uniform_audit(audit) -> Optional[bool]:
    """Collapse a per-instance audit sequence to one flag, rejecting mixes."""
    if audit is None or isinstance(audit, bool):
        return audit
    flags = {bool(flag) for flag in audit if flag is not None}
    if len(flags) > 1:
        raise BatchError(
            "batch mixes audit=True and audit=False instances; a batch runs "
            "as one machine execution and cannot audit only some of them — "
            "group requests by batch_compat_key() before coalescing"
        )
    return flags.pop() if flags else None


def _counter_snapshot(m: Machine) -> Tuple[int, int, int]:
    return (m.counter.time, m.counter.work, m.counter.charged_work)


def _summary_delta(m: Machine, before: CostSummary) -> CostSummary:
    """Cost charged to ``m`` since ``before`` — a shared machine may carry
    charges from earlier batches, which must not leak into this result."""
    now = m.counter.summary()
    spans = {}
    for path, (t, w) in now.spans.items():
        t0, w0 = before.spans.get(path, (0, 0))
        if (t - t0, w - w0) != (0, 0):
            spans[path] = (t - t0, w - w0)
    return CostSummary(
        time=now.time - before.time,
        work=now.work - before.work,
        charged_work=now.charged_work - before.charged_work,
        spans=spans,
    )


def _solve_packed(
    parsed: List[SFCPInstance],
    algorithm: str,
    m: Machine,
    kwargs: dict,
) -> BatchResult:
    before = m.counter.summary()
    sizes = np.array([inst.n for inst in parsed], dtype=np.int64)
    node_offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(node_offsets[-1])

    # Disjoint union: shift node ids per instance; shift initial labels so
    # no initial block crosses an instance boundary (label signatures are
    # then instance-local and blocks can never merge across instances).
    functions = []
    labels = []
    label_offset = 0
    for inst, off in zip(parsed, node_offsets[:-1]):
        functions.append(inst.function + int(off))
        dense = canonical_labels(inst.initial_labels)
        labels.append(dense + label_offset)
        label_offset += int(dense.max()) + 1 if len(dense) else 0
    combined_f = np.concatenate(functions) if functions else np.zeros(0, dtype=np.int64)
    combined_b = np.concatenate(labels) if labels else np.zeros(0, dtype=np.int64)

    t0, w0, c0 = _counter_snapshot(m)
    with m.span("solve_batch"):
        union = coarsest_partition(combined_f, combined_b, algorithm=algorithm, machine=m, **kwargs)
    t1, w1, c1 = _counter_snapshot(m)
    batch_time, batch_work, batch_charged = t1 - t0, w1 - w0, c1 - c0

    results: List[PartitionResult] = []
    reports: List[BatchItemReport] = []
    for i, inst in enumerate(parsed):
        lo, hi = int(node_offsets[i]), int(node_offsets[i + 1])
        slice_labels = canonical_labels(union.labels[lo:hi])
        # Work attribution: proportional share of the union's work (the
        # instances executed concurrently, so each sees the full batch time).
        share = inst.n / total if total else 0.0
        work_share = int(round(batch_work * share))
        charged_share = int(round(batch_charged * share))
        cost = CostSummary(time=batch_time, work=work_share, charged_work=charged_share)
        results.append(
            PartitionResult(
                labels=slice_labels,
                num_blocks=num_blocks(slice_labels),
                algorithm=union.algorithm,
                cost=cost,
            )
        )
        reports.append(
            BatchItemReport(
                index=i,
                n=inst.n,
                num_blocks=results[-1].num_blocks,
                time=batch_time,
                work=work_share,
                charged_work=charged_share,
            )
        )
    return BatchResult(results, _summary_delta(m, before), reports, algorithm)
