"""Cost accounting for the PRAM simulator.

The paper's claims are *counting* claims: an algorithm runs in ``T(n)``
parallel time using ``W(n)`` operations.  On the simulator, every
synchronous parallel step executed by an algorithm is charged through a
:class:`CostCounter`:

* ``time`` increases by the number of rounds charged (usually 1 per
  :meth:`CostCounter.tick`),
* ``work`` increases by the number of processors active in the round.

Phases are tracked with :meth:`CostCounter.span`, which nests, so the
benchmark harness can attribute work to individual sub-algorithms (e.g.
"how much of the total work is due to integer sorting?" — the paper states
that *all* the super-linear work comes from that step, and experiment E9
verifies it).

Cost adapters
-------------

Some substrate routines (notably integer sorting) are used by the paper as
black boxes with *published* bounds that our pure-Python realisation does
not literally achieve round-for-round.  For those the simulator supports
*charged* cost: :meth:`CostCounter.charge_adapter` records both the
incurred cost (what our implementation actually did) and the adapter cost
(what the cited routine is guaranteed to cost).  Reported ``charged_work``
uses the adapter figure where one was supplied and the incurred figure
otherwise, and both are preserved so the substitution is auditable.
"""

from __future__ import annotations

import math
import threading
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import BudgetExceededError
from ..types import CostSummary


@dataclass
class SpanRecord:
    """Cost charged within one labelled phase (exclusive of child spans)."""

    label: str
    time: int = 0
    work: int = 0
    charged_work: int = 0
    ticks: int = 0


@dataclass
class CapturedCost:
    """Cost charged inside one :meth:`CostCounter.capture` block.

    Holds the time/work/charged deltas plus the per-span-path deltas, so
    :meth:`CostCounter.replay` can re-apply the block's exact accounting
    without re-executing the computation.  ``span_path`` records the span
    stack the capture happened under; a replay under a different stack
    would mis-attribute the span deltas, so callers must check it (see
    :func:`repro.primitives.euler_tour._tour_layout`).
    """

    span_path: str = ""
    time: int = 0
    work: int = 0
    charged_extra: int = 0
    spans: List[Tuple[str, int, int, int, int]] = field(default_factory=list)


class SpanWallProfile:
    """Per-span wall-clock aggregated next to the charged PRAM cost.

    Installed by :func:`wall_profiling`; while active, every
    :meth:`CostCounter.span` enter/exit reports to it.  Wall seconds are
    *exclusive* of child spans (matching how ``SpanRecord`` records charged
    cost at the exact nesting path) and are aggregated across every counter
    alive during the profiling window, so concurrent sub-counters (e.g. the
    per-cycle m.s.p. machines) fold into one line per span path.
    """

    def __init__(self) -> None:
        self.spans: Dict[str, Dict[str, object]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _enter(self, path: str, rec: SpanRecord) -> None:
        self._stack().append(
            [_time.perf_counter(), 0.0, rec.time, rec.work, rec.charged_work, path]
        )

    def _open_path(self) -> Optional[str]:
        """Path of the innermost span open on this thread, if any."""
        stack = self._stack()
        return stack[-1][5] if stack else None

    def _exit(self, path: str, rec: SpanRecord) -> None:
        t0, child_wall, time0, work0, charged0, _path = self._stack().pop()
        elapsed = _time.perf_counter() - t0
        if self._stack():
            self._stack()[-1][1] += elapsed
        # The span stack is thread-local but the aggregate is shared, and
        # profiled runs may drive machines from worker threads (e.g. the
        # serving shards) — serialise the read-modify-write.
        with self._lock:
            agg = self.spans.setdefault(
                path,
                {"wall_seconds": 0.0, "time": 0, "work": 0, "charged_work": 0, "calls": 0},
            )
            agg["wall_seconds"] += elapsed - child_wall  # type: ignore[operator]
            agg["time"] += rec.time - time0  # type: ignore[operator]
            agg["work"] += rec.work - work0  # type: ignore[operator]
            agg["charged_work"] += rec.charged_work - charged0  # type: ignore[operator]
            agg["calls"] += 1  # type: ignore[operator]

    def _absorb_replayed(self, captured: "CapturedCost", open_paths: set) -> None:
        """Credit a replayed capture's charged deltas to the span rows.

        Replays (see :meth:`CostCounter.replay`) charge span records
        without the spans ever entering or exiting; the closed paths'
        deltas are folded in here with zero wall seconds so the profile's
        charged columns keep reconciling with the counter's totals.
        """
        with self._lock:
            for path, rounds, work, charged, _ticks in captured.spans:
                if path in open_paths:
                    continue  # flows through that span's own exit diff
                agg = self.spans.setdefault(
                    path,
                    {"wall_seconds": 0.0, "time": 0, "work": 0, "charged_work": 0, "calls": 0},
                )
                agg["time"] += rounds  # type: ignore[operator]
                agg["work"] += work  # type: ignore[operator]
                agg["charged_work"] += charged  # type: ignore[operator]

    def rows(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Span rows sorted by exclusive wall seconds, heaviest first."""
        out = [
            {"span": path, **values}
            for path, values in sorted(
                self.spans.items(), key=lambda kv: -float(kv[1]["wall_seconds"])  # type: ignore[arg-type]
            )
        ]
        return out[:limit] if limit is not None else out


#: The profiler the next `CostCounter.span` reports to (``None`` = off).
_active_wall_profiler: Optional[SpanWallProfile] = None


@contextmanager
def kernel_timing(kernel: str) -> Iterator[None]:
    """Attribute the block's wall seconds to a ``[kernel] <name>`` row.

    Used by :mod:`repro.pram.kernels` so profiled runs show where time
    goes *per host kernel* next to the per-span rows.  The row is a child
    of whatever span is open on this thread: its path is that span's path
    plus ``/[kernel] <name>`` (plain ``[kernel] <name>`` when none is
    open), and its seconds are excluded from the enclosing span's
    exclusive time, so a span's rows sum to its wall time.  It charges
    nothing — kernels run under the cost adapter, so their charged
    columns are always zero.  Zero overhead when profiling is off.
    """
    profiler = _active_wall_profiler
    if profiler is None:
        yield
        return
    parent = profiler._open_path()
    path = f"[kernel] {kernel}" if parent is None else f"{parent}/[kernel] {kernel}"
    record = SpanRecord(path)
    profiler._enter(path, record)
    try:
        yield
    finally:
        profiler._exit(path, record)


@contextmanager
def wall_profiling() -> Iterator[SpanWallProfile]:
    """Collect per-span wall seconds for every counter used in the block.

    Zero overhead when not active (a single ``None`` check per span).  The
    yielded :class:`SpanWallProfile` keeps accumulating until the block
    exits; nesting restores the previous profiler.
    """
    global _active_wall_profiler
    profile = SpanWallProfile()
    previous = _active_wall_profiler
    _active_wall_profiler = profile
    try:
        yield profile
    finally:
        _active_wall_profiler = previous


class CostCounter:
    """Accumulates parallel time and work for a simulated PRAM execution.

    Parameters
    ----------
    time_budget, work_budget:
        Optional hard limits.  Exceeding either raises
        :class:`~repro.errors.BudgetExceededError`; tests use this to turn
        asymptotic claims into assertions.

    Notes
    -----
    The counter is deliberately independent of the memory model: the
    :class:`~repro.pram.machine.Machine` charges it, but algorithms that
    only need counting (not conflict auditing) may use a bare counter.
    """

    def __init__(
        self,
        *,
        time_budget: Optional[int] = None,
        work_budget: Optional[int] = None,
    ) -> None:
        self._time = 0
        self._work = 0
        self._charged_extra = 0  # charged_work = work + charged_extra
        self.time_budget = time_budget
        self.work_budget = work_budget
        self._span_stack: List[str] = []
        self._spans: Dict[str, SpanRecord] = {}

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def time(self) -> int:
        """Parallel time charged so far (number of synchronous rounds)."""
        return self._time

    @property
    def work(self) -> int:
        """Total operations charged so far (incurred)."""
        return self._work

    @property
    def charged_work(self) -> int:
        """Work after substituting adapter (published-bound) figures."""
        return self._work + self._charged_extra

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    def tick(self, work: int, *, rounds: int = 1, label: Optional[str] = None) -> None:
        """Charge ``rounds`` parallel steps with ``work`` total operations.

        ``work`` is the number of processor-operations across all the
        charged rounds (for a single round it is simply the number of
        active processors).  ``work`` may be zero (a synchronisation-only
        round); negative values are rejected.
        """
        if work < 0 or rounds < 0:
            raise ValueError("work and rounds must be non-negative")
        self._time += rounds
        self._work += work
        self._record_span(rounds, work, work)
        if label is not None:
            rec = self._spans.setdefault(label, SpanRecord(label))
            rec.ticks += 1
        self._check_budget()

    def charge_tree(self, n: int, *, label: Optional[str] = None) -> None:
        """Charge one balanced-binary-tree sweep over ``n`` items in O(1).

        Closed form of the classic up-sweep (or down-sweep) schedule in
        which the number of active processors halves (or doubles) each
        round: ``ceil(log2 n)`` rounds and exactly ``n - 1`` operations —
        each round pairs off the surviving items, so the total work is the
        number of eliminations.  This is arithmetically identical to
        looping ``level = n; while level > 1: tick(level // 2); level =
        ceil(level / 2)`` (and to the mirrored doubling loop), without the
        O(log n) Python iterations.  ``n <= 1`` charges nothing, matching
        the loops it replaces.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if n > 1:
            self.tick(n - 1, rounds=(n - 1).bit_length(), label=label)

    def charge_rounds(
        self, work_per_round: int, rounds: int, *, label: Optional[str] = None
    ) -> None:
        """Charge ``rounds`` synchronous rounds of ``work_per_round`` each.

        Closed form of ``for _ in range(rounds): tick(work_per_round)`` —
        total work is ``work_per_round * rounds``.  Used by loops whose
        per-round processor count is constant (pointer doubling, repeated
        squaring), so the accounting is one call instead of O(log n) ticks.
        """
        if work_per_round < 0 or rounds < 0:
            raise ValueError("work and rounds must be non-negative")
        if rounds:
            self.tick(work_per_round * rounds, rounds=rounds, label=label)

    def charge_adapter(
        self,
        *,
        incurred_work: int,
        incurred_rounds: int,
        charged_work: int,
        charged_rounds: int,
        label: str,
    ) -> None:
        """Charge a black-box routine with separate incurred/published cost.

        ``incurred_*`` is what our realisation of the routine actually did;
        ``charged_*`` is the published bound of the routine the paper cites
        (e.g. Bhatt et al. integer sorting).  Time is charged at the
        *published* round count (the routine is assumed to be used as-is on
        a real CRCW PRAM); work is recorded both ways.
        """
        if min(incurred_work, incurred_rounds, charged_work, charged_rounds) < 0:
            raise ValueError("costs must be non-negative")
        self._time += charged_rounds
        self._work += incurred_work
        self._charged_extra += charged_work - incurred_work
        self._record_span(charged_rounds, incurred_work, charged_work)
        rec = self._spans.setdefault(label, SpanRecord(label))
        rec.ticks += 1
        self._check_budget()

    def absorb_concurrent(self, counters: "list[CostCounter]") -> None:
        """Merge independent sub-computations that ran *concurrently*.

        The PRAM executes independent subproblems side by side, so the
        parallel time of the merged execution is the maximum of the
        sub-times while the work is the sum.  Used e.g. when the cycle
        labelling runs one m.s.p. computation per cycle simultaneously.
        """
        if not counters:
            return
        self.charge_concurrent(
            time=max(c.time for c in counters),
            work=sum(c.work for c in counters),
            charged_work=sum(c.charged_work for c in counters),
        )

    def charge_concurrent(self, *, time: int, work: int, charged_work: int) -> None:
        """Charge concurrent sub-computations from their combined figures.

        ``time`` is the maximum of the sub-times, ``work`` and
        ``charged_work`` the sums — what :meth:`absorb_concurrent` derives
        from sub-counters, for callers that compute each sub-computation's
        cost in closed form instead of running it on a counter of its own.
        """
        self._time += time
        self._work += work
        self._charged_extra += charged_work - work
        self._record_span(time, work, charged_work)
        self._check_budget()

    @contextmanager
    def capture(self) -> Iterator[CapturedCost]:
        """Record every charge made inside the block for later :meth:`replay`.

        Deterministic sub-computations that are executed once but *charged*
        every time they are (logically) repeated — e.g. the tour layout
        shared by the two weighted-level passes of tree labeling — capture
        their accounting on first execution and replay it on reuse, so the
        counters, span records and adapter figures stay byte-identical to
        actually re-running the computation.
        """
        captured = CapturedCost(span_path="/".join(self._span_stack))
        time0, work0, charged0 = self._time, self._work, self._charged_extra
        spans0 = {
            path: (rec.time, rec.work, rec.charged_work, rec.ticks)
            for path, rec in self._spans.items()
        }
        try:
            yield captured
        finally:
            captured.time = self._time - time0
            captured.work = self._work - work0
            captured.charged_extra = self._charged_extra - charged0
            for path, rec in self._spans.items():
                t0, w0, c0, k0 = spans0.get(path, (0, 0, 0, 0))
                delta = (rec.time - t0, rec.work - w0, rec.charged_work - c0, rec.ticks - k0)
                if any(delta):
                    captured.spans.append((path, *delta))

    def replay(self, captured: CapturedCost) -> None:
        """Re-apply a :meth:`capture` block's accounting without re-executing it."""
        self._time += captured.time
        self._work += captured.work
        self._charged_extra += captured.charged_extra
        for path, rounds, work, charged, ticks in captured.spans:
            rec = self._spans.setdefault(path, SpanRecord(path))
            rec.time += rounds
            rec.work += work
            rec.charged_work += charged
            rec.ticks += ticks
        profiler = _active_wall_profiler
        if profiler is not None:
            # Keep the wall profile's charged columns reconciled with the
            # counter: replayed child spans never enter/exit, so their
            # deltas are absorbed directly (zero wall — nothing ran).
            # Deltas at currently-open paths flow through those spans'
            # ordinary exit diffs and must not be double-counted here.
            open_paths = {
                "/".join(self._span_stack[: depth + 1])
                for depth in range(len(self._span_stack))
            }
            profiler._absorb_replayed(captured, open_paths)
        self._check_budget()

    def _record_span(self, rounds: int, work: int, charged: int) -> None:
        if not self._span_stack:
            return
        path = "/".join(self._span_stack)
        rec = self._spans.setdefault(path, SpanRecord(path))
        rec.time += rounds
        rec.work += work
        rec.charged_work += charged

    def _check_budget(self) -> None:
        if self.work_budget is not None and self._work > self.work_budget:
            raise BudgetExceededError(
                f"work budget exceeded: {self._work} > {self.work_budget}",
                work=self._work,
                time=self._time,
            )
        if self.time_budget is not None and self._time > self.time_budget:
            raise BudgetExceededError(
                f"time budget exceeded: {self._time} > {self.time_budget}",
                work=self._work,
                time=self._time,
            )

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, label: str) -> Iterator[SpanRecord]:
        """Attribute all cost charged inside the ``with`` block to ``label``.

        Spans nest; nested labels are joined with ``/`` in the summary.
        The yielded :class:`SpanRecord` reflects only the cost charged at
        this exact nesting path (it keeps updating until the block exits).
        """
        self._span_stack.append(label)
        path = "/".join(self._span_stack)
        rec = self._spans.setdefault(path, SpanRecord(path))
        profiler = _active_wall_profiler
        if profiler is not None:
            profiler._enter(path, rec)
        try:
            yield rec
        finally:
            popped = self._span_stack.pop()
            assert popped == label
            if profiler is not None:
                profiler._exit(path, rec)

    def span_cost(self, path: str) -> Tuple[int, int]:
        """Return ``(time, work)`` charged at span ``path`` (exact match)."""
        rec = self._spans.get(path)
        if rec is None:
            return (0, 0)
        return (rec.time, rec.work)

    def span_cost_prefix(self, prefix: str) -> Tuple[int, int]:
        """Return total ``(time, work)`` over all spans whose path starts
        with ``prefix`` (so nested children are included)."""
        t = w = 0
        for path, rec in self._spans.items():
            if path == prefix or path.startswith(prefix + "/"):
                t += rec.time
                w += rec.work
        return (t, w)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def summary(self) -> CostSummary:
        """Return an immutable flat snapshot of the current accounting."""
        return CostSummary(
            time=self._time,
            work=self._work,
            charged_work=self.charged_work,
            spans={p: (r.time, r.work) for p, r in self._spans.items()},
        )

    def reset(self) -> None:
        """Zero all counters and spans (budgets are retained)."""
        self._time = 0
        self._work = 0
        self._charged_extra = 0
        self._span_stack.clear()
        self._spans.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CostCounter(time={self._time}, work={self._work}, "
            f"charged_work={self.charged_work}, spans={len(self._spans)})"
        )


# ----------------------------------------------------------------------
# published-bound helpers
# ----------------------------------------------------------------------
def loglog_work_bound(n: int, constant: float = 1.0) -> int:
    """Published work bound ``c * n * log2(log2(n))`` (>= n), rounded up.

    Used by cost adapters for routines with an ``O(n log log n)`` bound
    (Bhatt et al. integer sorting, and the paper's own headline bound).
    For tiny ``n`` where ``log log n`` would be <= 1 the bound degrades
    gracefully to ``c * n``.
    """
    if n <= 0:
        return 0
    ll = math.log2(max(2.0, math.log2(max(2.0, float(n)))))
    return int(math.ceil(constant * n * max(1.0, ll)))


def log_work_bound(n: int, constant: float = 1.0) -> int:
    """Published work bound ``c * n * log2(n)`` (>= n), rounded up."""
    if n <= 0:
        return 0
    return int(math.ceil(constant * n * max(1.0, math.log2(max(2.0, float(n))))))


def log_time_bound(n: int, constant: float = 1.0) -> int:
    """Published time bound ``c * log2(n)`` (>= 1), rounded up."""
    if n <= 0:
        return 0
    return int(math.ceil(constant * max(1.0, math.log2(max(2.0, float(n))))))


def sort_time_bound_bhatt(n: int, constant: float = 1.0) -> int:
    """Time bound of Bhatt et al. integer sorting: ``c * log n / log log n``."""
    if n <= 0:
        return 0
    lg = max(2.0, math.log2(max(2.0, float(n))))
    llg = max(1.0, math.log2(lg))
    return int(math.ceil(constant * lg / llg))
