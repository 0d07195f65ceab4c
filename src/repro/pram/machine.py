"""The PRAM machine: step-synchronous bulk operations with cost accounting.

Algorithms in this library are written in the *data-parallel bulk* style:
each synchronous PRAM step is expressed as one (or a few) vectorised NumPy
operations over the set of active processors, executed through a
:class:`Machine`.  The machine

* charges the step to its :class:`~repro.pram.metrics.CostCounter`
  (``time += 1``, ``work += number of active processors``),
* validates the access pattern against the selected
  :class:`~repro.pram.models.PramModel` (EREW / CREW / common CRCW /
  arbitrary CRCW), and
* resolves concurrent writes according to the model's winner policy.

This gives exactly the quantities the paper's theorems are about — the
number of synchronous rounds and the total number of operations — while the
actual execution happens on vectorised NumPy kernels (see the HPC guides:
vectorise the inner loops, count cost explicitly, never rely on Python-level
loops for the hot path).

The machine is intentionally *not* a byte-level CPU simulator.  It trusts
the algorithm to decompose itself into legitimate O(1)-per-processor steps
and audits only the memory access pattern; the decomposition is itself
exercised by the unit tests of each primitive.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Union

import numpy as np

from .kernels import grouped_sort, winner_positions
from .memory import SharedArray, SparseTable
from .metrics import CostCounter
from .models import ArbitraryWinner, PramModel, arbitrary_crcw

ArrayLike = Union[SharedArray, np.ndarray]


def resolve_machine(machine: "Optional[Machine]", audit: Optional[bool] = None) -> "Machine":
    """Return the machine an entry point should run on.

    ``machine=None`` yields a fresh default machine with the requested
    ``audit`` setting (auditing on when ``audit`` is ``None``); an explicit
    machine is returned as-is unless ``audit`` differs from its flag, in
    which case a span-preserving clone with the override is returned.
    """
    if machine is None:
        return Machine.default(audit=True if audit is None else audit)
    return machine.resolve(audit)


def _data(arr: ArrayLike) -> np.ndarray:
    return arr.data if isinstance(arr, SharedArray) else arr


def _as_index_array(indices) -> np.ndarray:
    """``indices`` as int64, without copying when it already is int64."""
    if isinstance(indices, np.ndarray) and indices.dtype == np.int64:
        return indices
    return np.asarray(indices, dtype=np.int64)


_INT64_MAX = 2**63 - 1


def _encode_pairs(ka: np.ndarray, kb: np.ndarray) -> "tuple[np.ndarray, int, int]":
    """Flatten pair addresses ``(ka, kb)`` into ``ka * span + kb``.

    Validates that the keys are non-negative and that the flat encoding
    fits in int64 — silent wrap-around would alias distinct ``BB``-table
    cells and corrupt the arbitrary-CRCW winner resolution.  The check is
    done in Python integers, which do not overflow.

    Returns ``(flat, span, key_bound)``; ``key_bound`` is an exclusive
    upper bound on the flat keys, handed to the radix sort kernel so the
    grouping sorts below run in O(n).
    """
    ka_max = int(ka.max())
    kb_min = int(kb.min())
    ka_min = int(ka.min())
    span = int(kb.max()) + 1
    if ka_min < 0 or kb_min < 0:
        raise ValueError(
            f"pair keys must be non-negative (got min keys_a={ka_min}, "
            f"min keys_b={kb_min}); negative keys would alias table cells"
        )
    if ka_max * span + (span - 1) > _INT64_MAX:
        raise ValueError(
            f"pair encoding overflows int64: max(keys_a)={ka_max} with "
            f"span={span} needs {ka_max * span + span - 1} > 2**63-1; "
            "re-rank the keys into a denser range first"
        )
    return ka * span + kb, span, ka_max * span + span


class Machine:
    """A simulated PRAM with a fixed memory model and a cost counter.

    Parameters
    ----------
    model:
        The PRAM variant to audit against; defaults to the arbitrary CRCW
        machine used by the paper's Theorem 5.1.
    counter:
        Cost counter to charge; a fresh one is created when omitted.
    seed:
        Seed for the random winner policy (and any randomised primitives).
    audit:
        When ``False`` conflict checking is skipped (cost is still
        charged).  Auditing costs extra Python/NumPy time; benchmarks that
        only need counts may disable it, correctness tests keep it on.

    Every sort the machine and the integer-sort primitives run goes
    through the host kernels of :mod:`repro.pram.kernels`, which never
    change results or charged cost — only wall-clock.
    """

    def __init__(
        self,
        model: Optional[PramModel] = None,
        *,
        counter: Optional[CostCounter] = None,
        seed: int = 0,
        audit: bool = True,
    ) -> None:
        self.model = model if model is not None else arbitrary_crcw()
        self.counter = counter if counter is not None else CostCounter()
        self.rng = np.random.default_rng(seed)
        self.audit = audit

    # ------------------------------------------------------------------
    # constructors / conveniences
    # ------------------------------------------------------------------
    @classmethod
    def default(cls, **kwargs) -> "Machine":
        """An arbitrary-CRCW machine with default settings."""
        return cls(arbitrary_crcw(), **kwargs)

    def clone_for(self, model: PramModel, *, audit: Optional[bool] = None) -> "Machine":
        """A machine sharing this machine's counter but a different model.

        The clone charges the *same* :class:`CostCounter`, so any open
        span stack is preserved: cost charged through the clone keeps
        accruing to the caller's current phase.  It also shares this
        machine's random generator, so seeded RANDOM-winner draws continue
        the caller's stream instead of restarting at the default seed.
        ``audit`` overrides the conflict-checking flag for the clone
        (inherited when ``None``), which is how the no-audit fast path is
        threaded through algorithms without mutating the caller's machine.
        """
        clone = Machine(
            model,
            counter=self.counter,
            audit=self.audit if audit is None else audit,
        )
        clone.rng = self.rng
        return clone

    def with_winner(self, winner: ArbitraryWinner) -> "Machine":
        """A machine identical to this one but with a different write winner."""
        return Machine(self.model.with_winner(winner), counter=self.counter, audit=self.audit)

    # ------------------------------------------------------------------
    # memory allocation
    # ------------------------------------------------------------------
    def alloc(self, n: int, fill: int = 0, *, name: str = "mem", dtype=np.int64) -> SharedArray:
        """Allocate a shared array of ``n`` cells initialised to ``fill``.

        Allocation itself is free in the PRAM model (memory is given, and
        given zeroed); the *initialisation* is charged as one parallel step
        of ``n`` work only when ``fill`` is non-trivial (non-zero), matching
        how the algorithms in the paper count their initialisation loops —
        a zero-filled array needs no processor to touch it.
        """
        data = np.full(n, fill, dtype=dtype)
        if n and fill != 0:
            self.counter.tick(n)
        return SharedArray(name, data)

    def sparse_table(self, name: str = "BB", *, dense_shape=None) -> SparseTable:
        """Allocate a (sparse) concurrent-write pair table — see DESIGN §2."""
        return SparseTable(name, dense_shape=dense_shape)

    # ------------------------------------------------------------------
    # charging helpers
    # ------------------------------------------------------------------
    def tick(self, work: int, *, rounds: int = 1) -> None:
        """Charge a step performed outside read/write (pure computation)."""
        self.counter.tick(work, rounds=rounds)

    def charge_tree(self, n: int) -> None:
        """Charge one balanced-tree sweep over ``n`` items in O(1) —
        see :meth:`CostCounter.charge_tree`."""
        self.counter.charge_tree(n)

    def charge_rounds(self, work_per_round: int, rounds: int) -> None:
        """Charge ``rounds`` rounds of ``work_per_round`` each in O(1) —
        see :meth:`CostCounter.charge_rounds`."""
        self.counter.charge_rounds(work_per_round, rounds)

    @contextmanager
    def span(self, label: str) -> Iterator[None]:
        """Attribute all cost charged in the block to phase ``label``."""
        with self.counter.span(label):
            yield

    @property
    def time(self) -> int:
        return self.counter.time

    @property
    def work(self) -> int:
        return self.counter.work

    # ------------------------------------------------------------------
    # synchronous bulk memory operations
    # ------------------------------------------------------------------
    def read(self, array: ArrayLike, indices: np.ndarray, *, charge: bool = True) -> np.ndarray:
        """Processor ``i`` reads ``array[indices[i]]`` — one synchronous step.

        Returns the gathered values.  On an exclusive-read machine,
        duplicate indices raise :class:`~repro.errors.ConcurrentReadError`.
        """
        data = _data(array)
        idx = _as_index_array(indices)
        if self.audit:
            self.model.read.check(idx)
        if charge:
            self.counter.tick(len(idx))
        return data[idx]

    def write(
        self,
        array: ArrayLike,
        indices: np.ndarray,
        values: Union[np.ndarray, int],
        *,
        charge: bool = True,
    ) -> None:
        """Processor ``i`` writes ``values[i]`` to ``array[indices[i]]``.

        Concurrent writes are resolved by the machine's model: rejected on
        EREW/CREW, required to agree on common CRCW, and reduced to an
        arbitrary winner on arbitrary CRCW.
        """
        data = _data(array)
        idx = _as_index_array(indices)
        if (
            isinstance(values, np.ndarray)
            and values.shape == idx.shape
            and values.dtype == data.dtype
        ):
            # Fast path: the common case of an aligned same-dtype value
            # array skips the broadcast/astype round-trip entirely.
            vals = values
        else:
            vals = np.broadcast_to(np.asarray(values), idx.shape).astype(data.dtype, copy=False)
        if charge:
            self.counter.tick(len(idx))
        if len(idx) == 0:
            return
        if self.audit:
            uniq, winners = self.model.write.resolve(idx, vals, rng=self.rng)
            data[uniq] = winners
        else:
            winner = self.model.write.winner
            if winner is ArbitraryWinner.FIRST:
                # Later duplicate indices must not overwrite earlier ones, so
                # reverse before scatter (NumPy keeps the last assignment per
                # duplicate index).
                data[idx[::-1]] = vals[::-1]
            elif winner is ArbitraryWinner.LAST:
                data[idx] = vals
            else:
                # RANDOM needs the grouped resolution anyway; reuse it (the
                # fast path only skips validation, not winner semantics).
                uniq, winners = self.model.write.resolve(idx, vals, rng=self.rng)
                data[uniq] = winners

    def concurrent_write_pairs(
        self,
        table: SparseTable,
        keys_a: np.ndarray,
        keys_b: np.ndarray,
        values: np.ndarray,
        *,
        charge: bool = True,
    ) -> None:
        """Arbitrary-CRCW simultaneous write into a pair-addressed table.

        This is the core of the paper's Algorithm *partition*: processor
        ``i`` writes ``values[i]`` into cell ``(keys_a[i], keys_b[i])`` of
        the ``BB`` table; exactly one writer per cell survives.
        """
        ka = np.asarray(keys_a, dtype=np.int64)
        kb = np.asarray(keys_b, dtype=np.int64)
        vals = np.asarray(values, dtype=np.int64)
        if not (len(ka) == len(kb) == len(vals)):
            raise ValueError("keys_a, keys_b and values must have equal length")
        if charge:
            self.counter.tick(len(ka))
        if len(ka) == 0:
            return
        flat, span, key_bound = _encode_pairs(ka, kb)
        winner = self.model.write.winner
        if not self.audit and winner in (ArbitraryWinner.FIRST, ArbitraryWinner.LAST):
            # Unaudited fast path: skip the model's conflict validation;
            # the stable grouping sort makes winner selection positional.
            order, sorted_flat, starts, _ = grouped_sort(flat, key_bound)
            uniq = sorted_flat[starts]
            survivors = winner_positions(
                starts, len(flat), first=winner is ArbitraryWinner.FIRST
            )
            winners = vals[order[survivors]]
        else:
            # Audited, or RANDOM winner (which needs grouped resolution —
            # the fast path must not change winner semantics, only skip
            # validation).
            uniq, winners = self.model.write.resolve(flat, vals, rng=self.rng)
        table.store(uniq // span, uniq % span, winners)

    def concurrent_read_pairs(
        self,
        table: SparseTable,
        keys_a: np.ndarray,
        keys_b: np.ndarray,
        *,
        default: int = -1,
        charge: bool = True,
    ) -> np.ndarray:
        """Concurrent read back from a pair-addressed table (one step)."""
        ka = np.asarray(keys_a, dtype=np.int64)
        kb = np.asarray(keys_b, dtype=np.int64)
        if charge:
            self.counter.tick(len(ka))
        if self.audit and not self.model.read.allow_concurrent and len(ka) > 1:
            flat, _span, _bound = _encode_pairs(ka, kb)
            self.model.read.check(flat)
        return table.load(ka, kb, default=default)

    # ------------------------------------------------------------------
    # common fused bulk steps (each counts as O(1) parallel rounds)
    # ------------------------------------------------------------------
    def concurrent_combine_pairs(
        self,
        table: SparseTable,
        keys_a: np.ndarray,
        keys_b: np.ndarray,
        values: np.ndarray,
        *,
        charge: bool = True,
    ) -> np.ndarray:
        """Fused pair write + read-back: the BB-table doubling step.

        Equivalent to :meth:`concurrent_write_pairs` immediately followed by
        :meth:`concurrent_read_pairs` of the *same* key pairs — the shape of
        every doubling round of the paper's Algorithm *partition* — with
        identical charging (two rounds of ``len(keys)`` work) and identical
        auditing, but without rebuilding and binary-searching the table's
        sorted key map: the winner of each cell is scattered straight back
        to its writers.  The winners are still stored into ``table``, so
        later reads and the space audit observe exactly the same cells.
        """
        ka = np.asarray(keys_a, dtype=np.int64)
        kb = np.asarray(keys_b, dtype=np.int64)
        vals = np.asarray(values, dtype=np.int64)
        if not (len(ka) == len(kb) == len(vals)):
            raise ValueError("keys_a, keys_b and values must have equal length")
        if charge:
            # one concurrent-write round plus one concurrent-read round
            self.counter.tick(2 * len(ka), rounds=2)
        if len(ka) == 0:
            return np.empty(0, dtype=np.int64)
        flat, span, key_bound = _encode_pairs(ka, kb)
        winner = self.model.write.winner
        needs_resolve = winner is ArbitraryWinner.RANDOM or (
            self.audit
            and (
                not self.model.write.allow_concurrent
                or self.model.write.require_common_value
            )
        )
        if needs_resolve:
            # Validation (or grouped RANDOM selection) goes through the
            # model exactly as the unfused write does — and before the read
            # check, matching the unfused write-then-read error order.
            uniq, winners = self.model.write.resolve(flat, vals, rng=self.rng)
            if self.audit and not self.model.read.allow_concurrent and len(ka) > 1:
                self.model.read.check(flat)
            out = winners[np.searchsorted(uniq, flat)]
        else:
            if self.audit and not self.model.read.allow_concurrent and len(ka) > 1:
                self.model.read.check(flat)
            order, sorted_flat, starts, is_first = grouped_sort(flat, key_bound)
            uniq = sorted_flat[starts]
            survivors = winner_positions(
                starts, len(flat), first=winner is ArbitraryWinner.FIRST
            )
            winners = vals[order[survivors]]
            group_of_sorted = np.cumsum(is_first) - 1
            inverse = np.empty(len(flat), dtype=np.int64)
            inverse[order] = group_of_sorted
            out = winners[inverse]
        table.store(uniq // span, uniq % span, winners, copy=False)
        return out

    def map(self, func, *arrays: np.ndarray, rounds: int = 1) -> np.ndarray:
        """Apply an elementwise (vectorised) ``func`` — one step, |array| work.

        ``func`` must be a NumPy-vectorised callable of the given arrays;
        the machine charges one round with work equal to the length of the
        first array.  This models "each processor applies an O(1) local
        computation to its element".
        """
        if not arrays:
            raise ValueError("map requires at least one array")
        n = len(_data(arrays[0]))
        self.counter.tick(n, rounds=rounds)
        return func(*[_data(a) for a in arrays])

    def resolve(self, audit: Optional[bool]) -> "Machine":
        """This machine, or a span-preserving clone with ``audit`` overridden.

        Entry points that accept both a caller-supplied machine and an
        ``audit`` flag use this to honour the flag without mutating the
        caller's machine: ``None`` (or a matching flag) returns ``self``
        unchanged, a differing flag returns :meth:`clone_for` of the same
        model with the requested auditing — the clone shares the counter,
        so open spans keep attributing cost correctly.
        """
        if audit is None or audit == self.audit:
            return self
        return self.clone_for(self.model, audit=audit)
