"""Shared-memory abstractions for the PRAM simulator.

Two shared-memory containers are provided:

* :class:`SharedArray` — a dense NumPy-backed array of cells, used for all
  the ordinary working arrays of the algorithms.
* :class:`SparseTable` — a dictionary-backed two-dimensional table used to
  realise the paper's ``BB[1..n, 1..n]`` arbitrary-CRCW encoding table
  without allocating :math:`O(n^2)` memory (see DESIGN.md §2 for why this
  substitution is faithful: only :math:`O(n)` cells are touched per round,
  and the dense table exists only to give each pair of codes a unique
  address).

Both containers route every batched access through the machine's
:class:`~repro.pram.models.PramModel`, so illegal concurrent accesses are
detected, and charge the machine's :class:`~repro.pram.metrics.CostCounter`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .kernels import sort_indices


class SharedArray:
    """A dense array of shared-memory cells owned by a :class:`Machine`.

    The array is intentionally a thin wrapper over ``numpy.ndarray``; the
    interesting behaviour (conflict checks, cost charging) lives in the
    machine's batched ``read``/``write`` operations, which accept either a
    ``SharedArray`` or a raw ndarray.  Keeping a named wrapper still pays
    off for diagnostics (conflict errors can say *which* array) and for
    preventing accidental aliasing bugs in algorithm code.
    """

    __slots__ = ("name", "data")

    def __init__(self, name: str, data: np.ndarray) -> None:
        self.name = name
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, idx):
        return self.data[idx]

    def __setitem__(self, idx, value) -> None:
        self.data[idx] = value

    def copy(self) -> "SharedArray":
        return SharedArray(self.name, self.data.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedArray({self.name!r}, n={len(self.data)}, dtype={self.data.dtype})"


_INT64_MAX = 2**63 - 1


class SparseTable:
    """Sparse realisation of the paper's ``BB`` concurrent-write table.

    The table maps a *pair* of integer codes ``(a, b)`` to a value.  In the
    paper each pair addresses a distinct cell of an ``n x n`` array so that
    an arbitrary-CRCW simultaneous write leaves exactly one winner per
    pair; reading the cell back gives every processor holding that pair the
    same (arbitrary) representative value.

    The sparse table reproduces those semantics with a NumPy-backed map:
    pairs are flattened to ``a * span + b`` (``span`` grows to cover the
    widest ``b`` ever stored) and kept as a sorted array of unique flat
    keys alongside their values.  Stores append to a pending buffer and are
    merged lazily — one vectorised stable sort per store→load transition —
    so both :meth:`store` and :meth:`load` run without per-key Python loops
    (the dict loops they replace dominated the unaudited solve profile).
    A dense NumPy backing is optionally available (``dense_shape``) so
    tests can verify the two behave identically on small instances.
    """

    def __init__(self, name: str = "BB", *, dense_shape: Optional[Tuple[int, int]] = None) -> None:
        self.name = name
        self._flat = np.empty(0, dtype=np.int64)  # sorted unique flat keys
        self._vals = np.empty(0, dtype=np.int64)  # values aligned with _flat
        self._span = 1  # flat = a * span + b, with every stored b < span
        self._max_a = -1
        self._pending: list = []  # [(keys_a, keys_b, values), ...] int64 copies
        self._dense: Optional[np.ndarray] = None
        if dense_shape is not None:
            rows, cols = dense_shape
            if rows < 0 or cols < 0:
                raise ValueError("dense_shape must be non-negative")
            self._dense = np.full((rows, cols), -1, dtype=np.int64)

    # The machine performs conflict resolution before calling these, so the
    # methods below see at most one write per key per step.
    def store(
        self,
        keys_a: np.ndarray,
        keys_b: np.ndarray,
        values: np.ndarray,
        *,
        copy: bool = True,
    ) -> None:
        """Store winner ``values`` at the given (already de-duplicated) keys.

        ``copy=False`` hands ownership of the arrays to the table (no
        defensive copies); the machine uses it for arrays it freshly
        computed during winner resolution and never touches again.
        """
        if self._dense is not None:
            self._dense[keys_a, keys_b] = values
        if len(keys_a) == 0:
            return
        ka = np.asarray(keys_a, dtype=np.int64)
        kb = np.asarray(keys_b, dtype=np.int64)
        vals = np.asarray(values, dtype=np.int64)
        if copy:
            ka, kb, vals = ka.copy(), kb.copy(), vals.copy()
        self._pending.append((ka, kb, vals))

    def _commit(self) -> None:
        """Merge pending stores into the sorted map (later stores win)."""
        if not self._pending:
            return
        span = max(self._span, max(int(kb.max()) + 1 for _, kb, _ in self._pending))
        max_a = max(self._max_a, max(int(ka.max()) for ka, _, _ in self._pending))
        if max_a >= 0 and max_a * span + (span - 1) > _INT64_MAX:
            raise ValueError(
                f"pair encoding overflows int64: max(keys_a)={max_a} with "
                f"span={span}; re-rank the keys into a denser range first"
            )
        if span != self._span and len(self._flat):
            # widen the flat encoding of already-committed keys
            self._flat = (self._flat // self._span) * span + (self._flat % self._span)
        self._span = span
        self._max_a = max_a
        key_bound = max_a * span + span if max_a >= 0 else 1
        flats = [ka * span + kb for ka, kb, _ in self._pending]
        vals = [v for _, _, v in self._pending]
        self._pending.clear()
        new_flat = np.concatenate(flats) if len(flats) > 1 else flats[0]
        new_vals = np.concatenate(vals) if len(vals) > 1 else vals[0]
        # Stable sort (via the O(n) radix kernel — the key bound is known)
        # keeps insertion order within equal keys; the last occurrence of a
        # key is therefore the latest store — it wins.
        order = sort_indices(new_flat, key_bound)
        sf, sv = new_flat[order], new_vals[order]
        keep = np.append(sf[1:] != sf[:-1], True)
        sf, sv = sf[keep], sv[keep]
        if len(self._flat) == 0:
            self._flat, self._vals = sf, sv
        elif sf[0] > self._flat[-1]:
            # Append fast path: doubling rounds address disjoint, increasing
            # key ranges, so the already-sorted map need not be rebuilt —
            # the new chunk concatenates onto it.
            self._flat = np.concatenate([self._flat, sf])
            self._vals = np.concatenate([self._vals, sv])
        else:
            all_flat = np.concatenate([self._flat, sf])
            all_vals = np.concatenate([self._vals, sv])
            order = sort_indices(all_flat, key_bound)
            af, av = all_flat[order], all_vals[order]
            keep = np.append(af[1:] != af[:-1], True)
            self._flat, self._vals = af[keep], av[keep]

    def load(self, keys_a: np.ndarray, keys_b: np.ndarray, default: int = -1) -> np.ndarray:
        """Read the values stored at each key pair (vectorised binary search)."""
        self._commit()
        ka = np.asarray(keys_a, dtype=np.int64)
        kb = np.asarray(keys_b, dtype=np.int64)
        out = np.full(len(ka), default, dtype=np.int64)
        if len(self._flat) == 0 or len(ka) == 0:
            return out
        # Keys outside the stored ranges cannot be present (and encoding
        # them could overflow), so look up only the candidates.
        candidate = (ka >= 0) & (ka <= self._max_a) & (kb >= 0) & (kb < self._span)
        flat = ka[candidate] * self._span + kb[candidate]
        pos = np.minimum(np.searchsorted(self._flat, flat), len(self._flat) - 1)
        hit = self._flat[pos] == flat
        out[candidate] = np.where(hit, self._vals[pos], default)
        return out

    def clear(self) -> None:
        """Erase all cells (a fresh table for the next doubling round)."""
        self._flat = np.empty(0, dtype=np.int64)
        self._vals = np.empty(0, dtype=np.int64)
        self._span = 1
        self._max_a = -1
        self._pending.clear()
        if self._dense is not None:
            self._dense.fill(-1)

    @property
    def num_cells_touched(self) -> int:
        """Number of distinct cells ever written (space audit for DESIGN §2)."""
        self._commit()
        return len(self._flat)

    def dense_view(self) -> Optional[np.ndarray]:
        """Return the dense backing array if one was requested, else ``None``."""
        return self._dense

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        self._commit()
        return f"SparseTable({self.name!r}, cells={len(self._flat)})"
