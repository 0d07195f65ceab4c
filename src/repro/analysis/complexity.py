"""Fitting measured cost curves against the paper's claimed bounds.

The experiments measure (n, time, work) triples across a sweep of input
sizes and need to answer questions of the form "does the work grow like
n log log n or like n log n?".  Absolute constants are meaningless on a
simulator, so the analysis works with *bound ratios* and growth-rate fits:

* :func:`bound_ratio_series` — for each measurement, the ratio of the
  measured quantity to a candidate bound; a correct bound gives a series
  that is bounded (roughly flat), an underestimate gives a diverging one.
* :func:`fit_growth` — least-squares fit of ``log(measure)`` against
  ``log(bound(n))`` for every candidate bound; the candidate with the best
  fit (slope ≈ 1 and smallest residual) is reported as the inferred
  growth class.
* :func:`loglog_slope` — plain log-log slope (effective polynomial degree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np

BOUNDS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "1": lambda n: np.ones_like(n, dtype=float),
    "log n": lambda n: np.maximum(1.0, np.log2(np.maximum(2.0, n))),
    "log^2 n": lambda n: np.maximum(1.0, np.log2(np.maximum(2.0, n))) ** 2,
    "n": lambda n: n.astype(float),
    "n log log n": lambda n: n * np.maximum(1.0, np.log2(np.maximum(2.0, np.log2(np.maximum(2.0, n))))),
    "n log n": lambda n: n * np.maximum(1.0, np.log2(np.maximum(2.0, n))),
    "n^2": lambda n: n.astype(float) ** 2,
}


@dataclass
class GrowthFit:
    """Result of fitting a measurement series against one candidate bound."""

    bound: str
    slope: float
    intercept: float
    residual: float
    ratio_spread: float  # max ratio / min ratio over the series


def bound_ratio_series(ns: Sequence[int], values: Sequence[float], bound: str) -> np.ndarray:
    """values[i] / bound(ns[i]) for a named bound from :data:`BOUNDS`."""
    n = np.asarray(ns, dtype=float)
    v = np.asarray(values, dtype=float)
    if bound not in BOUNDS:
        raise KeyError(f"unknown bound {bound!r}; choose from {sorted(BOUNDS)}")
    denom = BOUNDS[bound](n)
    return v / np.maximum(denom, 1e-12)


def fit_growth(ns: Sequence[int], values: Sequence[float], bound: str) -> GrowthFit:
    """Least-squares fit of log(values) = slope*log(bound(n)) + intercept."""
    n = np.asarray(ns, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(n) < 2:
        raise ValueError("need at least two measurements to fit a growth rate")
    x = np.log(np.maximum(BOUNDS[bound](n), 1e-12))
    y = np.log(np.maximum(v, 1e-12))
    a = np.vstack([x, np.ones_like(x)]).T
    coef, residuals, _rank, _sv = np.linalg.lstsq(a, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = float(residuals[0]) if len(residuals) else 0.0
    ratios = bound_ratio_series(ns, values, bound)
    spread = float(ratios.max() / max(ratios.min(), 1e-12))
    return GrowthFit(bound=bound, slope=slope, intercept=intercept, residual=resid, ratio_spread=spread)


def best_matching_bound(
    ns: Sequence[int],
    values: Sequence[float],
    candidates: Sequence[str] = ("n", "n log log n", "n log n", "n^2"),
) -> str:
    """The candidate bound whose ratio series is flattest (smallest spread).

    "Flattest" is the right criterion on a simulator: if work really is
    Θ(bound), work/bound is sandwiched between constants across the sweep,
    whereas dividing by a too-small bound leaves a growing series and by a
    too-large bound a shrinking one.
    """
    best = None
    best_spread = math.inf
    for cand in candidates:
        spread = fit_growth(ns, values, cand).ratio_spread
        if spread < best_spread:
            best, best_spread = cand, spread
    assert best is not None
    return best


def loglog_slope(ns: Sequence[int], values: Sequence[float]) -> float:
    """Slope of log(values) vs log(n): the effective polynomial degree."""
    n = np.log(np.asarray(ns, dtype=float))
    v = np.log(np.maximum(np.asarray(values, dtype=float), 1e-12))
    a = np.vstack([n, np.ones_like(n)]).T
    coef, _res, _rank, _sv = np.linalg.lstsq(a, v, rcond=None)
    return float(coef[0])


def ratio_is_bounded(ns: Sequence[int], values: Sequence[float], bound: str, *, factor: float = 4.0) -> bool:
    """True iff values/bound varies by at most ``factor`` across the sweep.

    The acceptance criterion used by the EXPERIMENTS.md checks: a claimed
    Θ-bound should keep the ratio within a small constant factor over a
    decade-plus of input sizes.
    """
    ratios = bound_ratio_series(ns, values, bound)
    return bool(ratios.max() <= factor * max(ratios.min(), 1e-12))
