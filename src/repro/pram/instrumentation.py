"""Report rendering for simulated PRAM runs.

While :mod:`repro.pram.metrics` accumulates the raw numbers, this module
provides the human-facing layer used by the benchmark harness and the
examples:

* :func:`phase_report` — a plain-text breakdown of where the work went,
  grouped by the span labels the algorithms declare.
* :func:`cost_report` — a one-line summary of a run, aligned with the
  bounds the paper claims, including the bound ratios ``work/(n)``,
  ``work/(n log log n)`` and ``time/log n`` used throughout the
  experiment scripts.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..types import CostSummary


def _fmt_int(x: int) -> str:
    return f"{x:,}"


def _safe_log2(x: float) -> float:
    return math.log2(x) if x > 1 else 1.0


def bound_ratios(n: int, time: int, work: int) -> Dict[str, float]:
    """Ratios of measured cost to the paper's claimed bounds.

    Returns ``time/log2(n)``, ``work/n``, ``work/(n log2 n)`` and
    ``work/(n log2 log2 n)``.  Experiments assert that the last of these is
    bounded by a constant across the sweep for the paper's algorithm while
    ``work/(n log2 n)`` is bounded for the O(n log n)-work baselines.
    """
    if n <= 0:
        return {"time_per_log_n": 0.0, "work_per_n": 0.0, "work_per_nlogn": 0.0, "work_per_nloglogn": 0.0}
    log_n = _safe_log2(float(n))
    loglog_n = _safe_log2(log_n)
    return {
        "time_per_log_n": time / log_n,
        "work_per_n": work / n,
        "work_per_nlogn": work / (n * log_n),
        "work_per_nloglogn": work / (n * max(1.0, loglog_n)),
    }


def cost_report(name: str, n: int, summary: CostSummary) -> str:
    """One-line human-readable cost summary used by examples and benches."""
    ratios = bound_ratios(n, summary.time, summary.work)
    return (
        f"{name:<28s} n={_fmt_int(n):>10s}  time={_fmt_int(summary.time):>8s}"
        f"  work={_fmt_int(summary.work):>12s}"
        f"  time/log n={ratios['time_per_log_n']:7.2f}"
        f"  work/n={ratios['work_per_n']:8.2f}"
        f"  work/(n lg lg n)={ratios['work_per_nloglogn']:7.2f}"
    )


def phase_report(summary: CostSummary, *, indent: str = "  ") -> str:
    """Multi-line breakdown of cost by span label (sorted by work, desc).

    Nested spans appear indented under their parents.  Only spans that
    actually charged cost are listed.
    """
    lines = [
        f"total: time={_fmt_int(summary.time)} work={_fmt_int(summary.work)}"
        f" charged_work={_fmt_int(summary.charged_work)}"
    ]
    # Build a simple tree out of the '/'-joined span paths.
    paths = sorted(summary.spans)
    for path in paths:
        t, w = summary.spans[path]
        if t == 0 and w == 0:
            continue
        depth = path.count("/")
        label = path.rsplit("/", 1)[-1]
        share = (100.0 * w / summary.work) if summary.work else 0.0
        lines.append(
            f"{indent * (depth + 1)}{label:<30s} time={_fmt_int(t):>8s}"
            f" work={_fmt_int(w):>12s} ({share:5.1f}% of work)"
        )
    return "\n".join(lines)


def compare_report(n: int, summaries: Dict[str, CostSummary]) -> str:
    """Side-by-side comparison of several algorithms on the same instance."""
    lines = [f"instance size n = {_fmt_int(n)}"]
    baseline_work: Optional[int] = None
    for name, summary in summaries.items():
        if baseline_work is None:
            baseline_work = max(1, summary.work)
        rel = summary.work / baseline_work
        lines.append(cost_report(name, n, summary) + f"  rel-work={rel:6.2f}x")
    return "\n".join(lines)
