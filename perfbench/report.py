"""Collects one run's metrics and prints them: a table, then the JSON line.

The metric names and units come from ``BENCHMARK.json``, so what a run
prints and what the file declares cannot drift apart.  An untraced run
prints every end-to-end metric; a traced run prints every per-layer
metric, with 0 for a layer its workload declares it does not exercise.
A metric with no value otherwise means no result.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _catalogue(section: str) -> Dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


class Report:
    """One run's operations, set-up times and metrics."""

    def __init__(self, workload: str, trace: bool, import_seconds: float, unused: Iterable[str]) -> None:
        self.workload = workload
        self.trace = trace
        self.import_seconds = import_seconds
        self.unused = frozenset(unused)  # per-layer metrics this workload does not exercise
        self.setups: List[float] = []
        self.ok: List[bool] = []
        self.notes: List[str] = []
        self.broken = False
        self.metrics: Dict[str, Tuple[float, str, int]] = {}
        self.units = _catalogue("per_layer" if trace else "end_to_end")

    # -- operations ------------------------------------------------------
    def setup_done(self, seconds: float) -> None:
        """One set-up finished; ``setup_s`` is imports + the median set-up."""
        self.setups.append(seconds)

    def attempt(self, ok: bool, what: str) -> int:
        """Record one operation; returns its index for a later :meth:`fail`."""
        self.ok.append(bool(ok))
        if not ok:
            self.notes.append(what)
        return len(self.ok) - 1

    def fail(self, index: int, what: str) -> None:
        """Mark operation ``index`` failed after the fact."""
        self.ok[index] = False
        self.notes.append(what)

    def problem(self, what: str) -> None:
        """A fault of the run itself, not of one operation: the run is not correct."""
        self.notes.append(what)
        self.broken = True

    # -- metrics ---------------------------------------------------------
    def e2e(self, name: str, value: float, unit: str, samples: int) -> None:
        if not self.trace:
            self._put(name, value, unit, samples)

    def layer(self, name: str, value: float, unit: str, samples: int) -> None:
        if self.trace:
            self._put(name, value, unit, samples)

    def _put(self, name: str, value: float, unit: str, samples: int) -> None:
        declared = self.units.get(name)
        if declared != unit:
            raise KeyError(f"metric {name!r} in {unit!r} is not declared so in BENCHMARK.json")
        self.metrics[name] = (value, unit, samples)

    # -- output ----------------------------------------------------------
    def finish(self) -> int:
        """Print the table and the result line; returns the exit code."""
        if self.setups and not self.trace:
            self._put("setup_s", self.import_seconds + statistics.median(self.setups), "s", len(self.setups))
        if self.trace:
            for name in self.unused - set(self.metrics):
                self.metrics[name] = (0, self.units[name], 0)
        self.metrics = {name: self.metrics[name] for name in self.units if name in self.metrics}
        missing = sorted(set(self.units) - set(self.metrics))
        for note in self.notes:
            print(f"FAILED: {note}", file=sys.stderr)
        if missing:
            print(f"no value for {missing}; no result", file=sys.stderr)
            return 1

        failed = self.ok.count(False)
        print(f"{self.workload}: {len(self.ok)} operations, {failed} failed")
        for name, (value, unit, samples) in self.metrics.items():
            print(f"  {name:<36} {value:>16.6g} {unit:<9} n={samples}")
        result = {
            "correct": failed == 0 and not self.broken,
            "attempted": max(1, len(self.ok)),
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _) in self.metrics.items()
            },
        }
        print(json.dumps(result))
        return 0

