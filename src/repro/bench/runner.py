"""The benchmark runner: sweep configs -> tables + JSON artifacts.

:class:`BenchmarkRunner` executes declarative
:class:`~repro.bench.config.SweepConfig` cells against the experiment
registry, measures host wall-clock per cell, renders the experiment tables
(the ones EXPERIMENTS.md records) and emits one schema-versioned
``BENCH_E*.json`` artifact per experiment.  The pytest benchmark files and
the ``python -m repro.bench`` CLI are both thin clients of this class, so
the printed tables and the persisted perf trajectory always agree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from .artifacts import build_artifact, write_artifact
from .config import SweepConfig
from .registry import get_experiment

Row = Dict[str, object]


def _render_config(cells: Sequence["CellResult"]) -> SweepConfig:
    """Config handed to the table renderer for a (possibly multi-cell) run.

    Renderers interpolate config fields into titles (e.g. E1's
    ``workload=...``); when the cells disagree on the workload, label the
    combined table with every distinct value rather than silently
    attributing all rows to the first cell's workload.
    """
    first = cells[0].config
    workloads = sorted({c.config.workload for c in cells if c.config.workload is not None})
    if len(workloads) > 1:
        return replace(first, workload=",".join(workloads))
    return first


@dataclass
class CellResult:
    """Outcome of one executed sweep cell.

    ``repeat`` records how many times the cell was executed for its
    best-of-N ``wall_seconds`` figure (charged totals are deterministic
    per config, so only the host timing varies between repeats).
    """

    config: SweepConfig
    rows: List[Row]
    wall_seconds: float
    fingerprint: str
    repeat: int = 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "config": self.config.as_dict(),
            "fingerprint": self.fingerprint,
            "rows": self.rows,
            "wall_seconds": round(self.wall_seconds, 6),
            "repeat": self.repeat,
        }


@dataclass
class ExperimentResult:
    """All cells of one experiment plus the rendered tables and artifact."""

    experiment: str
    title: str
    cells: List[CellResult]
    tables: List[str]
    artifact: Dict[str, object]
    path: Optional[str] = None

    @property
    def rows(self) -> List[Row]:
        """Rows of every cell, concatenated in execution order."""
        return [row for cell in self.cells for row in cell.rows]

    @property
    def wall_seconds(self) -> float:
        return sum(cell.wall_seconds for cell in self.cells)


class BenchmarkRunner:
    """Execute sweep configs and persist the results.

    Parameters
    ----------
    out_dir:
        Directory to write ``BENCH_E*.json`` artifacts into; ``None``
        disables persistence (the documents are still built and returned).
    echo:
        Callable invoked with progress lines and rendered tables
        (e.g. ``print``); ``None`` keeps the runner silent.
    repeat:
        Execute every cell this many times and keep the best (minimum)
        wall-clock sample — committed ``wall_seconds`` columns become far
        less hostage to single-sample scheduler noise.  The rows of the
        best run are kept; the repeat count is recorded in the artifact
        cell so readers know what the figure is.
    """

    def __init__(
        self,
        out_dir: Optional[str] = None,
        *,
        echo: Optional[Callable[[str], None]] = None,
        repeat: int = 1,
    ) -> None:
        if repeat < 1:
            raise ValueError("repeat must be a positive integer")
        self.out_dir = out_dir
        self.echo = echo
        self.repeat = int(repeat)

    def _say(self, message: str) -> None:
        if self.echo is not None:
            self.echo(message)

    def run_cell(self, config: SweepConfig) -> CellResult:
        """Execute one sweep cell, measuring best-of-``repeat`` wall-clock."""
        spec = get_experiment(config.experiment)
        self._say(f"[repro.bench] running {spec.id}: {spec.title}")
        best_rows: Optional[List[Row]] = None
        best_elapsed = float("inf")
        for attempt in range(self.repeat):
            start = time.perf_counter()
            rows = spec.run(config)
            elapsed = time.perf_counter() - start
            if elapsed < best_elapsed:
                best_rows, best_elapsed = rows, elapsed
            if self.repeat > 1:
                self._say(
                    f"[repro.bench] {spec.id} repeat {attempt + 1}/{self.repeat}: "
                    f"{elapsed:.3f}s"
                )
        assert best_rows is not None
        self._say(
            f"[repro.bench] {spec.id} cell done in {best_elapsed:.3f}s "
            f"({len(best_rows)} rows"
            + (f", best of {self.repeat})" if self.repeat > 1 else ")")
        )
        return CellResult(
            config=config,
            rows=best_rows,
            wall_seconds=best_elapsed,
            fingerprint=config.fingerprint(),
            repeat=self.repeat,
        )

    def run_experiment(self, configs: Sequence[SweepConfig]) -> ExperimentResult:
        """Run every cell of one experiment and assemble its artifact.

        All configs must target the same experiment; tables are rendered
        over the concatenated rows of all cells (matching how the
        benchmark files compose multi-family tables).
        """
        if not configs:
            raise ValueError("run_experiment needs at least one config")
        ids = {c.experiment for c in configs}
        if len(ids) != 1:
            raise ValueError(f"configs target several experiments: {sorted(ids)}")
        spec = get_experiment(configs[0].experiment)
        cells = [self.run_cell(config) for config in configs]
        combined = [row for cell in cells for row in cell.rows]
        tables = spec.render(combined, _render_config(cells))
        artifact = build_artifact(
            experiment_id=spec.id,
            title=spec.title,
            cells=[cell.as_dict() for cell in cells],
            tables=tables,
        )
        result = ExperimentResult(
            experiment=spec.id,
            title=spec.title,
            cells=cells,
            tables=tables,
            artifact=artifact,
        )
        if self.out_dir is not None:
            result.path = write_artifact(artifact, self.out_dir)
            self._say(f"[repro.bench] wrote {result.path}")
        return result

    def run(self, configs: Sequence[SweepConfig]) -> Dict[str, ExperimentResult]:
        """Run a batch of configs, grouped per experiment.

        Returns a mapping from experiment id to its result, in first-seen
        config order.
        """
        grouped: Dict[str, List[SweepConfig]] = {}
        for config in configs:
            grouped.setdefault(get_experiment(config.experiment).id, []).append(config)
        results: Dict[str, ExperimentResult] = {}
        for experiment_id, group in grouped.items():
            result = self.run_experiment(group)
            results[experiment_id] = result
            for table in result.tables:
                self._say("\n" + table)
        return results
