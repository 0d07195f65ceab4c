"""The benchmark runner: sweep configs -> tables + JSON artifacts.

:class:`BenchmarkRunner` executes declarative
:class:`~repro.bench.config.SweepConfig` cells against the experiment
registry, measures host wall-clock per cell, renders the experiment tables
(the ones EXPERIMENTS.md records) and emits one schema-versioned
``BENCH_E*.json`` artifact per experiment.  The printed tables show every
column a run measured; the artifact, and the tables rendered into it,
keep only what a re-run reproduces (:func:`~repro.bench.artifacts.facts`).
Host speed is compared by ``python -m repro.bench.ab``, never across
committed artifacts.  The ``python -m repro.bench`` CLI is a thin client
of this class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from .artifacts import build_artifact, facts, write_artifact
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
    """Outcome of one executed sweep cell."""

    config: SweepConfig
    rows: List[Row]
    fingerprint: str

    def as_dict(self) -> Dict[str, object]:
        """The cell as an artifact holds it: rows reduced to their facts."""
        return {
            "config": self.config.as_dict(),
            "fingerprint": self.fingerprint,
            "rows": [facts(row) for row in self.rows],
        }


@dataclass
class ExperimentResult:
    """All cells of one experiment plus the printed tables and the artifact."""

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
    """

    def __init__(
        self,
        out_dir: Optional[str] = None,
        *,
        echo: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.out_dir = out_dir
        self.echo = echo

    def _say(self, message: str) -> None:
        if self.echo is not None:
            self.echo(message)

    def run_cell(self, config: SweepConfig) -> CellResult:
        """Execute one sweep cell, measuring its wall-clock."""
        spec = get_experiment(config.experiment)
        self._say(f"[repro.bench] running {spec.id}: {spec.title}")
        start = time.perf_counter()
        rows = spec.run(config)
        elapsed = time.perf_counter() - start
        self._say(f"[repro.bench] {spec.id} cell done in {elapsed:.3f}s ({len(rows)} rows)")
        return CellResult(config=config, rows=rows, fingerprint=config.fingerprint())

    def run_experiment(self, configs: Sequence[SweepConfig]) -> ExperimentResult:
        """Run every cell of one experiment and assemble its artifact.

        All configs must target the same experiment; tables are rendered
        over the concatenated rows of all cells (so a multi-family
        experiment such as E3 prints one table).
        """
        if not configs:
            raise ValueError("run_experiment needs at least one config")
        ids = {c.experiment for c in configs}
        if len(ids) != 1:
            raise ValueError(f"configs target several experiments: {sorted(ids)}")
        spec = get_experiment(configs[0].experiment)
        cells = [self.run_cell(config) for config in configs]
        config = _render_config(cells)
        tables = spec.render([row for cell in cells for row in cell.rows], config)
        written = [cell.as_dict() for cell in cells]
        artifact = build_artifact(
            experiment_id=spec.id,
            title=spec.title,
            cells=written,
            tables=spec.render([row for cell in written for row in cell["rows"]], config),
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
