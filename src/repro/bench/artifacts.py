"""Machine-readable benchmark artifacts (``BENCH_E*.json``).

Every runner invocation emits one JSON artifact per experiment: the exact
configuration fingerprint of each cell, its result rows and the charged
PRAM totals.  An artifact holds only what a re-run of its cells
reproduces, so a refresh that changes no charge leaves no diff: host
timings and a served run's batching are printed, never written (see
:func:`facts`).  The schema is versioned; :func:`validate_artifact`
rejects documents that a reader of this version cannot interpret, and the
loader runs it.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import Dict, List, Mapping, Optional

#: Document format identifier; bump :data:`SCHEMA_VERSION` on breaking change.
SCHEMA_NAME = "repro.bench"
SCHEMA_VERSION = 1

#: Keys every artifact document must carry.
REQUIRED_KEYS = (
    "schema",
    "schema_version",
    "experiment",
    "title",
    "cells",
    "totals",
    "tables",
)

#: Keys every cell of an artifact must carry.
REQUIRED_CELL_KEYS = ("config", "fingerprint", "rows")

#: Charged-cost columns that a perf change must NOT move.
METRIC_KEYS = ("time", "work", "charged_work")

#: Host-measurement columns: a re-run reads them anew.  E7's
#: ``brent_time``/``speedup``/``efficiency`` are not among them: they
#: follow from the charged time and work, so they are identity columns.
_VOLATILE_KEYS = frozenset(
    {
        "wall_seconds",
        "ns_per_node",
        "throughput_rps",
        "p50_ms",
        "p95_ms",
        "p99_ms",
    }
)

#: How a served run's requests happened to coalesce.  A batch is charged
#: as one solve of its requests' union, so the charged totals of a row
#: that carries these follow the batching too.
_BATCH_OUTCOME_KEYS = frozenset({"batches", "multi_batches", "mean_occupancy", "max_occupancy"})


def facts(row: Mapping[str, object]) -> Dict[str, object]:
    """The columns of a result row that a re-run of its cell reproduces:
    all but host timings and batching outcomes, and, in a row with a
    batching outcome, the charged totals that follow it."""
    drop = _VOLATILE_KEYS
    if not _BATCH_OUTCOME_KEYS.isdisjoint(row):
        drop = drop | _BATCH_OUTCOME_KEYS | frozenset(METRIC_KEYS)
    return {k: v for k, v in row.items() if k not in drop}


def artifact_filename(experiment_id: str) -> str:
    """Canonical artifact name for an experiment (``e1`` -> ``BENCH_E1.json``)."""
    return f"BENCH_{experiment_id.strip().upper()}.json"


def build_artifact(
    *,
    experiment_id: str,
    title: str,
    cells: List[Dict[str, object]],
    tables: List[str],
) -> Dict[str, object]:
    """Assemble a schema-versioned artifact document.

    ``cells`` entries come from the runner: each holds the serialised
    :class:`~repro.bench.config.SweepConfig`, its fingerprint and the
    result rows, already reduced to their :func:`facts`.  Totals aggregate
    the charged PRAM cost columns over every row that carries them, giving
    one regression-trackable number per experiment.
    """
    totals: Dict[str, int] = {"time": 0, "work": 0, "charged_work": 0}
    n_rows = 0
    for cell in cells:
        for row in cell["rows"]:  # type: ignore[union-attr]
            n_rows += 1
            for key in totals:
                value = row.get(key) if isinstance(row, Mapping) else None
                if isinstance(value, (int, float)):
                    totals[key] += int(value)
    return {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment_id,
        "title": title,
        "cells": cells,
        "totals": {**totals, "rows": n_rows},
        "tables": tables,
    }


def validate_artifact(document: Mapping[str, object]) -> None:
    """Raise ``ValueError`` unless ``document`` is a readable artifact."""
    missing = [k for k in REQUIRED_KEYS if k not in document]
    if missing:
        raise ValueError(f"benchmark artifact is missing keys: {missing}")
    if document["schema"] != SCHEMA_NAME:
        raise ValueError(
            f"not a {SCHEMA_NAME} artifact (schema={document['schema']!r})"
        )
    version = document["schema_version"]
    if not isinstance(version, int) or version > SCHEMA_VERSION or version < 1:
        raise ValueError(
            f"unsupported schema_version {version!r}; this reader supports "
            f"1..{SCHEMA_VERSION}"
        )
    cells = document["cells"]
    if not isinstance(cells, list):
        raise ValueError("artifact 'cells' must be a list")
    for i, cell in enumerate(cells):
        cell_missing = [k for k in REQUIRED_CELL_KEYS if k not in cell]
        if cell_missing:
            raise ValueError(f"artifact cell {i} is missing keys: {cell_missing}")


def write_artifact(
    document: Mapping[str, object],
    out_dir: str,
    *,
    filename: Optional[str] = None,
) -> str:
    """Validate and write an artifact; returns the written path.

    Sibling sections other tools maintain in the same file (e.g. the
    ``capacity_model`` the serving load sweep commits into
    ``BENCH_SERVING.json``) are carried over from the existing file, so
    regenerating the experiment never silently drops them.
    """
    validate_artifact(document)
    name = filename or artifact_filename(str(document["experiment"]))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    merged = dict(document)
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                existing = json.load(fh)
        except (OSError, ValueError):
            existing = None
        if isinstance(existing, dict):
            for key, value in existing.items():
                if key not in merged:
                    merged[key] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=2, sort_keys=False, default=str)
        fh.write("\n")
    return path


def load_artifact(path: str) -> Dict[str, object]:
    """Read an artifact back, validating the schema."""
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    validate_artifact(document)
    return document


def _row_identity(row: Mapping[str, object]) -> tuple:
    """The stable identity of a result row: every column that is neither a
    charged metric nor a derived ratio (contains ``/``)."""
    return tuple(
        sorted((k, str(v)) for k, v in row.items() if k not in METRIC_KEYS and "/" not in k)
    )


def compare_charged_totals(
    fresh: Mapping[str, object], committed: Mapping[str, object]
) -> List[str]:
    """Row-by-row charged-cost comparison of two artifacts of one experiment.

    Returns a list of human-readable mismatch descriptions (empty = the
    fresh run reproduces the committed charged totals exactly).  Rows are
    matched on their identity columns (algorithm, n, workload, ...), so a
    partial fresh sweep — e.g. the CI perf-smoke's single size — checks
    against the matching slice of the committed full sweep.  Cells whose
    config fingerprints match additionally pin the aggregate totals, and
    every committed row of such a cell must be reproduced.  A served row
    carries no charged totals (see :func:`facts`) but must still find its
    counterpart: same cell, same requests completed and shed.
    """
    if fresh["experiment"] != committed["experiment"]:
        return [
            f"experiment mismatch: fresh={fresh['experiment']!r} "
            f"committed={committed['experiment']!r}"
        ]

    def rows_by_identity(document: Mapping[str, object]) -> Dict[tuple, List[Mapping[str, object]]]:
        grouped: Dict[tuple, List[Mapping[str, object]]] = {}
        for cell in document["cells"]:  # type: ignore[union-attr]
            for row in cell["rows"]:
                grouped.setdefault(_row_identity(row), []).append(row)
        return grouped

    fresh_rows = rows_by_identity(fresh)
    committed_rows = rows_by_identity(committed)
    problems: List[str] = []
    compared = 0
    for identity, rows in sorted(fresh_rows.items()):
        if identity not in committed_rows:
            problems.append(f"row {dict(identity)} has no committed counterpart")
            continue
        if len(rows) > len(committed_rows[identity]):
            # zip() below would silently drop the surplus fresh rows from
            # the drift check — surface the cardinality mismatch instead
            problems.append(
                f"row {dict(identity)} appears {len(rows)}x fresh but only "
                f"{len(committed_rows[identity])}x committed"
            )
        for row, committed_row in zip(rows, committed_rows[identity]):
            compared += 1
            for key in METRIC_KEYS:
                if key in row or key in committed_row:
                    if row.get(key) != committed_row.get(key):
                        problems.append(
                            f"{dict(identity)}: {key} changed "
                            f"{committed_row.get(key)} -> {row.get(key)}"
                        )
    if compared == 0:
        problems.append(
            f"no comparable rows between fresh and committed "
            f"{fresh['experiment']} artifacts"
        )
    committed_cells = {
        cell["fingerprint"]: cell for cell in committed["cells"]  # type: ignore[union-attr]
    }
    for cell in fresh["cells"]:  # type: ignore[union-attr]
        match = committed_cells.get(cell["fingerprint"])
        if match is None:
            continue
        missing = (Counter(map(_row_identity, match["rows"]))
                   - Counter(map(_row_identity, cell["rows"])))
        problems.extend(f"cell {cell['fingerprint']}: committed row {dict(identity)} "
                        "was not reproduced" for identity in sorted(missing))
        for key in METRIC_KEYS:
            fresh_total = sum(int(r.get(key, 0) or 0) for r in cell["rows"])
            committed_total = sum(int(r.get(key, 0) or 0) for r in match["rows"])
            if fresh_total != committed_total:
                problems.append(
                    f"cell {cell['fingerprint']}: total {key} changed "
                    f"{committed_total} -> {fresh_total}"
                )
    return problems
