"""The claims table (``python -m repro.bench.claims``) on the committed
artifacts, on a doctored copy of one, and with rows missing."""
import json
import shutil
from pathlib import Path

import pytest

from repro.bench.claims import CLAIMS, _value, evaluate, load_rows, main

REPO = Path(__file__).resolve().parent.parent


def _failed_after(tmp_path, name, edit):
    """The claims that fail once `edit` (None drops a row) rewrites `name`."""
    for path in REPO.glob("BENCH_*.json"):
        shutil.copy(path, tmp_path)
    document = json.loads((tmp_path / name).read_text())
    for cell in document["cells"]:
        cell["rows"] = [r for r in map(edit, cell["rows"]) if r is not None]
    (tmp_path / name).write_text(json.dumps(document))
    assert main([str(tmp_path)]) == 1
    return [claim.statement for claim, _, holds in evaluate(load_rows(str(tmp_path)))
            if not holds]


def test_every_claim_holds_on_the_committed_artifacts(capsys):
    assert main([str(REPO)]) == 0
    assert capsys.readouterr().out.count("HOLDS  ") == len(CLAIMS) >= 14


@pytest.mark.parametrize("name, column, where, claim", [
    ("BENCH_E2.json", "time", {"n": 16384, "algorithm": "jaja-ryu"}, "Theorem 5.1: O(log n)"),
    ("BENCH_E3.json", "charged_work", {"n": 8192, "family": "binary"}, "Lemma 3.7"),
    ("BENCH_E6.json", "max_shrink_factor", {"family": "binary"}, "Lemma 3.6"),
    ("BENCH_E9.json", "work", {"cost_model": "incurred"}, "E9 ablation"),
])
def test_a_doctored_artifact_fails_its_claim_and_only_that_claim(tmp_path, name, column,
                                                                 where, claim):
    def edit(row):
        return {**row, column: row[column] * 10} if where.items() <= row.items() else row
    (failed,) = _failed_after(tmp_path, name, edit)
    assert failed.startswith(claim)


@pytest.mark.parametrize("name, where, claim", [
    ("BENCH_E1.json", {"algorithm": "paige-tarjan-bonic", "n": 1024},
     "Introduction: the sequential"),
    ("BENCH_E10.json", {}, "E10 ablation"),
])
def test_a_missing_row_fails_its_claim_instead_of_shortening_it(tmp_path, name, where, claim):
    (failed,) = _failed_after(tmp_path, name,
                              lambda row: None if where.items() <= row.items() else row)
    assert failed.startswith(claim)


def test_claims_read_only_columns_the_check_compares():
    for column in ("work/n", "wall_seconds", "ns_per_node", "batches"):
        with pytest.raises(ValueError, match="columns the check compares"):
            _value({}, "scaling", column)
