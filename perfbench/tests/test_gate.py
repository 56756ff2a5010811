"""The correctness gate accepts the stored artifacts and rejects perturbed ones."""

import copy
import csv
import json
from pathlib import Path

import pytest

import gate

EXPECTED = Path(__file__).resolve().parents[1] / "expected"


def write_tree(expected, out: Path):
    """Artifact tree laid out as `ctlab run` writes it, from an expectation."""
    out.mkdir()
    verdicts = []
    for name, rows in expected["tables"].items():
        with open(out / f"{name}.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        blocks = ["".join(f"{k} = {v}\n" for k, v in row.items()) for row in rows]
        (out / f"{name}.txt").write_text("\n".join(blocks))
        verdicts += [v.partition("=")[2] for row in rows for v in row["verdicts"].split(";")]
    (out / "manifest.txt").write_text("ctlab 0.1.0\n" + "".join(
        line + "\n" for line in expected["summaries"]))
    (out / "bounds.txt").write_text("\n".join(f"verdict = {v}\n" for v in verdicts))


@pytest.fixture
def expected():
    with open(EXPECTED / "reference.json") as fh:
        return json.load(fh)


def perturbed(expected, table, row, col, value):
    changed = copy.deepcopy(expected)
    changed["tables"][table][row][col] = value
    return changed


def test_stored_artifacts_pass(tmp_path, expected):
    write_tree(expected, tmp_path / "out")
    assert gate.check(tmp_path / "out", 0, expected, exact=True) == []
    assert gate.row_count(expected) == 14


def test_flipped_verdict_is_rejected_at_every_seed(tmp_path, expected):
    row = expected["tables"]["sweep_k"][2]
    flipped = row["verdicts"].replace("theorem1=holds", "theorem1=violated")
    assert flipped != row["verdicts"]
    write_tree(perturbed(expected, "sweep_k", 2, "verdicts", flipped), tmp_path / "out")
    assert gate.check(tmp_path / "out", 0, expected, exact=True)
    assert gate.check(tmp_path / "out", 0, expected, exact=False)


def test_changed_exact_column_is_rejected(tmp_path, expected):
    alpha = float(expected["tables"]["baseline"][0]["alpha_q"])
    write_tree(perturbed(expected, "baseline", 0, "alpha_q", repr(alpha * (1 + 1e-7))),
               tmp_path / "out")
    found = gate.check(tmp_path / "out", 0, expected, exact=True)
    assert any("alpha_q" in p for p in found)
    assert gate.check(tmp_path / "out", 0, expected, exact=False) == []


def test_trained_columns_match_within_tolerance(tmp_path, expected):
    nce = float(expected["tables"]["sweep_q"][1]["infonce"])
    write_tree(perturbed(expected, "sweep_q", 1, "infonce", repr(nce * (1 + 1e-8))),
               tmp_path / "near")
    assert gate.check(tmp_path / "near", 0, expected, exact=True) == []
    write_tree(perturbed(expected, "sweep_q", 1, "infonce", repr(nce * (1 + 1e-4))),
               tmp_path / "far")
    assert gate.check(tmp_path / "far", 0, expected, exact=True)


def test_changed_argmin_line_is_rejected_only_at_the_default_seed(tmp_path, expected):
    changed = copy.deepcopy(expected)
    changed["summaries"][1] = "argmin_k = 6 (probe_error = 0.1)"
    write_tree(changed, tmp_path / "out")
    assert gate.check(tmp_path / "out", 0, expected, exact=True)
    assert gate.check(tmp_path / "out", 0, expected, exact=False) == []


def test_missing_row_and_exit_code_are_rejected(tmp_path, expected):
    short = copy.deepcopy(expected)
    del short["tables"]["sweep_k"][-1]
    write_tree(short, tmp_path / "out")
    assert gate.check(tmp_path / "out", 0, expected, exact=False)
    write_tree(expected, tmp_path / "ok")
    assert gate.check(tmp_path / "ok", 1, expected, exact=False)
    (tmp_path / "ok" / "sweep_q.txt").unlink()
    assert gate.check(tmp_path / "ok", 0, expected, exact=False)
