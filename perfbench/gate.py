"""Correctness gate for the artifact tree of one `ctlab run`.

Every run, at every seed, must exit 0, write every expected row to both the
CSV and the text table (with equal contents), print every `argmin_*`
summary line, and reach no `violated` verdict.  At the default seed the
artifacts must also match the stored expectation (`expected/<workload>.json`):

* verdict strings, `q`, `k`, row seeds and the `argmin_*` lines exactly
  (`mc_inflated`'s blank `argmin_q =` line included, as the program prints it);
* the exact columns within EXACT_TOL;
* the trained and Monte Carlo columns within TRAINED_TOL.

Columns the expectation does not name are ignored, so new columns do not
break the gate.
"""

from __future__ import annotations

import csv
import os

EXACT_COLUMNS = ("alpha_q", "lambda_k_q", "lambda_k1_q", "bound_t4")
TRAINED_COLUMNS = (
    "probe_error",
    "infonce",
    "spectral_loss",
    "ce_mean",
    "ce_linear",
    "eps_min",
    "eps_max",
)
REQUIRED_COLUMNS = ("k", "alpha_q", "lambda_k_q", "verdicts", "seed")
# (relative, absolute) tolerance: |got - want| <= abs + rel * |want|
EXACT_TOL = (1e-9, 1e-12)
TRAINED_TOL = (1e-6, 1e-9)


def _read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _read_text_table(path):
    rows, row = [], {}
    with open(path, encoding="ascii") as fh:
        for line in fh.read().splitlines():
            if not line:
                rows.append(row)
                row = {}
                continue
            key, sep, value = line.partition(" = ")
            if not sep:
                raise ValueError(f"{path}: malformed line {line!r}")
            row[key] = value
    if row:
        rows.append(row)
    return rows


def read_tree(out_dir) -> dict:
    """Tables (CSV and text), argmin lines and bound verdicts of one run."""
    tables, text_tables = {}, {}
    for entry in sorted(os.listdir(out_dir)):
        stem, ext = os.path.splitext(entry)
        if ext == ".csv":
            tables[stem] = _read_csv(os.path.join(out_dir, entry))
            text_tables[stem] = _read_text_table(os.path.join(out_dir, stem + ".txt"))
    with open(os.path.join(out_dir, "manifest.txt"), encoding="ascii") as fh:
        summaries = [ln for ln in fh.read().splitlines() if ln.startswith("argmin_")]
    with open(os.path.join(out_dir, "bounds.txt"), encoding="ascii") as fh:
        verdicts = [
            ln.split(" = ", 1)[1]
            for ln in fh.read().splitlines()
            if ln.startswith("verdict = ")
        ]
    return {
        "tables": tables,
        "text_tables": text_tables,
        "summaries": summaries,
        "bound_verdicts": verdicts,
    }


def snapshot(out_dir) -> dict:
    """The expectation stored for a workload at the default seed."""
    tree = read_tree(out_dir)
    return {"tables": tree["tables"], "summaries": tree["summaries"]}


def _close(got: str, want: str, tol) -> bool:
    if got == "" or want == "":
        return got == want
    rel, abs_ = tol
    return abs(float(got) - float(want)) <= abs_ + rel * abs(float(want))


def _compare_row(where, row, want, problems):
    for col, value in want.items():
        got = row.get(col)
        if got is None:
            problems.append(f"{where}: column {col} missing")
        elif col in EXACT_COLUMNS or col in TRAINED_COLUMNS:
            tol = EXACT_TOL if col in EXACT_COLUMNS else TRAINED_TOL
            try:
                ok = _close(got, value, tol)
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"{where}: {col} = {got!r}, expected {value!r}")
        elif got != value:
            problems.append(f"{where}: {col} = {got!r}, expected {value!r}")


def check(out_dir, returncode: int, expected: dict, exact: bool) -> list[str]:
    """Problems found in one run's artifacts; an empty list means it passed.

    `exact` compares values with the stored expectation (default seed only);
    otherwise only the seed-independent invariants are checked.
    """
    problems = []
    if returncode != 0:
        problems.append(f"ctlab exited with code {returncode}")
    try:
        tree = read_tree(out_dir)
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        return problems + [f"artifacts unreadable: {exc}"]
    n_verdicts = 0
    for name, want_rows in expected["tables"].items():
        rows = tree["tables"].get(name)
        if rows is None:
            problems.append(f"{name}: table missing")
            continue
        if len(rows) != len(want_rows):
            problems.append(f"{name}: {len(rows)} rows, expected {len(want_rows)}")
        if tree["text_tables"][name] != rows:
            problems.append(f"{name}: text table differs from the CSV table")
        for i, row in enumerate(rows):
            where = f"{name} row {i}"
            for col in REQUIRED_COLUMNS:
                if not row.get(col):
                    problems.append(f"{where}: {col} is empty")
            verdicts = row.get("verdicts", "").split(";")
            n_verdicts += len(verdicts)
            if any(v.partition("=")[2] == "violated" for v in verdicts):
                problems.append(f"{where}: violated verdict in {row['verdicts']!r}")
            if exact and i < len(want_rows):
                _compare_row(where, row, want_rows[i], problems)
    if "violated" in tree["bound_verdicts"]:
        problems.append("bounds.txt: violated verdict")
    if len(tree["bound_verdicts"]) != n_verdicts:
        problems.append(
            f"bounds.txt: {len(tree['bound_verdicts'])} reports, rows name {n_verdicts}"
        )
    got_keys = [line.partition(" = ")[0] for line in tree["summaries"]]
    want_keys = [line.partition(" = ")[0] for line in expected["summaries"]]
    if got_keys != want_keys:
        problems.append(f"manifest: summaries {got_keys}, expected {want_keys}")
    elif exact and tree["summaries"] != expected["summaries"]:
        problems.append(
            f"manifest: {tree['summaries']}, expected {expected['summaries']}"
        )
    return problems


def row_count(expected: dict) -> int:
    """Pipeline rows one run computes: every table row, baseline included."""
    return sum(len(rows) for rows in expected["tables"].values())
