"""Command-line front end: config-driven pipelines with deterministic artifacts.

`run` and `sweep` compute every configured row through `compute_row`;
`train`, `probe` and `bounds` compute only `run`'s baseline row (row key
"baseline") and write their files from it.  Every row derives its own seed
from the global seed and its row key, so results are independent of sweep
order and worker count; all files are written with LF endings and
repr-formatted floats, which makes repeated runs byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__
from .bounds import (
    corollary_reports,
    measure_sandwich,
    report_to_text,
    theorem1_check,
    theorem3_check,
    theorem4_check,
)
from .config import ConfigError, RunConfig, load_config, make_transforms, row_seed
from .graph import connected_components, spectral_embedding, stage_graph
from .linalg import save_matrix_text
from .objectives import (
    DivergenceError,
    Embedding,
    ce_risk,
    classification_error,
    fit_linear_head,
    spectral_loss,
    train_free_embeddings,
)
from .world import generate_world, inflate, preprocess_world, save_world

# overflow, invalid operations and division by zero raise; underflow is left alone
_FP_RAISE = {"over": "raise", "invalid": "raise", "divide": "raise"}

SWEEP_COLUMNS = [
    "q",
    "k",
    "alpha_q",
    "lambda_k_q",
    "lambda_k1_q",
    "bound_t4",
    "probe_error",
    "infonce",
    "spectral_loss",
    "ce_mean",
    "ce_linear",
    "eps_min",
    "eps_max",
    "verdicts",
    "seed",
]


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_csv(rows, path) -> None:
    """Fixed column order, '.' decimals, LF line endings."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([_fmt_cell(row.get(col)) for col in SWEEP_COLUMNS])


def emit_text(rows, path) -> None:
    """Structured text: one key = value block per row, stable key order."""
    with open(path, "w", newline="\n", encoding="ascii") as fh:
        for i, row in enumerate(rows):
            if i:
                fh.write("\n")
            for col in SWEEP_COLUMNS:
                fh.write(f"{col} = {_fmt_cell(row.get(col))}\n")


# ---------------------------------------------------------------------------
# pipeline


def _stage_world(cfg: RunConfig, inflated):
    """The world of cfg's truncation: only its raw originals are truncated."""
    trunc = cfg.truncation()
    if trunc is None:
        return inflated
    return preprocess_world(inflated, trunc, cfg.world.K * cfg.world.per_class)


def _stager(raw_world, transforms):
    """Return stage(cfg): the staged graph of cfg's world, keyed by cfg.truncation() alone.

    stage inflates the raw world once, in the first row, and remembers only
    the latest staged world, dropping it before staging the next one, so rows
    that stage the same world in turn share its graph.  One thread stages at a
    time, so threads that ask for a world together (the pool's first rows)
    stage it once; the others wait and share it.
    """
    latest, inflated, lock = {}, [], threading.Lock()

    def stage(cfg):
        key = cfg.truncation()
        with lock:
            if key not in latest:
                latest.clear()
                if not inflated:
                    inflated.append(inflate(raw_world, cfg.inflation_factor, seed=cfg.seed))
                latest[key] = stage_graph(_stage_world(cfg, inflated[0]), transforms)
            return latest[key]

    return stage


def compute_row(cfg: RunConfig, stage, row_key, k_key="train.k"):
    """Row row_key of cfg, k from config key k_key: (row, reports, trained table, its head, space).

    Floating-point errors raise, whatever thread runs the row, and name it.
    """
    try:
        with np.errstate(**_FP_RAISE):
            return _row(cfg, stage, row_key, k_key)
    except (FloatingPointError, DivergenceError) as exc:
        raise type(exc)(f"row {row_key}: {exc}") from None


def _row(cfg: RunConfig, stage, row_key, k_key):
    seed, k = row_seed(cfg.seed, row_key), cfg.train_k
    staged = stage(cfg)
    space = staged.space
    if not (1 <= k <= space.n):
        raise ConfigError(f"{k_key}: k={k} out of range [1, {space.n}]")
    lam_k, lam_k1 = staged.levels(k)

    f = train_free_embeddings(
        space, k, cfg.train_loss, cfg.train_steps, cfg.train_step_size, seed, cfg.train_M,
        cfg.mc_config(seed),
    )
    # the trained table and, for t4, the closed-form spectral one share one probe
    tables = [f]
    if "t4" in cfg.bounds_which:
        spectral = Embedding(spectral_embedding(staged, k), False)
        tables.append(spectral)
    heads = fit_linear_head(tables, space, cfg.probe_steps, cfg.probe_step_size, cfg.probe_l2)
    head = heads[0]
    terms = measure_sandwich(f, space, cfg.train_M, cfg.mc_config(seed))
    ce_linear = ce_risk(f, head, space)
    reports = []
    if "t1" in cfg.bounds_which and f.normalized:
        reports.append(theorem1_check(terms))
    if "t3" in cfg.bounds_which and f.normalized:
        reports.append(theorem3_check(terms))
    bound_t4 = None
    if "t4" in cfg.bounds_which:
        t4 = theorem4_check(staged, spectral, heads[1])
        reports.append(t4)
        bound_t4 = t4.terms.get("bound")
    if "corollaries" in cfg.bounds_which and f.normalized:
        reports.extend(corollary_reports(terms, head, ce_linear))

    row = {
        "q": cfg.svd_q if cfg.svd_mode == "keep_top_q" else None,
        "k": k,
        "alpha_q": staged.alpha,
        "lambda_k_q": lam_k,
        "lambda_k1_q": lam_k1,
        "bound_t4": bound_t4,
        "probe_error": classification_error(f, head, space),
        "infonce": terms.infonce,
        "spectral_loss": spectral_loss(f, space),
        "ce_mean": terms.ce_mean,
        "ce_linear": ce_linear,
        "eps_min": None if terms.eps.empty else terms.eps.eps_min,
        "eps_max": None if terms.eps.empty else terms.eps.eps_max,
        "verdicts": ";".join(f"{r.theorem}={r.verdict}" for r in reports),
        "seed": seed,
    }
    return row, reports, f, head, space


def compute_sweep(cfg: RunConfig, raw_world, transforms, threads=1):
    """Every row of `run` and `sweep`, each one `compute_row` call, on `threads` workers.

    Each row is its own config: "baseline" cfg, one "k=K" per dimension and one
    "q=Q" per rank (keep_top_q at Q).  The rows of one world run in turn, so
    each world is staged once at `threads` = 1.
    Returns {table name: [(row, reports), ...]}: "baseline" always, then
    "sweep_q" (the baseline row with q blank, then the q rows) and "sweep_k"
    (the k rows) when configured. `train`, `probe` and `bounds` run "baseline" alone.
    """
    stage = _stager(raw_world, transforms)
    plan = [(cfg, "baseline", "train.k")]
    plan += [(replace(cfg, train_k=k), f"k={k}", "train.k_sweep") for k in cfg.train_k_sweep]
    plan += [(replace(cfg, svd_mode="keep_top_q", svd_q=q), f"q={q}", "train.k")
             for q in cfg.svd_sweep]

    def row(row_cfg, row_key, k_key):  # a row's tables do not outlive it
        return compute_row(row_cfg, stage, row_key, k_key)[:2]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(row, *zip(*plan)))
    else:  # in the main thread: a worker's own malloc arena costs ~3% peak RSS
        results = [row(*p) for p in plan]
    (base_row, base_reports), n_k = results[0], len(cfg.train_k_sweep)
    tables = {"baseline": results[:1]}
    if cfg.svd_sweep:
        tables["sweep_q"] = [({**base_row, "q": None}, base_reports)] + results[1 + n_k:]
    if cfg.train_k_sweep:
        tables["sweep_k"] = results[1 : 1 + n_k]
    return tables


def _table_reports(tables):
    return [rep for results in tables.values() for _, reps in results for rep in reps]


def _argmin_summary(rows, key):
    best = None
    for row in rows:
        err = row.get("probe_error")
        if err is None:
            continue
        if best is None or err < best[1]:
            best = (row.get(key), err)
    if best is None:
        return f"argmin_{key} = none"
    return f"argmin_{key} = {_fmt_cell(best[0])} (probe_error = {_fmt_cell(best[1])})"


def _write_manifest(cfg: RunConfig, path, extra_lines=()):
    lines = [f"ctlab {__version__}", f"seed = {cfg.seed}", *cfg.echo(), *extra_lines]
    with open(path, "w", newline="\n", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_tables(cfg: RunConfig, out_dir, tables):
    """Write every table in each configured format, then the manifest.

    Returns the argmin summary line of each sweep table.
    """
    writers = {"csv": emit_csv, "text": emit_text}
    exts = {"csv": "csv", "text": "txt"}
    summaries = []
    for name, results in tables.items():
        rows = [row for row, _ in results]
        for fmt in cfg.output_formats:
            writers[fmt](rows, os.path.join(out_dir, f"{name}.{exts[fmt]}"))
        if name.startswith("sweep_"):
            summaries.append(_argmin_summary(rows, name.removeprefix("sweep_")))
    _write_manifest(cfg, os.path.join(out_dir, "manifest.txt"), summaries)
    return summaries


def _write_reports(reports, path):
    with open(path, "w", newline="\n") as fh:
        for i, rep in enumerate(reports):
            if i:
                fh.write("\n")
            fh.write(report_to_text(rep))


def _exit_status(reports, allow_violations):
    """Print every hard violation to stderr; 1 if any and not allowed, else 0."""
    bad = [r for r in reports if r.verdict == "violated"]
    for rep in bad:
        print(f"violated: {rep.theorem} slack={rep.slack}", file=sys.stderr)
    return 1 if bad and not allow_violations else 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(cfg: RunConfig, out_dir, threads, allow_violations):
    raw_world = generate_world(cfg.world)
    tables = compute_sweep(cfg, raw_world, make_transforms(cfg, raw_world), threads)
    save_world(raw_world, os.path.join(out_dir, "world"))  # nothing is written before every row
    _write_tables(cfg, out_dir, tables)
    reports = _table_reports(tables)
    _write_reports(reports, os.path.join(out_dir, "bounds.txt"))
    return _exit_status(reports, allow_violations)


def cmd_world(cfg, out_dir, threads, allow_violations):
    inflated = inflate(generate_world(cfg.world), cfg.inflation_factor, seed=cfg.seed)
    save_world(_stage_world(cfg, inflated), os.path.join(out_dir, "world"))
    return 0


def cmd_svd(cfg, out_dir, threads, allow_violations):
    if cfg.truncation() is None:
        raise ConfigError("svd.mode: subcommand svd needs a mode other than none")
    return cmd_world(cfg, out_dir, threads, allow_violations)


def cmd_graph(cfg, out_dir, threads, allow_violations):
    raw_world = generate_world(cfg.world)
    staged = _stager(raw_world, make_transforms(cfg, raw_world))(cfg)
    A = staged.space.joint
    save_matrix_text(os.path.join(out_dir, "adjacency.mat"), A)
    save_matrix_text(
        os.path.join(out_dir, "spectrum.mat"), staged.spectrum.values.reshape(1, -1)
    )
    with open(os.path.join(out_dir, "graph.txt"), "w", newline="\n") as fh:
        fh.write(f"nodes = {staged.space.n}\n")
        fh.write(f"components = {connected_components(A)}\n")
        fh.write(f"alpha = {staged.alpha!r}\n")
        fh.write(f"trace = {float(np.trace(A))!r}\n")
    return 0


def _baseline_row(cfg):
    """`run`'s baseline row of the configured world: compute_row's five values."""
    raw_world = generate_world(cfg.world)
    return compute_row(cfg, _stager(raw_world, make_transforms(cfg, raw_world)), "baseline")


def cmd_train(cfg, out_dir, threads, allow_violations):
    _row, _reports, f, _head, space = _baseline_row(cfg)
    save_matrix_text(os.path.join(out_dir, "embedding.mat"), f.table)
    with open(os.path.join(out_dir, "embedding_nodes.txt"), "w", newline="\n") as fh:
        fh.write("".join(f"n{i:04d}\n" for i in range(space.n)))
    return 0


def cmd_probe(cfg, out_dir, threads, allow_violations):
    row, _reports, _f, head, _space = _baseline_row(cfg)
    with open(os.path.join(out_dir, "probe.txt"), "w", newline="\n") as fh:
        for col in ("probe_error", "ce_linear", "ce_mean"):
            fh.write(f"{col} = {row[col]!r}\n")
        fh.write(f"head_frob_norm = {head.frob_norm!r}\n")
    print(f"probe_error = {row['probe_error']!r}")
    return 0


def cmd_bounds(cfg, out_dir, threads, allow_violations):
    _row, reports, *_tables = _baseline_row(cfg)
    _write_reports(reports, os.path.join(out_dir, "bounds.txt"))
    return _exit_status(reports, allow_violations)


def cmd_sweep(cfg, out_dir, threads, allow_violations):
    if not cfg.svd_sweep and not cfg.train_k_sweep:
        raise ConfigError("sweep: neither svd.sweep nor train.k_sweep configured")
    raw_world = generate_world(cfg.world)
    transforms = make_transforms(cfg, raw_world)
    tables = compute_sweep(cfg, raw_world, transforms, threads)
    del tables["baseline"]  # written by `run` only; its row heads sweep_q
    for line in _write_tables(cfg, out_dir, tables):
        print(line)
    return _exit_status(_table_reports(tables), allow_violations)


_COMMANDS = {
    "run": cmd_run,
    "world": cmd_world,
    "svd": cmd_svd,
    "graph": cmd_graph,
    "train": cmd_train,
    "probe": cmd_probe,
    "bounds": cmd_bounds,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ctlab",
        description="Exact desk-scale laboratory for labeling error in contrastive learning",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override global seed")
    parser.add_argument("--out", default=None, help="artifact directory")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--allow-violations", action="store_true")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config entry (repeatable)",
    )
    args = parser.parse_args(argv)
    try:
        overrides = list(args.set)
        if args.seed is not None:
            overrides.append(f"run.seed={args.seed}")
        cfg = load_config(args.config, overrides)
        out_dir = args.out if args.out is not None else cfg.output_directory
        os.makedirs(out_dir, exist_ok=True)
        with np.errstate(**_FP_RAISE):
            return _COMMANDS[args.command](
                cfg, out_dir, max(1, args.threads), args.allow_violations
            )
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, DivergenceError) as exc:
        print(f"error: ctlab {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
