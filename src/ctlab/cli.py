"""Command-line front end: config-driven pipelines with deterministic artifacts.

`run` and `sweep` compute every configured row through `compute_row`;
`train`, `probe` and `bounds` compute only `run`'s baseline row (row key
"baseline") and write their files from it.  Every row derives its own seed
from the global seed and its row key, so results are independent of sweep
order and worker count.  cli writes its text files through one writer, as
ASCII with LF endings, with repr-formatted floats, which makes repeated runs
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import os
import pickle
import sys
import threading
from dataclasses import replace

import numpy as np

from . import BLAS_THREADS, __version__
from .bounds import (
    corollary_reports,
    measure_sandwich,
    report_to_text,
    theorem1_check,
    theorem3_check,
    theorem4_check,
)
from .config import ConfigError, RunConfig, load_config, make_transforms, row_seed
from .graph import spectral_embedding, stage_graph
from .linalg import save_matrix_text
from .objectives import (
    DivergenceError,
    ce_risk,
    classification_error,
    fit_linear_head,
    spectral_loss,
    train_free_embeddings,
)
from .world import generate_world, preprocess_world, save_world

# overflow, invalid operations and division by zero raise; underflow is left alone
_FP_RAISE = {"over": "raise", "invalid": "raise", "divide": "raise"}


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write(path, chunks) -> None:
    """Stream chunks to path as ASCII with LF line endings."""
    with open(path, "w", newline="\n", encoding="ascii") as fh:
        fh.writelines(chunks)


def _blocks(texts):
    """texts, one chunk each, with a blank line between each two."""
    return ("\n" * (i > 0) + text for i, text in enumerate(texts))


def emit_csv(rows, path) -> None:
    """Columns in the row's key order, '.' decimals, LF line endings."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows([_fmt_cell(v) for v in row.values()] for row in rows)


def emit_text(rows, path) -> None:
    """Structured text: one key = value block per row, in the row's key order."""
    _write(path, _blocks("".join(f"{col} = {_fmt_cell(v)}\n" for col, v in row.items())
                         for row in rows))


# ---------------------------------------------------------------------------
# pipeline


def _stager(cfg: RunConfig):
    """Return stage(truncation): the staged graph of cfg's world at that truncation.

    The world, planted with cfg's inflation factor and run seed, and its
    transforms are built once, here, so every truncation is augmented by the
    transforms of the untruncated world; a row can vary only the truncation.
    stage keeps only the latest staged graph, dropping it before staging the
    next one, so rows that stage the same world in turn share its graph.  It hands the dropped graph's spectrum to
    stage_graph, so a world whose positive-pair joint equals the last
    eigendecomposed one exactly (the q rows of an inflated world, which
    differ only in their labels) reuses that spectrum.  One thread stages at
    a time, so threads that ask for a world together stage it once, pair
    support included; the others wait and share it.  stage.world is the
    planted world, untruncated.
    """
    world = generate_world(cfg.world, cfg.inflation_factor, cfg.seed)
    transforms = make_transforms(cfg, world)
    latest, lock = {}, threading.Lock()

    def stage(trunc):
        with lock:
            if trunc not in latest:
                last = latest.popitem()[1].spectrum if latest else None
                latest[trunc] = stage_graph(preprocess_world(world, trunc), transforms, last)
            return latest[trunc]

    stage.world = world
    return stage


def compute_row(cfg: RunConfig, stage, row_key, k_key="train.k", run=None):
    """Row row_key of cfg, k from config key k_key: (row, reports, trained table, its head, space).

    Floating-point errors raise, whatever thread runs the row, and name it.
    `run` is the trainer's hook for its descent (see `train_free_embeddings`).
    """
    try:
        with np.errstate(**_FP_RAISE):
            return _row(cfg, stage, row_key, k_key, run)
    except (FloatingPointError, DivergenceError) as exc:
        raise type(exc)(f"row {row_key}: {exc}") from None
    except ConfigError as exc:  # keeps the "<key>: " head that names the key
        raise ConfigError(f"{exc} (row {row_key})") from None


def _row(cfg: RunConfig, stage, row_key, k_key, run):
    seed, k = row_seed(cfg.seed, row_key), cfg.train_k
    staged = stage(cfg.truncation())
    space = staged.space
    if not (1 <= k <= space.n):
        raise ConfigError(f"{k_key}: k={k} out of range [1, {space.n}]")
    lam_k, lam_k1 = staged.levels(k)

    F = train_free_embeddings(
        space, k, cfg.train_loss, cfg.train_steps, cfg.train_step_size, seed, cfg.train_M,
        cfg.mc_config(seed), run,
    )
    # the trained table and, for t4, the closed-form spectral one share one probe
    tables = [F]
    if "t4" in cfg.bounds_which:
        spectral = spectral_embedding(staged, k)
        tables.append(spectral)
    heads = fit_linear_head(tables, space, cfg.probe_steps, cfg.probe_step_size, cfg.probe_l2)
    head = heads[0]
    terms = measure_sandwich(F, space, cfg.train_M, cfg.mc_config(seed))
    ce_linear = ce_risk(F, head, space)
    # the sandwich checks refuse a table off the unit sphere; the corollaries reuse them
    sandwich = (theorem1_check(terms), theorem3_check(terms)) if terms.normalized else ()
    reports = [rep for rep, key in zip(sandwich, ("t1", "t3")) if key in cfg.bounds_which]
    bound_t4 = None
    if "t4" in cfg.bounds_which:
        t4 = theorem4_check(staged, spectral, heads[1])
        reports.append(t4)
        bound_t4 = t4.terms["bound"]
    if "corollaries" in cfg.bounds_which and terms.normalized:
        reports.extend(corollary_reports(terms, head, ce_linear, sandwich))

    row = {
        "q": cfg.svd_q if cfg.svd_mode == "keep_top_q" else None,
        "k": k,
        "alpha_q": staged.alpha,
        "lambda_k_q": lam_k,
        "lambda_k1_q": lam_k1,
        "bound_t4": bound_t4,
        "probe_error": classification_error(F, head, space),
        "infonce": terms.infonce,
        "spectral_loss": spectral_loss(F, space),
        "ce_mean": terms.ce_mean,
        "ce_linear": ce_linear,
        "eps_min": terms.eps_min,
        "eps_max": terms.eps_max,
        "verdicts": ";".join(f"{r.theorem}={r.verdict}" for r in reports),
        "seed": seed,
    }
    return row, reports, F, head, space


class _Worker:
    """A forked process that runs the descents one row thread hands it, one at a time.

    It is forked before any row thread starts, so it copies a process with
    one thread.  A descent's function and arguments go in pickled, and its
    result or the exception it raised comes back.  The worker closes the
    parent's ends of the `others`' pipes, so each worker reads EOF once the
    parent closes its own end (`close`); on EOF it exits.
    """

    def __init__(self, others):
        ask_r, ask_w = os.pipe()
        reply_r, reply_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                for other in others:
                    other.close()
                os.close(ask_w)
                os.close(reply_r)
                with os.fdopen(ask_r, "rb") as ask, os.fdopen(reply_w, "wb") as reply:
                    _serve(ask, reply)
                os._exit(0)
            finally:  # never unwinds into the parent's frames
                os._exit(1)
        os.close(ask_r)
        os.close(reply_w)
        self._ask, self._reply = os.fdopen(ask_w, "wb"), os.fdopen(reply_r, "rb")

    def run(self, fn, args):
        """fn(*args), run in the worker; an exception it raised there is raised here."""
        self._ask.write(pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL))
        self._ask.flush()
        try:
            ok, value = pickle.load(self._reply)
        except EOFError:
            raise RuntimeError(f"descent worker {self.pid} exited") from None
        if not ok:
            raise value
        return value

    def close(self):
        self._ask.close()
        self._reply.close()


def _serve(ask, reply):
    """Answer each (fn, args) read from ask on reply, until EOF; fn runs under _FP_RAISE."""
    with np.errstate(**_FP_RAISE):
        while True:
            try:
                fn, args = pickle.load(ask)
            except EOFError:
                return
            try:
                answer = pickle.dumps((True, fn(*args)), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                answer = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            reply.write(answer)
            reply.flush()


def _run_threaded(row, plan, workers):
    """row(*p, run=) for each p of plan, on one thread per worker: the results in plan order.

    Each thread takes the next row of the plan and hands its descent to its
    own worker.  Once a row raises no thread takes another, and the
    exception of the first such row in the plan is raised here.
    """
    results, errors = [None] * len(plan), {}
    todo, lock = list(enumerate(plan))[::-1], threading.Lock()

    def drain(worker):
        while True:
            with lock:
                if errors or not todo:
                    return
                i, p = todo.pop()
            try:
                results[i] = row(*p, run=worker.run)
            except Exception as exc:
                errors[i] = exc

    threads = [threading.Thread(target=drain, args=(worker,)) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def compute_sweep(cfg: RunConfig, stage, threads=1):
    """Every row of `run` and `sweep`, each one `compute_row` call, on `threads` threads.

    Each row is its own config: "baseline" cfg, one "k=K" per dimension and one
    "q=Q" per rank (keep_top_q at Q) whose truncation is not the baseline's.
    Every row stages its world through `stage`, `_stager(cfg)`.
    The rows of one world run in turn, so each world is staged once at
    `threads` = 1.  Above 1, min(threads, rows) `_Worker`s are forked first,
    one per row thread, and each thread's rows descend in its worker, off
    this process's GIL; the workers are closed and reaped however the rows end.
    Returns {table name: [(row, reports), ...]}: "baseline" always, then
    "sweep_q" (the baseline row, unchanged, then the q rows) and "sweep_k"
    (the k rows) when configured. `train`, `probe` and `bounds` run "baseline" alone.
    """
    plan = [(cfg, "baseline", "train.k")]
    plan += [(replace(cfg, train_k=k), f"k={k}", "train.k_sweep") for k in cfg.train_k_sweep]
    q_cfgs = [replace(cfg, svd_mode="keep_top_q", svd_q=q) for q in cfg.svd_sweep]
    plan += [(q_cfg, f"q={q_cfg.svd_q}", "train.k") for q_cfg in q_cfgs
             if q_cfg.truncation() != cfg.truncation()]

    def row(row_cfg, row_key, k_key, run=None):  # a row's tables do not outlive it
        return compute_row(row_cfg, stage, row_key, k_key, run)[:2]

    if threads > 1:
        workers = []
        try:
            for _ in range(min(threads, len(plan))):
                workers.append(_Worker(workers))
            results = _run_threaded(row, plan, workers)
        finally:  # every worker is told to exit before any is waited for
            for worker in workers:
                worker.close()
            for worker in workers:
                os.waitpid(worker.pid, 0)
    else:  # in the main thread: a thread's own malloc arena costs ~3% peak RSS
        results = [row(*p) for p in plan]
    n_k = len(cfg.train_k_sweep)
    tables = {"baseline": results[:1]}
    if cfg.svd_sweep:
        tables["sweep_q"] = results[:1] + results[1 + n_k:]
    if cfg.train_k_sweep:
        tables["sweep_k"] = results[1 : 1 + n_k]
    return tables


def _table_reports(tables):
    return [rep for results in tables.values() for _, reps in results for rep in reps]


def _argmin_summary(rows, key):
    best = min(rows, key=lambda row: row["probe_error"])  # the first least row wins
    err = best["probe_error"]
    return f"argmin_{key} = {_fmt_cell(best[key])} (probe_error = {_fmt_cell(err)})"


def _write_manifest(cfg: RunConfig, path, extra_lines=()):
    lines = [f"ctlab {__version__} ({BLAS_THREADS})", f"seed = {cfg.seed}", *cfg.echo(),
             *extra_lines]
    _write(path, (f"{line}\n" for line in lines))


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


def _exit_status(reports, allow_violations):
    """Print every hard violation to stderr; 1 if any and not allowed, else 0."""
    bad = [r for r in reports if r.verdict == "violated"]
    for rep in bad:
        print(f"violated: {rep.theorem} slack={rep.slack}", file=sys.stderr)
    return 1 if bad and not allow_violations else 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(cfg: RunConfig, out_dir, threads, allow_violations):
    stage = _stager(cfg)
    tables = compute_sweep(cfg, stage, threads)
    # nothing is written before every row; the saved world is the raw one, uninflated:
    # the planted world's first K * per_class originals, uniformly weighted
    world, n_raw = stage.world, cfg.world.K * cfg.world.per_class
    raw = replace(world, payloads=world.payloads[:n_raw], labels=world.labels[:n_raw],
                  weights=np.full(n_raw, 1.0 / n_raw))
    save_world(raw, os.path.join(out_dir, "world"))
    _write_tables(cfg, out_dir, tables)
    reports = _table_reports(tables)
    _write(os.path.join(out_dir, "bounds.txt"), _blocks(map(report_to_text, reports)))
    return _exit_status(reports, allow_violations)


def cmd_world(cfg, out_dir, threads, allow_violations):
    world = generate_world(cfg.world, cfg.inflation_factor, cfg.seed)
    save_world(preprocess_world(world, cfg.truncation()), os.path.join(out_dir, "world"))
    _write_manifest(cfg, os.path.join(out_dir, "manifest.txt"))
    return 0


def cmd_graph(cfg, out_dir, threads, allow_violations):
    staged = _stager(cfg)(cfg.truncation())
    A = staged.space.joint
    save_matrix_text(os.path.join(out_dir, "adjacency.mat"), A)
    save_matrix_text(
        os.path.join(out_dir, "spectrum.mat"), staged.spectrum.values.reshape(1, -1)
    )
    _write(os.path.join(out_dir, "graph.txt"), [
        f"nodes = {staged.space.n}\n",
        f"components = {len(staged.spectrum.nodes)}\n",
        f"alpha = {staged.alpha!r}\n",
        f"trace = {float(np.trace(A))!r}\n",
    ])
    _write_manifest(cfg, os.path.join(out_dir, "manifest.txt"))
    return 0


def _baseline_row(cfg):
    """`run`'s baseline row of the configured world: compute_row's five values."""
    return compute_row(cfg, _stager(cfg), "baseline")


def cmd_train(cfg, out_dir, threads, allow_violations):
    _row, _reports, F, _head, space = _baseline_row(cfg)
    save_matrix_text(os.path.join(out_dir, "embedding.mat"), F)
    _write(os.path.join(out_dir, "embedding_nodes.txt"), (f"n{i:04d}\n" for i in range(space.n)))
    _write_manifest(cfg, os.path.join(out_dir, "manifest.txt"))
    return 0


def cmd_probe(cfg, out_dir, threads, allow_violations):
    row, _reports, _F, head, _space = _baseline_row(cfg)
    _write(os.path.join(out_dir, "probe.txt"), [
        *(f"{col} = {row[col]!r}\n" for col in ("probe_error", "ce_linear", "ce_mean")),
        f"head_frob_norm = {float(np.linalg.norm(head))!r}\n",
    ])
    _write_manifest(cfg, os.path.join(out_dir, "manifest.txt"))
    print(f"probe_error = {row['probe_error']!r}")
    return 0


def cmd_bounds(cfg, out_dir, threads, allow_violations):
    _row, reports, *_tables = _baseline_row(cfg)
    _write(os.path.join(out_dir, "bounds.txt"), _blocks(map(report_to_text, reports)))
    _write_manifest(cfg, os.path.join(out_dir, "manifest.txt"))
    return _exit_status(reports, allow_violations)


def cmd_sweep(cfg, out_dir, threads, allow_violations):
    if not cfg.svd_sweep and not cfg.train_k_sweep:
        raise ConfigError("sweep: neither svd.sweep nor train.k_sweep configured")
    tables = compute_sweep(cfg, _stager(cfg), threads)
    del tables["baseline"]  # written by `run` only; its row heads sweep_q
    for line in _write_tables(cfg, out_dir, tables):
        print(line)
    return _exit_status(_table_reports(tables), allow_violations)


_COMMANDS = {
    "run": cmd_run, "world": cmd_world, "graph": cmd_graph,
    "train": cmd_train, "probe": cmd_probe, "bounds": cmd_bounds, "sweep": cmd_sweep,
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
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override a config entry (repeatable)")
    args = parser.parse_args(argv)
    out_dir = args.out
    try:
        if args.threads < 1:
            raise ValueError(f"--threads: {args.threads} is below 1")
        overrides = list(args.set)
        if args.seed is not None:
            overrides.append(f"run.seed={args.seed}")
        cfg = load_config(args.config, overrides)
        if out_dir is None:
            out_dir = cfg.output_directory
        os.makedirs(out_dir, exist_ok=True)
        with np.errstate(**_FP_RAISE):
            return _COMMANDS[args.command](
                cfg, out_dir, args.threads, args.allow_violations
            )
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, DivergenceError) as exc:
        print(f"error: ctlab {args.command}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # --out, or an artifact in it, cannot be written
        print(f"error: cannot write {exc.filename or out_dir}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
