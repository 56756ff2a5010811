"""Span tracer for the ctlab benchmark, applied from outside the program.

`install` wraps the public functions of the ctlab modules in place: each call
records a span (name, start, end, parent) whose trace id is the key of the
pipeline row it runs for.  Every thread keeps its own span stack, so rows run
by `--threads 2` nest correctly; the first span of a worker thread takes the
main thread's innermost open span as its parent.  Spans stay in memory until
the traced run ends and are then written as JSON lines.

`layer_metrics` turns a list of spans into the per-layer metrics the
benchmark reports.  Times named `*_s` are inclusive span durations summed
over calls, except `*.self_s`, which is the time a layer's spans spend
outside their child spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import NamedTuple

LAYERS = ("cli", "config", "world", "svd", "linalg", "graph", "objectives", "bounds")


class Span(NamedTuple):
    id: int
    parent: int | None
    trace: str
    name: str
    start: float
    end: float
    attrs: dict | None = None


def _row_key(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: str(sig.bind(*args, **kwargs).arguments["row_key"])


# Span attributes read from a call's result.  They feed the size metrics
# (node count, support pairs, eigenproblem sizes, batch tuples) and the
# exact/Monte Carlo split of the population InfoNCE.
ANNOTATORS = {
    "world.build_augmented_space": lambda r: {
        "nodes": r.n,
        "pairs": int((r.joint > 0).sum()),
    },
    "linalg.sym_eig": lambda r: {"n": len(r.values)},
    "objectives.full_support_batch": lambda r: {"tuples": len(r[0])},
    "objectives.infonce_population": lambda r: {"exact": bool(r[2])},
}


class Tracer:
    """Records spans of wrapped calls, one span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            self._local.stack = stack
        return stack

    def wrap(self, fn, name: str, trace_of=None, annotate=None):
        """Return `fn` wrapped so that each call records one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._main_stack
            parent, trace = outer[-1] if outer else (None, "")
            if trace_of is not None:
                trace = trace_of(args, kwargs)
            sid = next(self._ids)
            stack.append((sid, trace))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = annotate(result) if annotate else None
            self.spans.append(Span(sid, parent, trace, name, start, end, attrs))
            return result

        return traced

    def install(self, modules) -> int:
        """Wrap every public ctlab function bound in `modules`; return the count.

        A function is wrapped once and the wrapper replaces it in every module
        that binds it, including module-level dispatch tables, so calls made
        inside a module go through the wrapper too.
        """
        wrapped = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("ctlab.")
                ):
                    continue
                if obj not in wrapped:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    trace_of = _row_key(obj) if name == "cli.compute_row" else None
                    wrapped[obj] = self.wrap(obj, name, trace_of, ANNOTATORS.get(name))
                setattr(mod, attr, wrapped[obj])
        for mod in modules:
            for table in vars(mod).values():
                if isinstance(table, dict):
                    for key, value in table.items():
                        if inspect.isfunction(value) and value in wrapped:
                            table[key] = wrapped[value]
        return len(wrapped)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(*json.loads(line)) for line in fh]


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans.

    Children on other threads may overlap each other; their union counts once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
        for s in spans
    }


def layer_metrics(spans, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced `ctlab run` (see the module docstring)."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(*names):
        return sum((s.end - s.start for n in names for s in by_name[n]), 0.0)

    def calls(name):
        return len(by_name[name])

    def attr_values(name, key):
        return [s.attrs[key] for s in by_name[name]]

    def mean_call(name):
        return total(name) / calls(name) if calls(name) else 0.0

    rows = by_name["cli.compute_row"]
    if not rows:
        raise ValueError("trace holds no pipeline row")
    n_rows = len(rows)
    row_s = [s.end - s.start for s in rows]
    layer_self = defaultdict(float)
    own = self_times(spans)
    for s in spans:
        layer_self[s.name.split(".", 1)[0]] += own[s.id]
    population = attr_values("objectives.infonce_population", "exact")
    grads = calls("objectives.infonce_gradient")

    metrics = {
        "config.load_s": total("config.load_config"),
        "world.generate_s": total("world.generate_world"),
        "world.augment_s": total("world.build_augmented_space"),
        "world.augment_calls_per_row": calls("world.build_augmented_space") / n_rows,
        "world.nodes": max(attr_values("world.build_augmented_space", "nodes"), default=0),
        "world.support_pairs": max(
            attr_values("world.build_augmented_space", "pairs"), default=0
        ),
        "world.preprocess_s": total("world.preprocess_world"),
        "svd.full_s": total("svd.svd_full"),
        "svd.full_calls": calls("svd.svd_full"),
        "linalg.sym_eig_s": total("linalg.sym_eig"),
        "linalg.sym_eig_calls": calls("linalg.sym_eig"),
        "linalg.sym_eig_n3_computed": sum(n**3 for n in attr_values("linalg.sym_eig", "n")),
        "graph.build_s": total("graph.build_graph"),
        "graph.spectrum_s": total("graph.laplacian_spectrum"),
        "graph.spectrum_calls_per_row": calls("graph.laplacian_spectrum") / n_rows,
        "graph.embed_s": total("graph.spectral_embedding"),
        "objectives.train_s": total("objectives.train_free_embeddings"),
        "objectives.loss_call_s": mean_call("objectives.infonce_empirical"),
        "objectives.grad_call_s": mean_call("objectives.infonce_gradient"),
        "objectives.loss_calls_per_step": (
            calls("objectives.infonce_empirical") / grads if grads else 0.0
        ),
        "objectives.batch_build_s": total("objectives.full_support_batch"),
        "objectives.batch_tuples": max(
            attr_values("objectives.full_support_batch", "tuples"), default=0
        ),
        "objectives.population_s": total("objectives.infonce_population"),
        "objectives.population_calls_per_row": len(population) / n_rows,
        "objectives.population_exact_share": (
            sum(population) / len(population) if population else 0.0
        ),
        "objectives.probe_s": total("objectives.fit_linear_head"),
        "objectives.probe_calls_per_row": calls("objectives.fit_linear_head") / n_rows,
        "bounds.t1_s": total("bounds.theorem1_check"),
        "bounds.t3_s": total("bounds.theorem3_check"),
        "bounds.t4_s": total("bounds.theorem4_check"),
        "bounds.corollary_s": total("bounds.corollary_reports"),
        "bounds.variance_calls_per_row": calls("bounds.variance_terms") / n_rows,
        "bounds.lse_calls_per_row": calls("bounds.lse_approx_error") / n_rows,
        "cli.row_s.p50": statistics.median(row_s),
        "cli.row_s.max": max(row_s),
        "cli.rows_distinct_ratio": len({s.trace for s in rows}) / n_rows,
        "cli.write_s": total("cli.emit_csv", "cli.emit_text", "world.save_world"),
        "cli.self_share": layer_self["cli"] / traced_wall_s,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics
