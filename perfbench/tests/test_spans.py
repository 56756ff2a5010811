"""Self-time arithmetic and span recording of the benchmark's tracer."""

import json
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from spans import Span, Tracer, layer_metrics, self_times


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        Span(1, None, "", "cli.main", 0.0, 10.0),
        Span(2, 1, "a", "world.a", 1.0, 4.0),
        Span(3, 1, "b", "world.b", 3.0, 6.0),  # overlaps 2: another thread
        Span(4, 2, "a", "linalg.c", 2.0, 3.0),
        Span(5, 1, "c", "graph.d", 8.0, 12.0),  # runs past its parent's end
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 4.0})


def test_layer_metrics_on_synthetic_rows():
    spans = [
        Span(1, None, "", "cli.main", 0.0, 10.0),
        Span(2, 1, "baseline", "cli.compute_row", 0.0, 4.0),
        Span(3, 2, "baseline", "world.build_augmented_space", 0.0, 1.0,
             {"nodes": 5, "pairs": 9}),
        Span(4, 1, "baseline", "cli.compute_row", 4.0, 6.0),
        Span(5, 4, "baseline", "world.build_augmented_space", 4.0, 5.0,
             {"nodes": 7, "pairs": 8}),
        Span(6, 1, "k=1", "cli.compute_row", 6.0, 9.0),
        Span(7, 6, "k=1", "linalg.sym_eig", 6.0, 8.0, {"n": 3}),
    ]
    m = layer_metrics(spans, traced_wall_s=20.0)
    assert m["cli.row_s.p50"] == 3.0 and m["cli.row_s.max"] == 4.0
    assert m["cli.rows_distinct_ratio"] == pytest.approx(2 / 3)
    assert m["world.augment_calls_per_row"] == pytest.approx(2 / 3)
    assert (m["world.nodes"], m["world.support_pairs"]) == (7, 9)
    assert m["linalg.sym_eig_n3_computed"] == 27
    assert m["world.self_s"] == 2.0 and m["linalg.self_s"] == 2.0
    assert m["cli.self_s"] == 6.0 and m["cli.self_share"] == 0.3
    # self times partition the traced interval
    assert sum(m[f"{layer}.self_s"] for layer in ("cli", "world", "linalg")) == 10.0


def test_spans_nest_per_thread_and_carry_the_row_key():
    tracer = Tracer()

    def leaf(x):
        return x

    def row(row_key):
        return leaf(row_key)

    leaf = tracer.wrap(leaf, "objectives.leaf")
    row = tracer.wrap(row, "cli.compute_row", trace_of=lambda a, kw: a[0])

    def sweep():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(row, ["k=1", "k=2", "k=3", "k=4"]))

    sweep = tracer.wrap(sweep, "cli.sweep_k")
    assert sweep() == ["k=1", "k=2", "k=3", "k=4"]
    by_id = {s.id: s for s in tracer.spans}
    (top,) = [s for s in tracer.spans if s.name == "cli.sweep_k"]
    rows = [s for s in tracer.spans if s.name == "cli.compute_row"]
    leaves = [s for s in tracer.spans if s.name == "objectives.leaf"]
    assert len(rows) == len(leaves) == 4
    assert all(r.parent == top.id for r in rows)
    for s in leaves:
        parent = by_id[s.parent]
        assert parent.name == "cli.compute_row" and s.trace == parent.trace
        assert parent.start <= s.start <= s.end <= parent.end
    assert sorted(r.trace for r in rows) == ["k=1", "k=2", "k=3", "k=4"]


def test_install_wraps_public_functions_and_dispatch_tables(monkeypatch):
    mod = types.ModuleType("ctlab.fake")
    exec(
        "def helper(x):\n    return x + 1\n"
        "def run(x):\n    return helper(x)\n"
        "def _private(x):\n    return x\n"
        "TABLE = {'run': run}\n",
        mod.__dict__,
    )
    monkeypatch.setitem(sys.modules, "ctlab.fake", mod)
    tracer = Tracer()
    assert tracer.install([mod]) == 2
    assert mod.TABLE["run"](1) == 2
    assert [s.name for s in tracer.spans] == ["fake.helper", "fake.run"]
    assert tracer.spans[0].parent == tracer.spans[1].id


def test_benchmark_json_names_every_reported_metric():
    from run import _unit

    root = Path(__file__).resolve().parents[2]
    declared = json.loads((root / "BENCHMARK.json").read_text())
    spans = [Span(1, None, "baseline", "cli.compute_row", 0.0, 1.0)]
    reported = [*layer_metrics(spans, 1.0), "trace.wall_s", "trace.overhead_s",
                "host.wall_raw_s", "host.slowdown_ratio"]
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        n: _unit(n) for n in reported
    }
    assert [m["name"] for m in declared["end_to_end"]] == [
        "setup_s", "wall_s", "cpu_s", "peak_rss_mb"
    ]
