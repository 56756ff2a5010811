"""Repeated runs of the pipeline give byte-identical artifacts and equal counts.

These run the real `ctlab run` (about a minute in all).
"""

import time
from pathlib import Path

from run import DEADLINE_S, run_ctlab
from spans import layer_metrics, read_spans


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def run_once(tmp_path, name, workload, traced=False, threads=None):
    run_dir = tmp_path / name
    run_dir.mkdir()
    deadline = time.perf_counter() + DEADLINE_S
    *_, rc = run_ctlab(workload, 6, run_dir, deadline, traced=traced, threads=threads)
    assert rc == 0, (run_dir / "ctlab.log").read_text()
    return run_dir


def test_two_runs_give_identical_artifacts(tmp_path):
    first = run_once(tmp_path, "first", "spectral_inflated")
    second = run_once(tmp_path, "second", "spectral_inflated")
    assert tree_bytes(first / "out") == tree_bytes(second / "out")


def test_threads_do_not_change_artifacts(tmp_path):
    one = run_once(tmp_path, "one", "mc_inflated", threads=1)
    two = run_once(tmp_path, "two", "mc_inflated", threads=2)
    assert tree_bytes(one / "out") == tree_bytes(two / "out")


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for name in ("first", "second"):
        run_dir = run_once(tmp_path, name, "spectral_inflated", traced=True)
        metrics = layer_metrics(read_spans(run_dir / "spans.jsonl"), 1.0)
        counts.append({k: v for k, v in metrics.items()
                       if not k.endswith("_s") and "_s." not in k and k != "cli.self_share"})
    assert counts[0] == counts[1]
