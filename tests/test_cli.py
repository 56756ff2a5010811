import os
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import ctlab
from ctlab import bounds, cli, config, graph, objectives, svd, world
from ctlab.cli import emit_csv, emit_text, main
from ctlab.config import load_config
from ctlab.graph import spectral_embedding
from ctlab.svd import TruncationSpec
from oracles import load_matrix_text, parse_csv, unit_rows

REFERENCE = os.path.join(os.path.dirname(__file__), "..", "configs", "reference.ini")
NUMERIC_KEYS = [
    f"{section}.{key}"
    for section, keys in config._TABLE.items()
    for key, (_field, kind, *_rest) in keys.items()
    if kind in ("int", "float")
]
# every table's header, in order
COLUMNS = [
    "q", "k", "alpha_q", "lambda_k_q", "lambda_k1_q", "bound_t4", "probe_error", "infonce",
    "spectral_loss", "ce_mean", "ce_linear", "eps_min", "eps_max", "verdicts", "seed",
]


def _count_calls(monkeypatch, fn):
    """Count calls of fn through every ctlab module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "ctlab" or name.startswith("ctlab."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def _tree_bytes(root):
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root)
            with open(full, "rb") as fh:
                out[rel] = fh.read()
    return out


class TestEmitters:
    def test_csv_round_trip(self, tmp_path):
        rows = [
            {c: None for c in COLUMNS} | {"q": 2, "probe_error": 0.125},
            {c: None for c in COLUMNS} | {"k": 3, "verdicts": "t4=holds"},
        ]
        path = tmp_path / "rows.csv"
        emit_csv(rows, path)
        header, parsed = parse_csv(path)
        assert header == COLUMNS
        assert parsed[0]["q"] == "2"
        assert float(parsed[0]["probe_error"]) == 0.125
        assert parsed[1]["q"] == ""  # None -> empty cell
        assert parsed[1]["verdicts"] == "t4=holds"

    def test_text_blocks(self, tmp_path):
        rows = [{c: None for c in COLUMNS} | {"q": 1}]
        path = tmp_path / "rows.txt"
        emit_text(rows, path)
        text = path.read_text()
        assert text.startswith("q = 1\n")
        assert text.count(" = ") == len(COLUMNS)


class TestRunCommand:
    def test_run_produces_artifacts(self, small_cfg, tmp_path):
        out = str(tmp_path / "art")
        assert main(["run", "--config", small_cfg, "--out", out]) == 0
        for name in (
            "baseline.csv",
            "baseline.txt",
            "sweep_q.csv",
            "sweep_q.txt",
            "sweep_k.csv",
            "sweep_k.txt",
            "bounds.txt",
            "manifest.txt",
            os.path.join("world", "manifest.txt"),
        ):
            assert os.path.exists(os.path.join(out, name)), name
        for name in ("baseline.csv", "sweep_q.csv", "sweep_k.csv"):
            assert parse_csv(os.path.join(out, name))[0] == COLUMNS, name

    def test_sweep_rows_structure(self, small_cfg, tmp_path):
        out = str(tmp_path / "art")
        assert main(["run", "--config", small_cfg, "--out", out]) == 0
        _, q_rows = parse_csv(os.path.join(out, "sweep_q.csv"))
        assert [r["q"] for r in q_rows] == ["", "1", "2", "3"]
        assert all(r["k"] == "2" for r in q_rows)
        _, k_rows = parse_csv(os.path.join(out, "sweep_k.csv"))
        assert [r["k"] for r in k_rows] == ["1", "2"]
        # every row carries a verdict string and its derived seed
        for r in q_rows + k_rows:
            assert "theorem4=" in r["verdicts"]
            assert r["seed"]

    def test_sweep_q_head_row_is_the_truncated_baseline(self, small_cfg, tmp_path):
        # a truncated baseline keeps its q at the head of sweep_q, as in baseline.csv
        out = str(tmp_path / "art")
        sets = ["--set", "svd.mode=keep_top_q", "--set", "svd.q=2"]
        assert main(["run", "--config", small_cfg, "--out", out] + sets) == 0
        _, (base,) = parse_csv(os.path.join(out, "baseline.csv"))
        _, q_rows = parse_csv(os.path.join(out, "sweep_q.csv"))
        assert q_rows[0] == base and base["q"] == "2"
        assert [r["q"] for r in q_rows] == ["2", "1", "3"]  # q = 2 once, as the baseline

    def test_no_violations_in_small_run(self, small_cfg, tmp_path):
        out = str(tmp_path / "art")
        assert main(["run", "--config", small_cfg, "--out", out]) == 0
        bounds = open(os.path.join(out, "bounds.txt")).read()
        assert "verdict = violated\n" not in bounds
        assert "verdict = holds" in bounds

    @pytest.mark.parametrize("loss", ["infonce", "spectral"])
    def test_sandwich_reports_run_exactly_on_unit_tables(self, small_cfg, loss):
        # t1, t3 and the corollaries follow the trained table's rows, not its
        # loss; on the small config every InfoNCE table is unit and no spectral one
        cfg = load_config(small_cfg, [f"train.loss={loss}"])
        stage = cli._stager(cfg)
        for k, q in [(k, q) for k in (1, 2) for q in (None, 1, 2, 3)]:
            row_cfg = replace(cfg, train_k=k)
            if q is not None:
                row_cfg = replace(row_cfg, svd_mode="keep_top_q", svd_q=q)
            row, reports, F, _head, _space = cli.compute_row(row_cfg, stage, f"k={k} q={q}")
            unit = unit_rows(F)
            assert unit == (loss == "infonce")
            names = ["theorem1", "theorem3", "theorem4", "corollary_theorem1",
                     "corollary_theorem3"] if unit else ["theorem4"]
            assert [r.theorem for r in reports] == names
            assert row["verdicts"] == ";".join(f"{r.theorem}={r.verdict}" for r in reports)

    def test_untrained_probe_violates_nothing(self, tmp_path, capsys):
        # probe.steps = 0 leaves every head zero: theorem 4 and the corollaries
        # withhold their verdicts alike, so the run exits 0
        out = tmp_path / "art"
        argv = ["run", "--config", REFERENCE, "--out", str(out), "--set", "probe.steps=0"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 0
        assert "violated:" not in capsys.readouterr().err
        bounds = (out / "bounds.txt").read_text()
        assert "verdict = violated\n" not in bounds
        assert bounds.count("theorem = theorem4\n") == bounds.count(
            "terms.head_frob_norm = 0.0\n"
        ) > 0

    def test_runs_are_byte_identical(self, small_cfg, tmp_path):
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        out3 = str(tmp_path / "c")
        assert main(["run", "--config", small_cfg, "--out", out1]) == 0
        assert main(["run", "--config", small_cfg, "--out", out2]) == 0
        assert main(
            ["run", "--config", small_cfg, "--out", out3, "--threads", "4"]
        ) == 0
        t1, t2, t3 = _tree_bytes(out1), _tree_bytes(out2), _tree_bytes(out3)
        assert t1 == t2
        assert t1 == t3

    def test_seed_changes_rows(self, small_cfg, tmp_path):
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        assert main(["run", "--config", small_cfg, "--out", out1]) == 0
        assert main(["run", "--config", small_cfg, "--out", out2, "--seed", "9"]) == 0
        a = open(os.path.join(out1, "baseline.csv")).read()
        b = open(os.path.join(out2, "baseline.csv")).read()
        assert a != b

    def test_each_row_computed_and_measured_once(self, small_cfg, tmp_path, monkeypatch):
        rows = _count_calls(monkeypatch, cli.compute_row)
        population = _count_calls(monkeypatch, objectives.infonce_population)
        augment = _count_calls(monkeypatch, world.build_augmented_space)
        assert main(["run", "--config", small_cfg, "--out", str(tmp_path / "art")]) == 0
        n_rows = 1 + 3 + 2  # baseline, q in (1, 2, 3), k in (1, 2)
        assert len(rows) == n_rows
        assert len(population) == n_rows
        assert len(augment) == 4  # one per world: no q, then q in (1, 2, 3)

    def test_reference_run_factors_each_raw_original_once(self, tmp_path, monkeypatch):
        # the four q rows truncate the six raw originals from one set of factors
        factored = _count_calls(monkeypatch, svd.svd_full)
        truncated = _count_calls(monkeypatch, svd.svd_truncate)
        assert main(["run", "--config", REFERENCE, "--out", str(tmp_path / "art")]) == 0
        assert len(factored) == 6
        assert len(truncated) == 4 * 6

    def test_inflated_sweep_inflates_once_and_never_calls_choice(
        self, small_cfg, tmp_path, monkeypatch
    ):
        # every q world shares the one inflated world; every Monte Carlo draw
        # goes through the space's inverse-CDF tables
        factors, plant = [], world.generate_world
        monkeypatch.setattr(cli, "generate_world", lambda spec, factor=1, seed=0:
                            factors.append(factor) or plant(spec, factor, seed))
        batches = _count_calls(monkeypatch, objectives._sample_batch)
        choices = []

        class Generator(np.random.Generator):
            def choice(self, *args, **kwargs):
                choices.append(None)
                return super().choice(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Generator)
        argv = ["run", "--config", small_cfg, "--out", str(tmp_path / "art")]
        assert main(argv + ["--set", "inflation.factor=3", "--set", "bounds.n_max=1"]) == 0
        assert factors == [3]  # the stager's world, whose raw originals `run` saves
        assert batches and not choices

    def test_threaded_sweep_stages_each_world_once(self, monkeypatch):
        # the two workers ask for the first world together and stage it once
        cfg = load_config(REFERENCE)
        staged = _count_calls(monkeypatch, graph.stage_graph)
        cli.compute_sweep(cfg, cli._stager(cfg), threads=2)
        assert len(staged) == 1 + len(cfg.svd_sweep) == 5

    @pytest.mark.parametrize(
        "sets, spectra",
        [([], 5), (["inflation.factor=8", "world.noise_scale=0.05"], 2)],
    )
    def test_each_graph_in_turn_is_eigendecomposed_once(self, monkeypatch, sets, spectra):
        # inflated, the q = 1..4 worlds share one joint and so one spectrum; on
        # reference the baseline and q = 4 share one too, but not in turn
        cfg = load_config(REFERENCE, sets + ["train.loss=spectral"])  # staging ignores the loss
        staged = _count_calls(monkeypatch, graph.stage_graph)
        spectrum = _count_calls(monkeypatch, graph.laplacian_spectrum)
        cli.compute_sweep(cfg, cli._stager(cfg))
        assert len(staged) == 1 + len(cfg.svd_sweep) == 5
        assert len(spectrum) == spectra

    @pytest.mark.parametrize(
        "sets, threads", [([], 2), (["train.loss=spectral"], 1)], ids=["monte_carlo", "spectral"]
    )
    def test_inflated_sweep_reads_no_dense_joint(self, monkeypatch, sets, threads):
        # staging keeps the joint's support, row sums and mass, reduced by
        # `_pairs` from its one read of the n x n joint; no other step forms it
        dense = world.AugmentedSpace.joint.fget

        def joint(space):
            if sys._getframe(1).f_code.co_name != "_pairs":
                raise AssertionError("joint read")
            return dense(space)

        monkeypatch.setattr(world.AugmentedSpace, "joint", property(joint))
        cfg = load_config(REFERENCE, ["inflation.factor=8", "world.noise_scale=0.05"] + sets)
        tables = cli.compute_sweep(cfg, cli._stager(cfg), threads)
        assert [len(rows) for rows in tables.values()] == [1, 5, len(cfg.train_k_sweep)]

    def test_each_row_is_its_own_config(self, monkeypatch):
        # a k row changes train.k, a q row truncates keep_top_q at q; each names its k's key
        sets = ["svd.mode=discard_pair", "svd.pair_index=1", "svd.sweep=2", "train.k_sweep=5"]
        cfg = load_config(REFERENCE, sets)
        plan = {}

        def row(row_cfg, stage, row_key, k_key, run=None):
            plan[row_key] = (row_cfg, k_key)
            return {}, [], None, None, None

        monkeypatch.setattr(cli, "compute_row", row)
        cli.compute_sweep(cfg, None)
        assert list(plan) == ["baseline", "k=5", "q=2"]
        (base, base_key), (k5, k5_key), (q2, q2_key) = plan.values()
        assert base is cfg and base_key == "train.k"
        assert (k5.train_k, k5.truncation(), k5_key) == (5, cfg.truncation(), "train.k_sweep")
        assert q2.truncation() == TruncationSpec(mode="keep_top_q", q=2)
        assert (q2.train_k, q2_key) == (cfg.train_k, "train.k")

    def test_sweep_q_plans_no_row_with_the_baseline_truncation(self, monkeypatch):
        # such a row would stage the baseline's world again under another row seed
        sets = ["svd.mode=keep_top_q", "svd.q=2", "svd.sweep=2,3", "train.k_sweep=2,3"]
        cfg = load_config(REFERENCE, sets)
        staged = _count_calls(monkeypatch, graph.stage_graph)
        tables = cli.compute_sweep(cfg, cli._stager(cfg))
        assert len(staged) == 2  # the baseline's world, then q=3's
        ((base, _reports),) = tables["baseline"]
        q_rows = [row for row, _reports in tables["sweep_q"]]
        assert q_rows[0] is base and [row["q"] for row in q_rows] == [2, 3]

    def test_stager_stages_once_under_contention(self, monkeypatch):
        # more threads than cores ask for one world at once: one stages, all share it
        calls = []

        def slow_stage_graph(world, transforms, last):
            calls.append(None)
            time.sleep(0.01)
            return object()

        monkeypatch.setattr(cli, "stage_graph", slow_stage_graph)
        cfg = load_config(REFERENCE)
        stage = cli._stager(cfg)
        start = threading.Barrier(8)

        def ask():
            start.wait(timeout=10)
            return stage(None)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = [fut.result(timeout=10) for fut in [pool.submit(ask) for _ in range(8)]]
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 1
        assert all(g is got[0] for g in got)

    @pytest.mark.parametrize("sets, want", [
        (["world.noise_scale=0.05"], [(57, 3), (60, 6), (60, 6), (60, 6), (60, 6)]),
        ([], [(54, 1), (10, 1), (30, 3), (27, 1), (54, 1)]),
    ], ids=["noise", "reference"])
    def test_stager_augments_every_truncation_with_the_raw_worlds_transforms(self, sets, want):
        # fixed patterns: `sibling c` shifts by the raw payload difference of
        # class c's first two originals, so on a truncated world the sibling view
        # of the first no longer lands on the second; transforms built from
        # each truncated world would merge views (57 nodes at every q with
        # noise, 7 / 21 / 18 on the reference world at q = 1-3)
        cfg = load_config(REFERENCE, sets)
        stage = cli._stager(cfg)
        truncs = [None] + [TruncationSpec(mode="keep_top_q", q=q) for q in (1, 2, 3, 4)]
        got = [(g.space.n, len(g.spectrum.nodes)) for g in map(stage, truncs)]
        assert got == want

    @pytest.mark.parametrize("which", ["t1, t3, t4, corollaries", "t1, t3, corollaries"])
    def test_one_probe_per_row(self, small_cfg, tmp_path, monkeypatch, which):
        # with t4 the spectral head is fitted in the same call as the trained one
        rows = _count_calls(monkeypatch, cli.compute_row)
        probes = _count_calls(monkeypatch, objectives.fit_linear_head)
        argv = ["run", "--config", small_cfg, "--out", str(tmp_path / "art")]
        assert main(argv + ["--set", f"bounds.which={which}"]) == 0
        assert len(rows) == 1 + 3 + 2
        assert len(probes) == len(rows)

    @pytest.mark.parametrize("which", ["t1, t3, t4, corollaries", "t1, corollaries", "t3"])
    def test_one_mean_head_and_sandwich_per_row(self, small_cfg, tmp_path, monkeypatch, which):
        # the corollaries reuse the row's t1 and t3 reports, and variance_terms
        # the mean head measure_sandwich built for ce_mean
        rows = _count_calls(monkeypatch, cli.compute_row)
        counts = [_count_calls(monkeypatch, fn) for fn in
                  (objectives.mean_head, bounds.theorem1_check, bounds.theorem3_check)]
        argv = ["run", "--config", small_cfg, "--out", str(tmp_path / "art")]
        assert main(argv + ["--set", f"bounds.which={which}"]) == 0
        assert [len(c) for c in counts] == [len(rows)] * 3
        text = (tmp_path / "art" / "bounds.txt").read_text()
        checks = [w.strip() for w in which.split(",")]
        assert ("t1" in checks) == ("theorem = theorem1\n" in text)
        assert ("t3" in checks) == ("theorem = theorem3\n" in text)

    def test_t4_head_is_the_spectral_table_fitted_alone(self, small_cfg):
        cfg = load_config(small_cfg)
        stage = cli._stager(cfg)
        _row, reports, *_tables = cli.compute_row(cfg, stage, "baseline")
        (t4,) = [r for r in reports if r.theorem == "theorem4"]
        staged = stage(cfg.truncation())
        table = spectral_embedding(staged, cfg.train_k)
        (alone,) = objectives.fit_linear_head(
            [table], staged.space, cfg.probe_steps, cfg.probe_step_size, cfg.probe_l2
        )
        assert t4.terms["probe_error"] == objectives.classification_error(
            table, alone, staged.space
        )
        assert t4.terms["head_frob_norm"] == float(np.linalg.norm(alone))

    def test_set_override(self, small_cfg, tmp_path):
        out = str(tmp_path / "art")
        assert main(
            [
                "run",
                "--config",
                small_cfg,
                "--out",
                out,
                "--set",
                "train.k_sweep=",
                "--set",
                "svd.sweep=",
            ]
        ) == 0
        assert not os.path.exists(os.path.join(out, "sweep_q.csv"))
        assert not os.path.exists(os.path.join(out, "sweep_k.csv"))


def _staged_space(sets):
    cfg = load_config(REFERENCE, sets)
    return cfg, cli._stager(cfg)(None).space


# each case runs in its own interpreter, which then checks that it has no child left
_LIFE_CYCLE = """
import os, sys
from ctlab import cli
from ctlab.config import load_config
{case}
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


class TestDescentWorkers:
    """Threaded sweeps hand each row's descent to a forked worker process."""

    @pytest.fixture
    def worker(self):
        worker = cli._Worker([])
        yield worker
        worker.close()
        os.waitpid(worker.pid, 0)

    def test_threads_fork_at_most_one_worker_per_row(self, monkeypatch):
        made = []

        class Spied(cli._Worker):
            def __init__(self, others):
                made.append(None)
                super().__init__(others)

        monkeypatch.setattr(cli, "_Worker", Spied)
        sets = ["svd.mode=discard_pair", "svd.pair_index=1", "svd.sweep=2", "train.k_sweep=5"]
        cfg = load_config(REFERENCE, sets)
        tables = cli.compute_sweep(cfg, cli._stager(cfg), 64)
        assert [len(rows) for rows in tables.values()] == [1, 2, 1]  # baseline, k=5, q=2
        assert len(made) == 3

    @pytest.mark.parametrize("failing, want", [((), [0, 1, 2]), ((1, 2), "1")])
    def test_rows_come_back_in_plan_order_or_the_first_failing_row_raises(self, failing, want):
        together = threading.Barrier(3)  # all three rows run at once

        def row(i, run):
            together.wait(timeout=10)
            if i in failing:
                raise ValueError(i)
            return i

        workers = [SimpleNamespace(run=None)] * 3  # rows that never descend need no process
        if failing:
            with pytest.raises(ValueError, match=f"^{want}$"):
                cli._run_threaded(row, [(0,), (1,), (2,)], workers)
        else:
            assert cli._run_threaded(row, [(0,), (1,), (2,)], workers) == want

    @pytest.mark.parametrize("case, stdout, stderr", [
        (
            "cfg = load_config(sys.argv[1])\n"
            "cli.compute_sweep(cfg, cli._stager(cfg), 2)",
            "", "",
        ),
        (
            "print('exit', cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2],"
            " '--set', 'train.step_size=1e300', '--threads', '2']))",
            "exit 2\n",
            "error: ctlab run: row baseline: train_free_embeddings: loss diverged"
            " (overflow encountered in multiply)\n",
        ),
        (
            "print('exit', cli.main(['sweep', '--config', sys.argv[1], '--out', sys.argv[2],"
            " '--threads', '3']))",
            "exit 0\n", "",
        ),
        (  # a later worker holds no end of an earlier one's pipes, so each exits alone
            "first = cli._Worker([])\nsecond = cli._Worker([first])\n"
            "first.close()\nos.waitpid(first.pid, 0)\n"
            "print(second.run(len, ('ab',)))\nsecond.close()\nos.waitpid(second.pid, 0)",
            "2\n", "",
        ),
    ], ids=["returns", "diverges", "three-threads", "first-exits-first"])
    def test_no_worker_outlives_its_sweep(self, tmp_path, case, stdout, stderr):
        # fork warnings are shown: a fork after a row thread started would warn on 3.12+
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        argv = [sys.executable, "-W", "always:This process:DeprecationWarning", "-c",
                _LIFE_CYCLE.format(case=case), REFERENCE, str(tmp_path / "out")]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.stderr == stderr
        assert proc.stdout.endswith(stdout + "no child left\n")

    @pytest.mark.parametrize("sets", [
        [], ["train.m=2"], ["inflation.factor=8", "world.noise_scale=0.05"],
        ["train.loss=spectral"],
    ], ids=["exact", "exact-m2", "monte-carlo-8x", "spectral"])
    def test_descent_in_a_worker_has_the_bits_of_the_call(self, worker, sets):
        cfg, space = _staged_space(sets)
        args = (space, cfg.train_k, cfg.train_loss, cfg.train_steps, cfg.train_step_size, 7,
                cfg.train_M, cfg.mc_config(7))
        got = objectives.train_free_embeddings(*args, run=worker.run)
        want = objectives.train_free_embeddings(*args)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_divergence_in_a_worker_reaches_the_caller(self, worker):
        _cfg, space = _staged_space([])
        args = (space, 3, "infonce", 30, 1e300, 7)
        with pytest.raises(objectives.DivergenceError) as want:
            objectives.train_free_embeddings(*args)
        with pytest.raises(objectives.DivergenceError) as got:
            objectives.train_free_embeddings(*args, run=worker.run)
        assert worker.run(len, ([1, 2],)) == 2  # it still serves
        assert str(got.value) == str(want.value)
        assert "loss diverged" in str(got.value)


class TestSubcommands:
    def test_world_raw_and_truncated(self, small_cfg, tmp_path):
        out = str(tmp_path / "w")
        assert main(["world", "--config", small_cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "world", "manifest.txt"))
        out2 = str(tmp_path / "t")
        sets = ["--set", "svd.mode=keep_top_q", "--set", "svd.q=2"]
        assert main(["world", "--config", small_cfg, "--out", out2, *sets]) == 0
        assert os.path.exists(os.path.join(out2, "world", "manifest.txt"))

    @pytest.mark.parametrize("factor", [1, 2])
    def test_world_writes_every_original(self, small_cfg, tmp_path, factor):
        sets = ["--set", f"inflation.factor={factor}", "--set", "svd.mode=keep_top_q",
                "--set", "svd.q=2"]
        out = str(tmp_path / "w")
        assert main(["world", "--config", small_cfg, "--out", out, *sets]) == 0
        manifest = open(os.path.join(out, "world", "manifest.txt")).read()
        cfg = load_config(small_cfg)
        assert manifest.count("original o") == factor * cfg.world.K * cfg.world.per_class

    @pytest.mark.parametrize(
        "command", ["run", "sweep", "graph", "train", "probe", "bounds", "world"]
    )
    def test_every_file_is_ascii_with_lf_endings(self, small_cfg, tmp_path, command):
        out = str(tmp_path / command)
        assert main([command, "--config", small_cfg, "--out", out]) == 0
        tree = _tree_bytes(out)
        assert tree
        for name, data in tree.items():
            data.decode("ascii")  # raises on any non-ASCII byte
            assert b"\r" not in data and data.endswith(b"\n"), name

    @pytest.mark.parametrize("command", ["world", "graph", "train", "probe", "bounds"])
    def test_single_commands_write_their_config_manifest(self, small_cfg, tmp_path, command):
        # run's manifest without argmin lines: the config the artifacts came from
        out = tmp_path / command
        assert main([command, "--config", small_cfg, "--out", str(out), "--seed", "3"]) == 0
        want = tmp_path / "want.txt"
        cli._write_manifest(load_config(small_cfg, ["run.seed=3"]), want)
        assert (out / "manifest.txt").read_bytes() == want.read_bytes()

    def test_inflated_worlds_of_two_seeds_differ_in_their_manifests(self, tmp_path):
        # the run seed draws the extra originals; the saved world's manifest does not name it
        sets = ["--set", "inflation.factor=2", "--set", "world.noise_scale=0.05"]
        trees = []
        for seed in ("3", "4"):
            out = str(tmp_path / seed)
            assert main(["world", "--config", REFERENCE, "--out", out, "--seed", seed, *sets]) == 0
            trees.append(_tree_bytes(out))
        three, four = trees
        assert three["world/manifest.txt"] == four["world/manifest.txt"]
        assert three["world/o0006.mat"] != four["world/o0006.mat"]
        assert b"seed = 3\n" in three["manifest.txt"] and b"seed = 4\n" in four["manifest.txt"]

    def test_graph(self, small_cfg, tmp_path):
        out = str(tmp_path / "g")
        assert main(["graph", "--config", small_cfg, "--out", out]) == 0
        text = open(os.path.join(out, "graph.txt")).read()
        assert text.startswith("nodes = ")
        assert "components = " in text
        assert "alpha = " in text
        assert os.path.exists(os.path.join(out, "adjacency.mat"))
        assert os.path.exists(os.path.join(out, "spectrum.mat"))

    def test_train_and_probe(self, small_cfg, tmp_path):
        out = str(tmp_path / "t")
        assert main(["train", "--config", small_cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "embedding.mat"))
        assert os.path.exists(os.path.join(out, "embedding_nodes.txt"))
        out2 = str(tmp_path / "p")
        assert main(["probe", "--config", small_cfg, "--out", out2]) == 0
        probe = open(os.path.join(out2, "probe.txt")).read()
        assert "probe_error = " in probe
        assert "ce_linear = " in probe

    def test_bounds(self, small_cfg, tmp_path):
        out = str(tmp_path / "b")
        assert main(["bounds", "--config", small_cfg, "--out", out]) == 0
        text = open(os.path.join(out, "bounds.txt")).read()
        assert "theorem = theorem1" in text
        assert "theorem = theorem4" in text

    def test_sweep_requires_a_sweep(self, small_cfg, tmp_path):
        out = str(tmp_path / "x")
        rc = main(
            [
                "sweep",
                "--config",
                small_cfg,
                "--out",
                out,
                "--set",
                "svd.sweep=",
                "--set",
                "train.k_sweep=",
            ]
        )
        assert rc == 2


class TestSingleRowCommands:
    """`train`, `probe` and `bounds` report `run`'s baseline row at the same seed."""

    @pytest.fixture(params=["reference", "small spectral"])
    def case(self, request, small_cfg):
        """(config path, seed, overrides)."""
        if request.param == "reference":
            return REFERENCE, 6, []
        return small_cfg, 5, ["train.loss=spectral"]

    @staticmethod
    def _argv(command, case, out):
        path, seed, sets = case
        argv = [command, "--config", path, "--seed", str(seed), "--out", str(out)]
        return argv + [arg for s in sets for arg in ("--set", s)]

    def test_probe_and_bounds_write_the_baseline_row(self, tmp_path, capsys, case):
        assert main(self._argv("run", case, tmp_path / "run")) == 0
        _, (baseline,) = parse_csv(tmp_path / "run" / "baseline.csv")
        capsys.readouterr()
        assert main(self._argv("probe", case, tmp_path / "probe")) == 0
        assert capsys.readouterr().out == f"probe_error = {baseline['probe_error']}\n"
        lines = (tmp_path / "probe" / "probe.txt").read_text().splitlines()
        probe = dict(line.split(" = ") for line in lines)
        for col in ("probe_error", "ce_linear", "ce_mean"):
            assert probe[col] == baseline[col], col
        assert main(self._argv("bounds", case, tmp_path / "bounds")) == 0
        bounds = (tmp_path / "bounds" / "bounds.txt").read_text()
        assert (tmp_path / "run" / "bounds.txt").read_text().startswith(bounds + "\n")
        assert bounds.count("theorem = ") == len(baseline["verdicts"].split(";"))

    def test_train_writes_the_baseline_rows_table(self, tmp_path, case):
        assert main(self._argv("train", case, tmp_path)) == 0
        path, seed, sets = case
        cfg = load_config(path, [*sets, f"run.seed={seed}"])
        baseline = cli.compute_row(cfg, cli._stager(cfg), "baseline")
        _row, _reports, F, _head, space = baseline
        np.testing.assert_array_equal(load_matrix_text(tmp_path / "embedding.mat"), F)
        nodes = (tmp_path / "embedding_nodes.txt").read_text().splitlines()
        assert nodes == [f"n{i:04d}" for i in range(space.n)]


class TestErrors:
    def test_bad_config_exits_2(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[world]\nk = 1\n")
        assert main(["run", "--config", str(p)]) == 2

    def test_missing_config_exits_2(self):
        assert main(["run", "--config", "/no/such.ini"]) == 2

    @pytest.mark.parametrize("where, strerror", [
        ("F", "File exists"), ("F/sub", "Not a directory"),
    ], ids=["a-file", "under-a-file"])
    def test_out_that_cannot_be_made_exits_2_naming_it(self, tmp_path, capsys, where, strerror):
        (tmp_path / "F").write_text("")
        out = tmp_path / where
        assert main(["graph", "--config", REFERENCE, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: {strerror}\n"

    def test_artifact_that_cannot_be_written_exits_2_naming_it(self, tmp_path, capsys):
        (tmp_path / "o" / "graph.txt").mkdir(parents=True)
        assert main(["graph", "--config", REFERENCE, "--out", str(tmp_path / "o")]) == 2
        want = f"error: cannot write {tmp_path / 'o' / 'graph.txt'}: Is a directory\n"
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exit_2_naming_the_flag(self, tmp_path, capsys, threads):
        out = tmp_path / "g"
        assert main(["graph", "--config", REFERENCE, "--out", str(out), "--threads", threads]) == 2
        assert capsys.readouterr().err == f"error: --threads: {threads} is below 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_scale_exits_2(self, tmp_path, capsys, value):
        argv = ["graph", "--config", REFERENCE, "--out", str(tmp_path / "g")]
        assert main(argv + ["--set", f"world.noise_scale={value}"]) == 2
        assert "noise_scale" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("command, sets", [
        ("train", []), ("train", ["train.loss=spectral"]), ("probe", []),
    ], ids=["train", "train-spectral", "probe"])
    def test_divergence_exits_2_with_one_named_error(self, tmp_path, command, sets):
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        argv = [sys.executable, "-m", "ctlab.cli", command, "--config", REFERENCE]
        argv += ["--out", str(tmp_path / "d"), "--set", f"{command}.step_size=1e300"]
        argv += [arg for s in sets for arg in ("--set", s)]
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2, proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "diverged" in errors[0], proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0", "1e300"])
    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    def test_numeric_key_runs_or_exits_2_with_a_named_error(self, tmp_path, capsys, key, value):
        section = key.split(".")[0]
        command = section if section in ("train", "probe", "bounds") else "graph"
        argv = [command, "--config", REFERENCE, "--out", str(tmp_path / "o")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(argv + ["--set", f"{key}={value}"])
        err = capsys.readouterr().err
        if rc == 0:
            return
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1, err
        # a config error names its key, a floating-point or divergence error the
        # command and any row
        assert key in err or f"ctlab {command}: " in err, err

    @pytest.mark.parametrize("command, sets, error", [
        # the exact engine enumerates at most M = 2 negatives
        ("train", ["train.m=3", "bounds.m_max=3"], "bounds.m_max: must be <= 2, got 3"),
        # one Monte Carlo sample has no standard error
        ("bounds", ["bounds.mc_samples=1", "bounds.n_max=10"],
         "bounds.mc_samples: must be >= 2, got 1"),
    ])
    def test_engine_limits_exit_2_naming_their_key(self, tmp_path, capsys, command, sets, error):
        argv = [command, "--config", REFERENCE, "--out", str(tmp_path / "o")]
        assert main(argv + [arg for s in sets for arg in ("--set", s)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("command", ["run", "graph"])
    def test_keep_top_q_without_q_exits_2_naming_svd_q(self, tmp_path, capsys, command):
        argv = [command, "--config", REFERENCE, "--out", str(tmp_path / "o")]
        assert main(argv + ["--set", "svd.mode=keep_top_q"]) == 2
        assert capsys.readouterr().err == "error: svd.q: required when mode = keep_top_q\n"

    @pytest.mark.parametrize("key, value", [("train.k", "99"), ("train.k_sweep", "2, 99")])
    def test_node_count_error_names_the_key_of_its_k(self, tmp_path, capsys, key, value):
        argv = ["sweep", "--config", REFERENCE, "--out", str(tmp_path / "o")]
        assert main(argv + ["--set", "svd.sweep=", "--set", f"{key}={value}"]) == 2
        row = "baseline" if key == "train.k" else "k=99"
        assert capsys.readouterr().err == f"error: {key}: k=99 out of range [1, 54] (row {row})\n"

    @pytest.mark.parametrize("command", ["run", "train", "probe", "bounds"])
    def test_every_row_command_checks_train_k_against_the_node_count(
        self, tmp_path, capsys, command
    ):
        out = tmp_path / "o"
        assert main([command, "--config", REFERENCE, "--out", str(out), "--set", "train.k=99"]) == 2
        err = capsys.readouterr().err
        assert err == "error: train.k: k=99 out of range [1, 54] (row baseline)\n"
        assert list(out.iterdir()) == []  # no world, table or embedding is written

    def test_node_count_error_names_its_row(self, tmp_path, capsys):
        # the baseline has 54 nodes; the q = 1 world has 10, so its row fails
        argv = ["run", "--config", REFERENCE, "--out", str(tmp_path / "o")]
        assert main(argv + ["--set", "train.k=54", "--set", "train.k_sweep="]) == 2
        assert capsys.readouterr().err == "error: train.k: k=54 out of range [1, 10] (row q=1)\n"

    def test_floating_point_errors_name_the_command_or_row(self, tmp_path, capsys):
        argv = ["--config", REFERENCE, "--out", str(tmp_path / "o")]
        assert main(["graph", *argv, "--set", "world.noise_scale=1e300"]) == 2
        assert capsys.readouterr().err == "error: ctlab graph: overflow encountered in dot\n"
        assert main(["bounds", *argv, "--set", "train.step_size=1e300"]) == 2
        err = capsys.readouterr().err
        want = "error: ctlab bounds: row baseline: train_free_embeddings: loss diverged"
        assert err.startswith(want)

    def test_spread_error_names_the_command_and_row(self, tmp_path, capsys, monkeypatch):
        # spectral-loss tables are unnormalized; the row's population InfoNCE
        # sends the trained table through the exact engine's spread guard
        monkeypatch.setattr(objectives, "_SPREAD_MAX", 1.0)
        argv = ["train", "--config", REFERENCE, "--out", str(tmp_path / "o")]
        assert main(argv + ["--set", "train.loss=spectral"]) == 2
        assert capsys.readouterr().err == (
            "error: ctlab train: row baseline: exact InfoNCE: a similarity row spreads 6.69893 > 1\n"
        )

    def test_unknown_command_rejected(self, small_cfg):
        for command in ("fly", "svd"):  # `world --set svd.mode=...` writes a truncated world
            with pytest.raises(SystemExit) as err:
                main([command, "--config", small_cfg])
            assert err.value.code == 2


class TestBlasThreads:
    BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    @pytest.mark.parametrize(
        "preset, want",
        [
            ({}, "OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1"),
            ({"OPENBLAS_NUM_THREADS": "3"}, "OPENBLAS_NUM_THREADS=3 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1"),
        ],
    )
    def test_unset_blas_threads_are_pinned_to_one(self, preset, want):
        # the package sets them before the CLI module loads numpy; a set one is kept
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {k: v for k, v in os.environ.items() if k not in self.BLAS_VARS}
        code = (
            "import os, sys, ctlab\n"
            "assert 'numpy' not in sys.modules\n"
            "import ctlab.cli\n"
            f"print(' '.join(f'{{v}}={{os.environ[v]}}' for v in {self.BLAS_VARS!r}))\n"
            "print(ctlab.BLAS_THREADS)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**env, **preset, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{want}\n{want}\n"

    def test_manifest_records_the_blas_threads(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        cli._write_manifest(load_config(REFERENCE), manifest)
        head = manifest.read_text().split("\n", 1)[0]
        assert head == f"ctlab {ctlab.__version__} ({ctlab.BLAS_THREADS})"
