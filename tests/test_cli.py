import os
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from ctlab import cli, config, graph, objectives, world
from ctlab.cli import SWEEP_COLUMNS, emit_csv, emit_text, main
from ctlab.config import load_config, make_transforms
from ctlab.graph import spectral_embedding
from ctlab.linalg import load_matrix_text
from ctlab.objectives import Embedding
from ctlab.svd import TruncationSpec
from oracles import parse_csv

REFERENCE = os.path.join(os.path.dirname(__file__), "..", "configs", "reference.ini")
NUMERIC_KEYS = [
    f"{section}.{key}"
    for section, keys in config._TABLE.items()
    for key, (_field, kind, *_rest) in keys.items()
    if kind in ("int", "float")
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
            {c: None for c in SWEEP_COLUMNS} | {"q": 2, "probe_error": 0.125},
            {c: None for c in SWEEP_COLUMNS} | {"k": 3, "verdicts": "t4=holds"},
        ]
        path = tmp_path / "rows.csv"
        emit_csv(rows, path)
        header, parsed = parse_csv(path)
        assert header == SWEEP_COLUMNS
        assert parsed[0]["q"] == "2"
        assert float(parsed[0]["probe_error"]) == 0.125
        assert parsed[1]["q"] == ""  # None -> empty cell
        assert parsed[1]["verdicts"] == "t4=holds"

    def test_text_blocks(self, tmp_path):
        rows = [{c: None for c in SWEEP_COLUMNS} | {"q": 1}]
        path = tmp_path / "rows.txt"
        emit_text(rows, path)
        text = path.read_text()
        assert text.startswith("q = 1\n")
        assert text.count(" = ") == len(SWEEP_COLUMNS)


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

    def test_no_violations_in_small_run(self, small_cfg, tmp_path):
        out = str(tmp_path / "art")
        assert main(["run", "--config", small_cfg, "--out", out]) == 0
        bounds = open(os.path.join(out, "bounds.txt")).read()
        assert "verdict = violated\n" not in bounds
        assert "verdict = holds" in bounds

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

    def test_inflated_sweep_inflates_once_and_never_calls_choice(
        self, small_cfg, tmp_path, monkeypatch
    ):
        # every q world shares the one inflation; every Monte Carlo draw goes
        # through the space's inverse-CDF tables
        inflations = _count_calls(monkeypatch, world.inflate)
        batches = _count_calls(monkeypatch, objectives._sample_batch)
        choices = []

        class Generator(np.random.Generator):
            def choice(self, *args, **kwargs):
                choices.append(None)
                return super().choice(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Generator)
        argv = ["run", "--config", small_cfg, "--out", str(tmp_path / "art")]
        assert main(argv + ["--set", "inflation.factor=3", "--set", "bounds.n_max=1"]) == 0
        assert len(inflations) == 1
        assert batches and not choices

    def test_threaded_sweep_stages_each_world_once(self, monkeypatch):
        # the two workers ask for the first world together and stage it once
        cfg = load_config(REFERENCE)
        raw = world.generate_world(cfg.world)
        staged = _count_calls(monkeypatch, graph.stage_graph)
        cli.compute_sweep(cfg, raw, make_transforms(cfg, raw), threads=2)
        assert len(staged) == 1 + len(cfg.svd_sweep) == 5

    def test_each_row_is_its_own_config(self, monkeypatch):
        # a k row changes train.k, a q row truncates keep_top_q at q; each names its k's key
        sets = ["svd.mode=discard_pair", "svd.pair_index=1", "svd.sweep=2", "train.k_sweep=5"]
        cfg = load_config(REFERENCE, sets)
        plan = {}

        def row(row_cfg, stage, row_key, k_key):
            plan[row_key] = (row_cfg, k_key)
            return {}, [], None, None, None

        monkeypatch.setattr(cli, "compute_row", row)
        cli.compute_sweep(cfg, None, [])
        assert list(plan) == ["baseline", "k=5", "q=2"]
        (base, base_key), (k5, k5_key), (q2, q2_key) = plan.values()
        assert base is cfg and base_key == "train.k"
        assert (k5.train_k, k5.truncation(), k5_key) == (5, cfg.truncation(), "train.k_sweep")
        assert q2.truncation() == TruncationSpec(mode="keep_top_q", q=2)
        assert (q2.train_k, q2_key) == (cfg.train_k, "train.k")

    def test_a_q_row_with_the_baseline_truncation_shares_its_world(self, monkeypatch):
        sets = ["svd.mode=keep_top_q", "svd.q=2", "svd.sweep=2,3", "train.k_sweep=2,3"]
        cfg = load_config(REFERENCE, sets)
        raw = world.generate_world(cfg.world)
        staged = _count_calls(monkeypatch, graph.stage_graph)
        tables = cli.compute_sweep(cfg, raw, make_transforms(cfg, raw))
        assert len(staged) == 2  # the baseline's world, which is also q=2's, then q=3's
        ((base, _reports),) = tables["baseline"]
        q_rows = {row["q"]: row for row, _reports in tables["sweep_q"]}
        assert q_rows[2]["alpha_q"] == base["alpha_q"]

    def test_stager_stages_once_under_contention(self, monkeypatch):
        # more threads than cores ask for one world at once: one stages, all share it
        calls = []

        def slow_stage_graph(world, transforms):
            calls.append(None)
            time.sleep(0.01)
            return object()

        monkeypatch.setattr(cli, "stage_graph", slow_stage_graph)
        monkeypatch.setattr(cli, "_stage_world", lambda cfg, raw: None)
        stage = cli._stager(None, [])
        cfg = SimpleNamespace(inflation_factor=1, seed=0, truncation=lambda: None)
        start = threading.Barrier(8)

        def ask():
            start.wait(timeout=10)
            return stage(cfg)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = [fut.result(timeout=10) for fut in [pool.submit(ask) for _ in range(8)]]
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 1
        assert all(g is got[0] for g in got)

    @pytest.mark.parametrize("which", ["t1, t3, t4, corollaries", "t1, t3, corollaries"])
    def test_one_probe_per_row(self, small_cfg, tmp_path, monkeypatch, which):
        # with t4 the spectral head is fitted in the same call as the trained one
        rows = _count_calls(monkeypatch, cli.compute_row)
        probes = _count_calls(monkeypatch, objectives.fit_linear_head)
        argv = ["run", "--config", small_cfg, "--out", str(tmp_path / "art")]
        assert main(argv + ["--set", f"bounds.which={which}"]) == 0
        assert len(rows) == 1 + 3 + 2
        assert len(probes) == len(rows)

    def test_t4_head_is_the_spectral_table_fitted_alone(self, small_cfg):
        cfg = load_config(small_cfg)
        raw = world.generate_world(cfg.world)
        stage = cli._stager(raw, make_transforms(cfg, raw))
        _row, reports, *_tables = cli.compute_row(cfg, stage, "baseline")
        (t4,) = [r for r in reports if r.theorem == "theorem4"]
        staged = stage(cfg)
        table = spectral_embedding(staged, cfg.train_k)
        f = Embedding(table=table, normalized=False)
        (alone,) = objectives.fit_linear_head(
            [f], staged.space, cfg.probe_steps, cfg.probe_step_size, cfg.probe_l2
        )
        assert t4.terms["probe_error"] == objectives.classification_error(f, alone, staged.space)
        assert t4.terms["head_frob_norm"] == alone.frob_norm

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


class TestSubcommands:
    def test_world_and_svd(self, small_cfg, tmp_path):
        out = str(tmp_path / "w")
        assert main(["world", "--config", small_cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "world", "manifest.txt"))
        out2 = str(tmp_path / "s")
        assert main(
            [
                "svd",
                "--config",
                small_cfg,
                "--out",
                out2,
                "--set",
                "svd.mode=keep_top_q",
                "--set",
                "svd.q=2",
            ]
        ) == 0
        assert os.path.exists(os.path.join(out2, "world", "manifest.txt"))

    @pytest.mark.parametrize("factor", [1, 2])
    def test_svd_writes_what_world_writes(self, small_cfg, tmp_path, factor):
        sets = ["--set", f"inflation.factor={factor}", "--set", "svd.mode=keep_top_q",
                "--set", "svd.q=2"]
        trees = []
        for command in ("svd", "world"):
            out = str(tmp_path / command)
            assert main([command, "--config", small_cfg, "--out", out, *sets]) == 0
            trees.append(_tree_bytes(out))
        assert trees[0] == trees[1]
        manifest = trees[0][os.path.join("world", "manifest.txt")].decode()
        cfg = load_config(small_cfg)
        assert manifest.count("original o") == factor * cfg.world.K * cfg.world.per_class

    def test_svd_requires_mode(self, small_cfg, tmp_path):
        out = str(tmp_path / "s")
        assert main(["svd", "--config", small_cfg, "--out", out]) == 2

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
        raw = world.generate_world(cfg.world)
        stage = cli._stager(raw, make_transforms(cfg, raw))
        baseline = cli.compute_row(cfg, stage, "baseline")
        _row, _reports, f, _head, space = baseline
        np.testing.assert_array_equal(load_matrix_text(tmp_path / "embedding.mat"), f.table)
        nodes = (tmp_path / "embedding_nodes.txt").read_text().splitlines()
        assert nodes == [f"n{i:04d}" for i in range(space.n)]


class TestErrors:
    def test_bad_config_exits_2(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[world]\nk = 1\n")
        assert main(["run", "--config", str(p)]) == 2

    def test_missing_config_exits_2(self):
        assert main(["run", "--config", "/no/such.ini"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_scale_exits_2(self, tmp_path, capsys, value):
        argv = ["graph", "--config", REFERENCE, "--out", str(tmp_path / "g")]
        assert main(argv + ["--set", f"world.noise_scale={value}"]) == 2
        assert "noise_scale" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("command", ["train", "probe"])
    def test_divergence_exits_2_with_one_named_error(self, tmp_path, command):
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        argv = [sys.executable, "-m", "ctlab.cli", command, "--config", REFERENCE]
        argv += ["--out", str(tmp_path / "d"), "--set", f"{command}.step_size=1e300"]
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

    @pytest.mark.parametrize("command", ["run", "graph"])
    def test_keep_top_q_without_q_exits_2_naming_svd_q(self, tmp_path, capsys, command):
        argv = [command, "--config", REFERENCE, "--out", str(tmp_path / "o")]
        assert main(argv + ["--set", "svd.mode=keep_top_q"]) == 2
        assert capsys.readouterr().err == "error: svd.q: required when mode = keep_top_q\n"

    @pytest.mark.parametrize("key, value", [("train.k", "99"), ("train.k_sweep", "2, 99")])
    def test_node_count_error_names_the_key_of_its_k(self, tmp_path, capsys, key, value):
        argv = ["sweep", "--config", REFERENCE, "--out", str(tmp_path / "o")]
        assert main(argv + ["--set", "svd.sweep=", "--set", f"{key}={value}"]) == 2
        assert capsys.readouterr().err == f"error: {key}: k=99 out of range [1, 54]\n"

    @pytest.mark.parametrize("command", ["run", "train", "probe", "bounds"])
    def test_every_row_command_checks_train_k_against_the_node_count(
        self, tmp_path, capsys, command
    ):
        out = tmp_path / "o"
        assert main([command, "--config", REFERENCE, "--out", str(out), "--set", "train.k=99"]) == 2
        assert capsys.readouterr().err == "error: train.k: k=99 out of range [1, 54]\n"
        assert list(out.iterdir()) == []  # no world, table or embedding is written

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
        with pytest.raises(SystemExit):
            main(["fly", "--config", small_cfg])
