"""Acceptance gate: the twelve headline checks, one printed line each.

Each test prints "[PASS] criterion N: ..." through the capture-disabled
stream so the lines are visible in a plain pytest run, then asserts the
same condition so a failure is also a test failure.
"""

import os
import time

import numpy as np
import pytest

from ctlab.bounds import measure_sandwich, theorem1_check
from ctlab.cli import compute_sweep, main
from ctlab.config import load_config, make_transforms
from ctlab.graph import connected_components, spectral_embedding, stage_graph
from ctlab.objectives import (
    Embedding,
    McConfig,
    ce_risk,
    fit_linear_head,
    mean_head,
    spectral_loss,
    train_free_embeddings,
)
from ctlab.svd import TruncationSpec, svd_full, svd_truncate
from ctlab.world import (
    Transform,
    WorldSpec,
    build_augmented_space,
    class_pattern,
    generate_world,
    inflate,
    labeling_error,
    preprocess_world,
)
from oracles import (
    eckart_young_check,
    infonce_empirical,
    infonce_gradient,
    random_embedding,
    reference_transforms,
    reference_world,
    theorem4_at_probe_defaults,
    toy_transforms,
    toy_world,
)

REFERENCE_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "reference.ini")


def _announce(capsys, ok, num, desc, detail=""):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{status}] criterion {num:2d}: {desc}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def _spaces_catalog():
    """Fixture spaces spanning the structural regimes."""
    catalog = []
    toy = toy_world()
    catalog.append(("toy", toy, toy_transforms()))
    ref = reference_world()
    ref_tr = reference_transforms(ref)
    catalog.append(("reference_raw", ref, ref_tr))
    for q in (2, 3):
        wq = preprocess_world(ref, TruncationSpec(mode="keep_top_q", q=q))
        catalog.append((f"reference_q{q}", wq, ref_tr))
    catalog.append(
        ("identity_only", ref, [Transform("i", 1.0)])
    )
    spec = WorldSpec(
        K=2, per_class=1, m=6, m_prime=6, q_star=2,
        nuisance_rank=1, nuisance_confusion=0.9, noise_scale=0.0, seed=3,
    )
    small = generate_world(spec)
    small_tr = [
        Transform("i", 0.4),
        Transform("f01", 0.2, shift=class_pattern(small, 0, 1, 0.35)),
        Transform("f10", 0.2, shift=class_pattern(small, 1, 0, 0.35)),
        Transform("b01", 0.1, shift=class_pattern(small, 0, 1, -0.65)),
        Transform("b10", 0.1, shift=class_pattern(small, 1, 0, -0.65)),
    ]
    catalog.append(("small", small, small_tr))
    return catalog


def test_01_rank_q_optimality(capsys):
    t0 = time.time()
    rng = np.random.default_rng(20260823)
    ok = True
    detail = ""
    for i in range(100):
        m = int(rng.integers(2, 33))
        mp = int(rng.integers(2, 33))
        X = rng.normal(size=(m, mp))
        F = svd_full(X)
        r = min(m, mp)
        for q in range(1, min(8, r) + 1):
            Xq = svd_truncate(F, TruncationSpec(mode="keep_top_q", q=q))
            err2 = float(np.sum((X - Xq) ** 2))
            tail = float(np.sum(F.S[q:] ** 2))
            if abs(err2 - tail) > 1e-8 * max(tail, 1e-12 * float(F.S[0] ** 2)):
                ok, detail = False, f"tail identity off at matrix {i} q {q}"
        q_comp = (i % min(8, r)) + 1
        rep = eckart_young_check(X, q_comp, trials=100, seed=i)
        if not rep.holds:
            ok, detail = False, f"competitor beat truncation at matrix {i}"
    elapsed = time.time() - t0
    if elapsed > 10.0:
        ok, detail = False, f"took {elapsed:.1f}s > 10s"
    _announce(capsys, ok, 1,
              "truncated SVD optimal vs 100 competitors, tail-sum identity "
              "at 1e-8 relative on 100 matrices (<= 10 s)", detail)


def test_02_spectrum_sanity(capsys):
    t0 = time.time()
    ok = True
    detail = ""
    graphs = []
    for name, world, transforms in _spaces_catalog():
        graphs.append((name, stage_graph(world, transforms)))
    inflated = inflate(reference_world(), 3)
    graphs.append(("inflated", stage_graph(inflated, reference_transforms(reference_world()))))
    for name, G in graphs:
        vals = G.spectrum.values
        if vals[0] < -1e-8 or vals[0] > 1e-8:
            ok, detail = False, f"{name}: lambda_1 = {vals[0]}"
        if vals[-1] > 2.0 + 1e-8:
            ok, detail = False, f"{name}: lambda_max = {vals[-1]}"
        zeros = int(np.sum(vals < 1e-8))
        comps = connected_components(G.space.joint)
        if zeros != comps:
            ok, detail = False, f"{name}: {zeros} null directions vs {comps} components"
    elapsed = time.time() - t0
    if elapsed > 30.0:
        ok, detail = False, f"took {elapsed:.1f}s > 30s"
    _announce(capsys, ok, 2,
              "Laplacian spectra in [0, 2], zero-eigenvalue multiplicity = "
              "component count on every fixture graph (<= 30 s)", detail)


def test_03_toy_world_exactness(capsys):
    w = toy_world()
    G = stage_graph(w, toy_transforms())
    e = 1.0 / 8.0
    ok = True
    detail = ""
    if np.abs(G.space.joint - np.array([[e, e, 0], [e, 2 * e, e], [0, e, e]])).max() > 1e-10:
        ok, detail = False, "adjacency"
    vals = G.spectrum.values
    if np.abs(vals - np.array([0.0, 0.5, 1.0])).max() > 1e-10:
        ok, detail = False, f"spectrum {vals}"
    alpha = labeling_error(G.space, w)
    if abs(alpha - 0.25) > 1e-10:
        ok, detail = False, f"alpha {alpha}"
    f = spectral_embedding(G, 2)
    if np.abs(f - np.array([[1.0, 1.0], [1.0, 0.0], [1.0, -1.0]])).max() > 1e-10:
        ok, detail = False, "embedding"
    rep = theorem4_at_probe_defaults(G, k=2)
    if abs(rep.terms["bound"] - 3.0) > 1e-10 or rep.terms["probe_error"] != 0.0:
        ok, detail = False, f"downstream bound {rep.terms}"
    _announce(capsys, ok, 3,
              "hand-checkable 3-node world: adjacency, spectrum, labeling "
              "error, embedding, and bound all exact to 1e-10", detail)


def test_04_spectral_trainer_matches_closed_form(capsys):
    t0 = time.time()
    ok = True
    detail = ""
    cases = []
    catalog = _spaces_catalog()
    ks = [2, 3, 4, 5, 6, 7, 8]
    for i, (name, world, transforms) in enumerate(catalog):
        G = stage_graph(world, transforms)
        k = min(ks[i % len(ks)], G.space.n)
        cases.append((name, G.space, G, k))
    # pad to 10 graphs with further k choices on the reference space
    ref = reference_world()
    ref_G = stage_graph(ref, reference_transforms(ref))
    for k in (2, 5, 8, 6):
        if len(cases) >= 10:
            break
        cases.append((f"reference_k{k}", ref_G.space, ref_G, k))
    assert len(cases) == 10
    for name, space, G, k in cases:
        gammas = np.clip(1.0 - G.spectrum.values[:k], 0.0, None)
        closed = -float(np.sum(gammas**2))
        f = train_free_embeddings(space, k, "spectral", 4000, 0.5, seed=1)
        trained = spectral_loss(f, space)
        if trained > closed + 1e-3 or trained < closed - 1e-9:
            ok, detail = False, f"{name} k={k}: trained {trained} vs closed {closed}"
    elapsed = time.time() - t0
    if elapsed > 120.0:
        ok, detail = False, f"took {elapsed:.1f}s > 120s"
    _announce(capsys, ok, 4,
              "gradient-trained spectral loss within 1e-3 of the closed-form "
              "optimum on 10 graphs (<= 2 min)", detail)


def test_05_infonce_gradient_check(capsys):
    rng = np.random.default_rng(77)
    ok = True
    detail = ""
    h = 1e-5
    for trial in range(20):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(2, 5))
        M = int(rng.integers(1, 4))
        B = int(rng.integers(2, 7))
        table = rng.normal(size=(n, k))
        batch = np.array([
            [int(rng.integers(n)), int(rng.integers(n))]
            + [int(rng.integers(n)) for _ in range(M)]
            for _ in range(B)
        ])
        f = Embedding(table, normalized=False)
        g = infonce_gradient(f, batch)
        fd = np.zeros_like(table)
        for i in range(n):
            for j in range(k):
                tp = table.copy()
                tp[i, j] += h
                tm = table.copy()
                tm[i, j] -= h
                fd[i, j] = (
                    infonce_empirical(Embedding(tp, False), batch)
                    - infonce_empirical(Embedding(tm, False), batch)
                ) / (2 * h)
        rel = np.abs(g - fd).max() / max(1.0, np.abs(fd).max())
        if rel > 1e-5:
            ok, detail = False, f"trial {trial}: rel error {rel}"
    _announce(capsys, ok, 5,
              "analytic InfoNCE gradient matches central differences "
              "(h = 1e-5) at 1e-5 relative on 20 random batches", detail)


def test_06_sandwich_never_violated(capsys):
    t0 = time.time()
    ok = True
    detail = ""
    checked = 0
    mc = McConfig(samples=4000, replicates=6, seed=0, n_max=60, m_max=2)
    for name, world, transforms in _spaces_catalog():
        space = build_augmented_space(world, transforms)
        for seed in range(12):
            f = random_embedding(space.n, 3 + seed % 3, seed=1000 * seed + space.n)
            for M in (1, 2, 5):
                rep = theorem1_check(measure_sandwich(f, space, M, mc))
                checked += 1
                if rep.verdict == "violated":
                    ok, detail = False, f"{name} seed {seed} M {M}: {rep}"
    if checked < 200:
        ok, detail = False, f"only {checked} sandwich checks"
    elapsed = time.time() - t0
    if elapsed > 300.0:
        ok, detail = False, f"took {elapsed:.1f}s > 300s"
    _announce(capsys, ok, 6,
              f"two-sided CE/InfoNCE sandwich: {checked} embedding/space/M "
              "combinations, zero hard violations (<= 5 min)", detail)


def test_07_downstream_bound_planted_suite(capsys):
    ok = True
    detail = ""
    nonvacuous = 0
    reports = []
    # error-free configurations: no nuisance confusion, flips below threshold
    for seed in (11, 12):
        spec = WorldSpec(
            K=3, per_class=2, m=12, m_prime=12, q_star=3,
            nuisance_rank=1, nuisance_confusion=0.0, noise_scale=0.0, seed=seed,
        )
        w = generate_world(spec)
        transforms = [Transform("i", 0.64)]
        for c in range(3):
            transforms.append(
                Transform(f"f{c}", 0.12, shift=class_pattern(w, c, (c + 1) % 3, 0.35))
            )
        rep = theorem4_at_probe_defaults(stage_graph(w, transforms), k=3)
        reports.append((f"clean_seed{seed}", rep))
        if rep.terms["alpha_q"] != 0.0 or rep.terms["probe_error"] != 0.0:
            ok, detail = False, f"clean world seed {seed}: {rep.terms}"
    # truncated reference worlds: small alpha, non-vacuous bound
    for seed in (11, 12, 13):
        w = reference_world(seed)
        transforms = reference_transforms(w)
        wq = preprocess_world(w, TruncationSpec(mode="keep_top_q", q=3))
        rep = theorem4_at_probe_defaults(stage_graph(wq, transforms), k=3)
        reports.append((f"reference_seed{seed}", rep))
    # the vacuous regime must be flagged, not silently passed
    toy = stage_graph(toy_world(), toy_transforms())
    reports.append(("toy", theorem4_at_probe_defaults(toy, k=2)))
    for name, rep in reports:
        if rep.verdict not in ("holds", "holds_vacuously"):
            ok, detail = False, f"{name}: verdict {rep.verdict}"
        bound = rep.terms.get("bound")
        if bound is not None and bound < 1.0:
            nonvacuous += 1
            if rep.terms["probe_error"] > bound:
                ok, detail = False, f"{name}: error above bound"
    if nonvacuous < 3:
        ok, detail = False, f"only {nonvacuous} non-vacuous cases"
    _announce(capsys, ok, 7,
              "downstream error bound holds across the planted suite with "
              f"{nonvacuous} non-vacuous cases and exact zero-error worlds", detail)


@pytest.fixture(scope="module")
def reference_run():
    cfg = load_config(REFERENCE_CONFIG)
    world = generate_world(cfg.world)
    transforms = make_transforms(cfg, world)
    tables = compute_sweep(cfg, world, transforms, threads=2)
    q_rows = [row for row, _ in tables["sweep_q"]]
    k_rows = [row for row, _ in tables["sweep_k"]]
    return cfg, q_rows, k_rows


def test_08_rank_sweep_interior_minimum(capsys, reference_run):
    _cfg, q_rows, _k_rows = reference_run
    ok = True
    detail = ""
    by_q = {row["q"]: row for row in q_rows if row["q"] is not None}
    if sorted(by_q) != [1, 2, 3, 4]:
        ok, detail = False, f"unexpected sweep rows {sorted(by_q)}"
    else:
        alphas = {q: by_q[q]["alpha_q"] for q in by_q}
        if abs(alphas[3] - 0.04) > 1e-9:
            ok, detail = False, f"alpha at the planted rank is {alphas[3]}"
        if not all(alphas[3] < alphas[q] - 1e-9 for q in (1, 2, 4)):
            ok, detail = False, f"alpha not uniquely minimized at 3: {alphas}"
        errs = {q: by_q[q]["probe_error"] for q in by_q}
        if not (errs[3] < errs[2] - 1e-9 and errs[3] < errs[4] - 1e-9):
            ok, detail = False, f"probe error not an interior minimum: {errs}"
        if min(errs, key=errs.get) != 3:
            ok, detail = False, f"probe error argmin is not the planted rank: {errs}"
    _announce(capsys, ok, 8,
              "rank sweep: labeling error exactly 0.04 and uniquely minimal "
              "at the planted rank, probe error has an interior minimum there",
              detail)


def test_09_k_sweep_interior_minimum(capsys, reference_run):
    _cfg, _q_rows, k_rows = reference_run
    ok = True
    detail = ""
    ks = [row["k"] for row in k_rows]
    if ks != list(range(1, 9)):
        ok, detail = False, f"unexpected k rows {ks}"
    else:
        errs = [row["probe_error"] for row in k_rows]
        best = int(np.argmin(errs))
        if best in (0, len(errs) - 1):
            ok, detail = False, f"probe error minimized at an endpoint: {errs}"
        lam = [row["lambda_k1_q"] for row in k_rows]
        # ascending eigenvalue levels: the (k+1)-th level cannot decrease in k
        diffs = np.diff(np.array(lam, dtype=float))
        if np.any(diffs < -1e-10):
            ok, detail = False, f"lambda_(k+1) not monotone across k: {lam}"
    _announce(capsys, ok, 9,
              "dimension sweep: probe error has a strict interior minimum "
              "and the lambda_(k+1) column is monotone in k", detail)


def test_10_inflation_preserves_spectrum(capsys):
    ok = True
    detail = ""
    w = reference_world()
    transforms = reference_transforms(w)
    G0 = stage_graph(w, transforms)
    G4 = stage_graph(inflate(w, 4), transforms)
    v0 = G0.spectrum.values
    v4 = G4.spectrum.values
    if G0.space.n != G4.space.n:
        ok, detail = False, f"node count changed: {G0.space.n} -> {G4.space.n}"
    else:
        k = 3
        if v4[k] < v0[k] - 1e-8:
            ok, detail = False, f"lambda_(k+1) dropped: {v0[k]} -> {v4[k]}"
        if np.abs(v4 - v0).max() > 1e-8:
            ok, detail = False, "spectrum moved beyond 1e-8"
    _announce(capsys, ok, 10,
              "4x synthetic inflation of the noise-free world leaves the "
              "Laplacian spectrum (and lambda_(k+1)) unchanged within 1e-8",
              detail)


def test_11_cli_runs_byte_identical(capsys, tmp_path):
    ok = True
    detail = ""
    outs = []
    for i, threads in enumerate(("1", "3")):
        out = str(tmp_path / f"run{i}")
        rc = main(["run", "--config", REFERENCE_CONFIG, "--out", out,
                   "--threads", threads])
        if rc != 0:
            ok, detail = False, f"run {i} exited {rc}"
        outs.append(out)
    if ok:
        for root, _dirs, files in os.walk(outs[0]):
            for name in files:
                a = os.path.join(root, name)
                b = os.path.join(outs[1], os.path.relpath(a, outs[0]))
                if not os.path.exists(b) or open(a, "rb").read() != open(b, "rb").read():
                    ok, detail = False, f"artifact differs: {name}"
    _announce(capsys, ok, 11,
              "two full pipeline runs (1 and 3 worker threads) produce "
              "byte-identical artifact trees", detail)


def test_12_linear_head_tracks_mean_head(capsys):
    ok = True
    detail = ""
    checked = 0
    for name, world, transforms in _spaces_catalog():
        space = build_augmented_space(world, transforms)
        for seed in (0, 1):
            f = train_free_embeddings(space, 3, "infonce", 30, 1.0, seed=seed)
            (head,) = fit_linear_head([f], space, 300, 2.0, 0.0)
            ce_lin = ce_risk(f, head, space)
            ce_mu = ce_risk(f, mean_head(f, space), space)
            checked += 1
            if ce_lin > ce_mu + 1e-3:
                ok, detail = False, f"{name} seed {seed}: {ce_lin} > {ce_mu} + 1e-3"
    _announce(capsys, ok, 12,
              f"fitted linear head never does worse than the mean head by "
              f"more than 1e-3 CE on {checked} trained fixtures", detail)
