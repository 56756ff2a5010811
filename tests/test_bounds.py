import itertools
from dataclasses import fields, replace

import numpy as np
import pytest

from ctlab import bounds
from ctlab.bounds import (
    BoundReport,
    EpsAlignment,
    SandwichTerms,
    alignment_eps,
    corollary_reports,
    lse_approx_error,
    measure_sandwich,
    report_to_text,
    theorem1_check,
    theorem3_check,
    theorem4_check,
    variance_terms,
)
from ctlab.cli import main
from ctlab.graph import spectral_embedding, stage_graph
from ctlab.objectives import (
    Embedding,
    LinearHead,
    McConfig,
    ce_risk,
    fit_linear_head,
    infonce_population,
    mean_head,
)
from ctlab.svd import TruncationSpec
from ctlab.world import (
    Transform,
    WorldSpec,
    build_augmented_space,
    generate_world,
    inflate,
    preprocess_world,
)
from oracles import (
    random_embedding,
    reference_spec,
    reference_transforms,
    reference_world,
    theorem4_at_probe_defaults,
    toy_transforms,
    toy_world,
)


def _fail(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return fail


def toy_space():
    return build_augmented_space(toy_world(), toy_transforms())


def constant_embedding(n, k=3):
    table = np.zeros((n, k))
    table[:, 0] = 1.0
    return Embedding(table=table, normalized=True)


def identity_only_space():
    w = reference_world()
    return build_augmented_space(
        w, [Transform("i", 1.0)]
    )


def reference_and_inflated_spaces():
    w = reference_world()
    noisy = generate_world(replace(reference_spec(), noise_scale=0.05))
    return (
        build_augmented_space(w, reference_transforms(w)),
        build_augmented_space(inflate(noisy, 4, seed=6), reference_transforms(noisy)),
    )


def alignment_eps_of_joint(f, space):
    """alignment_eps over a support recomputed from `joint > 0`."""
    F = f.table
    xs, ys = np.nonzero(space.joint > 0.0)
    dist = np.sqrt(np.sum((F[xs] - F[ys]) ** 2, axis=1))
    minus = np.flatnonzero(space.labels[xs] != space.labels[ys])
    if len(minus) == 0:
        return EpsAlignment(0.0, 0.0, empty=True)
    return EpsAlignment(eps_min=float(dist[minus].min()), eps_max=float(dist[minus].max()))


def all_sandwich_terms(f, space, M, cfg=McConfig()):
    """Every sandwich term measured, whatever the embedding's normalization."""
    nce, nce_se, exact = infonce_population(f, space, M, cfg)
    lse_mean, lse_std = lse_approx_error(f, space, M, cfg.replicates, cfg.seed)
    return dict(
        ce_mean=ce_risk(f, mean_head(f, space), space),
        infonce=nce,
        infonce_std_error=nce_se,
        infonce_exact=exact,
        variance=variance_terms(f, space),
        eps=alignment_eps_of_joint(f, space),
        envelope=lse_mean + 3.0 * lse_std + 3.0 * nce_se,
    )


def inflated8_space():
    noisy = generate_world(replace(reference_spec(), noise_scale=0.05))
    return build_augmented_space(inflate(noisy, 8, seed=6), reference_transforms(noisy))


TERMS = {f.name for f in fields(SandwichTerms)} - {"normalized"} | {"gap"}


class UnreadTerms(SandwichTerms):
    """SandwichTerms whose every term but `normalized` fails when read."""

    def __getattribute__(self, name):
        if name in TERMS:
            raise AssertionError(f"term {name} read")
        return super().__getattribute__(name)


def cube_variance_terms(f, space):
    """Variance terms with V_minus from the (n, n, k) anchor-by-positive cube."""
    head = mean_head(f, space)
    F = f.table
    mu_of = head.W.T[space.labels]
    dev = np.sum((F - mu_of) ** 2, axis=1)
    mask_plus = space.positive_mask()
    w_plus = np.where(mask_plus, space.joint, 0.0)
    w_minus = np.where(~mask_plus, space.joint, 0.0)
    mass_plus = float(w_plus.sum())
    mass_minus = float(w_minus.sum())
    V = float(w_plus.sum(axis=1) @ dev) / mass_plus
    V_minus = None
    if mass_minus > 0.0:
        diff = F[None, :, :] - mu_of[:, None, :]
        V_minus = float(np.sum(w_minus * np.sum(diff**2, axis=2))) / mass_minus
    branch_pos = float(np.sum(w_plus * dev[None, :])) / mass_plus
    V_neg = 0.5 * branch_pos + 0.5 * float(space.marginal @ dev)
    return (V, V_minus, V_neg)


def cube_alignment_eps(f, space):
    """Alignment terms from the (n, n, k) all-pairs difference cube."""
    F = f.table
    mask_minus = (~space.positive_mask()) & (space.joint > 0.0)
    dist = np.sqrt(np.sum((F[:, None, :] - F[None, :, :]) ** 2, axis=2))
    if not np.any(mask_minus):
        return EpsAlignment(0.0, 0.0, empty=True)
    minus = dist[mask_minus]
    return EpsAlignment(eps_min=float(minus.min()), eps_max=float(minus.max()))


def _fields(vt):
    return (vt.V, vt.V_minus, vt.V_neg)


def _parse_value(text):
    if text == "none":
        return None
    if text in ("true", "false"):
        return text == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read_reports(path):
    """Parse a bounds.txt into dicts of theorem, verdict, slack and terms."""
    reports = []
    for block in path.read_text().split("\n\n"):
        rep = {"terms": {}}
        for line in block.strip("\n").split("\n"):
            key, _, value = line.partition(" = ")
            if key.startswith("terms."):
                rep["terms"][key.removeprefix("terms.")] = _parse_value(value)
            else:
                rep[key] = _parse_value(value)
        reports.append(rep)
    return reports


def _as_stored(rep):
    return {
        "theorem": rep.theorem,
        "verdict": rep.verdict,
        "slack": rep.slack,
        "terms": rep.terms,
    }


def _recompute(theorem, t):
    """Independent (verdict, slack) of a report from its stored terms alone."""

    def ladder(slack, envelope):
        if slack >= 0.0:
            return "holds"
        return "violated_within_mc_error" if slack >= -envelope - 1e-12 else "violated"

    if theorem in ("theorem1", "theorem3"):
        assert t["gap"] == t["ce_mean"] - t["infonce"]
        if theorem == "theorem1":
            root = np.sqrt(t["V"]) + np.sqrt(t["V_minus"] or 0.0)
        else:
            eps = 0.0 if t["no_false_positives"] else t["eps_min"] + t["eps_max"]
            root = np.sqrt(t["V"]) + eps
        M, K, env = t["M"], t["K"], t["envelope"]
        assert t["upper"] == pytest.approx(root + env - np.log(M / K), abs=1e-12)
        lower = -root - 0.5 * t["V_neg"] - env - np.log((M + 1) / K)
        assert t["lower"] == pytest.approx(lower, abs=1e-12)
        slack = min(t["upper"] - t["gap"], t["gap"] - t["lower"])
        return ladder(slack, env), slack
    if theorem.startswith("corollary_"):
        if "upper" not in t:  # zero head: verdict withheld
            return "holds_vacuously", 0.0
        assert t["gap_linear"] == t["ce_linear"] - t["infonce"]
        margin = t["upper"] - t["gap_linear"]
        if not t["head_vs_mean_ok"]:
            return "violated", min(margin, t["ce_mean"] + 1e-3 - t["ce_linear"])
        return ladder(margin, t["envelope"]), margin
    assert theorem == "theorem4"
    bound, err, alpha = t["bound"], t["probe_error"], t["alpha_q"]
    if bound is None:
        return "holds_vacuously", 0.0
    assert bound == 4.0 * alpha / t["lambda_k1_q"] + 8.0 * alpha
    if bound >= 1.0:
        return "holds_vacuously", bound - err
    return ("holds" if bound >= err else "violated"), bound - err


class TestVarianceTerms:
    def test_constant_embedding_vanishes(self):
        space = toy_space()
        vt = variance_terms(constant_embedding(space.n), space)
        assert vt.V == 0.0
        assert vt.V_minus == 0.0
        assert vt.V_neg == 0.0

    def test_no_false_positives_drops_v_minus(self):
        space = identity_only_space()
        vt = variance_terms(random_embedding(space.n, 3, seed=1), space)
        assert vt.V_minus is None

    def test_brute_force_oracle(self):
        space = toy_space()
        f = random_embedding(space.n, 3, seed=8)
        F = f.table
        head = mean_head(f, space)
        mu = head.W.T[space.labels]
        vt = variance_terms(f, space)
        v_num = vm_num = v_mass = vm_mass = 0.0
        for x in range(space.n):
            for y in range(space.n):
                pw = space.joint[x, y]
                if pw == 0:
                    continue
                d = float(np.sum((F[y] - mu[x]) ** 2))
                if space.labels[x] == space.labels[y]:
                    v_num += pw * float(np.sum((F[x] - mu[x]) ** 2))
                    v_mass += pw
                else:
                    vm_num += pw * d
                    vm_mass += pw
        assert abs(vt.V - v_num / v_mass) < 1e-12
        assert abs(vt.V_minus - vm_num / vm_mass) < 1e-12

    @pytest.mark.parametrize("normalized", [True, False])
    def test_matches_cube_oracle_bit_for_bit(self, normalized):
        for space in reference_and_inflated_spaces():
            for seed in range(4):
                for k in (1, 3, 8):
                    f = random_embedding(space.n, k, seed=seed, normalized=normalized)
                    assert _fields(variance_terms(f, space)) == cube_variance_terms(f, space)


class TestLseApproxError:
    def test_constant_embedding_exact(self):
        space = toy_space()
        mean, std = lse_approx_error(constant_embedding(space.n), space, 2, 4, 0)
        assert mean == 0.0
        assert std == 0.0

    def test_deterministic(self):
        space = toy_space()
        f = random_embedding(space.n, 3, seed=2)
        assert lse_approx_error(f, space, 3, 6, 5) == lse_approx_error(f, space, 3, 6, 5)

    def test_error_shrinks_with_m(self):
        space = toy_space()
        f = random_embedding(space.n, 3, seed=2)
        small, _ = lse_approx_error(f, space, 1, 64, 0)
        large, _ = lse_approx_error(f, space, 256, 64, 0)
        assert large < small

    def test_validation(self):
        space = toy_space()
        f = constant_embedding(space.n)
        with pytest.raises(ValueError):
            lse_approx_error(f, space, 1, 1, 0)
        with pytest.raises(ValueError):
            lse_approx_error(f, space, 0, 2, 0)


class TestAlignmentEps:
    def test_constant_embedding(self):
        space = toy_space()
        eps = alignment_eps(constant_embedding(space.n), space)
        assert not eps.empty
        assert eps.eps_min == 0.0
        assert eps.eps_max == 0.0

    def test_exhaustive_oracle(self):
        space = toy_space()
        f = random_embedding(space.n, 3, seed=4)
        F = f.table
        dists = []
        for x in range(space.n):
            for y in range(space.n):
                if space.joint[x, y] > 0 and space.labels[x] != space.labels[y]:
                    dists.append(float(np.linalg.norm(F[x] - F[y])))
        eps = alignment_eps(f, space)
        assert abs(eps.eps_min - min(dists)) < 1e-12
        assert abs(eps.eps_max - max(dists)) < 1e-12

    def test_empty_false_positive_support(self):
        space = identity_only_space()
        eps = alignment_eps(random_embedding(space.n, 3, seed=1), space)
        assert eps.empty
        assert eps.eps_min == 0.0 and eps.eps_max == 0.0

    def test_matches_cube_oracle_bit_for_bit(self):
        spaces = reference_and_inflated_spaces() + (identity_only_space(),)
        for space in spaces:
            for seed in range(4):
                for k in (1, 3, 8):
                    f = random_embedding(space.n, k, seed=seed)
                    assert alignment_eps(f, space) == cube_alignment_eps(f, space)

    def test_matches_support_recomputed_per_call(self):
        spaces = reference_and_inflated_spaces() + (inflated8_space(), identity_only_space())
        for space in spaces:
            for seed, normalized in itertools.product(range(3), (True, False)):
                f = random_embedding(space.n, 3, seed=seed, normalized=normalized)
                assert alignment_eps(f, space) == alignment_eps_of_joint(f, space)

    def test_all_zero_distances(self):
        # every distance is 0 over a nonempty false-positive support
        for space in (toy_space(),) + reference_and_inflated_spaces():
            f = constant_embedding(space.n)
            assert alignment_eps(f, space) == EpsAlignment(0.0, 0.0)
            assert alignment_eps(f, space) == cube_alignment_eps(f, space)


class TestSandwich:
    def test_constant_embedding_sits_on_lower_edge(self):
        # gap = log K - log(M + 1) equals the lower bound exactly and the
        # measured envelope is 0
        space = toy_space()
        f = constant_embedding(space.n)
        rep = theorem1_check(measure_sandwich(f, space, M=1))
        assert rep.verdict == "holds"
        assert abs(rep.slack) < 1e-12
        assert abs(rep.terms["gap"]) < 1e-12  # log 2 - log 2
        assert rep.terms["envelope"] < 1e-12
        assert rep.terms["infonce_exact"]

    def test_random_embeddings_hold(self):
        space = toy_space()
        for seed in range(30):
            f = random_embedding(space.n, 3, seed=seed)
            for M in (1, 2):
                rep = theorem1_check(measure_sandwich(f, space, M))
                assert rep.verdict == "holds", (seed, M, rep)

    def test_slack_recomputable_from_terms(self, small_cfg, tmp_path):
        space = toy_space()
        f = random_embedding(space.n, 4, seed=3)
        rep = theorem1_check(measure_sandwich(f, space, 2))
        t = rep.terms
        want = min(t["upper"] - t["gap"], t["gap"] - t["lower"])
        assert abs(rep.slack - want) < 1e-12
        # every report a full pipeline run writes, from its stored text alone
        out = tmp_path / "art"
        assert main(["run", "--config", small_cfg, "--out", str(out)]) == 0
        stored = _read_reports(out / "bounds.txt")
        assert {r["theorem"] for r in stored} == {
            "theorem1",
            "theorem3",
            "theorem4",
            "corollary_theorem1",
            "corollary_theorem3",
        }
        for r in [_as_stored(rep)] + stored:
            assert _recompute(r["theorem"], r["terms"]) == (r["verdict"], r["slack"]), r

    def test_consistent_space_note(self):
        space = identity_only_space()
        f = random_embedding(space.n, 3, seed=0)
        rep = theorem1_check(measure_sandwich(f, space, 1))
        assert rep.terms["V_minus"] is None
        assert "V_minus absent" in rep.note

    def test_requires_normalized(self):
        space = toy_space()
        f = Embedding(np.ones((space.n, 2)), normalized=False)
        terms = measure_sandwich(f, space, 1)
        with pytest.raises(ValueError):
            theorem1_check(terms)
        with pytest.raises(ValueError):
            theorem3_check(terms)

    @pytest.mark.parametrize("which", ["toy", "reference", "inflated8"])
    def test_unnormalized_terms_skip_only_what_no_check_reads(self, which, monkeypatch):
        if which == "toy":
            staged, k = stage_graph(toy_world(), toy_transforms()), 2
        else:
            if which == "reference":
                raw = world = reference_world()
            else:
                raw = generate_world(replace(reference_spec(), noise_scale=0.05))
                world = inflate(raw, 8, seed=6)
            staged, k = stage_graph(world, reference_transforms(raw)), 3
        space, cfg = staged.space, McConfig(samples=3000, seed=4)
        for table in (
            random_embedding(space.n, k, seed=5, normalized=False).table,
            spectral_embedding(staged, k),
        ):
            f = Embedding(table, normalized=False)
            want = all_sandwich_terms(f, space, 1, cfg)
            with monkeypatch.context() as m:
                for name in ("variance_terms", "lse_approx_error"):
                    m.setattr(bounds, name, _fail(name))
                t = measure_sandwich(f, space, 1, cfg)
            assert t.variance is None and t.envelope is None and not t.normalized
            for key in ("ce_mean", "infonce", "infonce_std_error", "infonce_exact", "eps"):
                assert getattr(t, key) == want[key], key
            assert t.infonce_exact == (space.n <= cfg.n_max)

    def test_normalized_terms_are_all_measured(self):
        space = reference_and_inflated_spaces()[0]
        f = random_embedding(space.n, 3, seed=5)
        t = measure_sandwich(f, space, 1)
        want = all_sandwich_terms(f, space, 1)
        for key in want:
            assert getattr(t, key) == want[key], key

    def test_checks_refuse_unnormalized_terms_before_reading_any(self):
        terms = {f.name: None for f in fields(SandwichTerms)}
        t = UnreadTerms(**{**terms, "normalized": False})
        head = LinearHead(W=np.ones((3, 2)))
        calls = [
            ("theorem1_check", lambda: theorem1_check(t)),
            ("theorem3_check", lambda: theorem3_check(t)),
            ("corollary_reports", lambda: corollary_reports(t, head, 0.5)),
            ("corollary_reports", lambda: corollary_reports(t, LinearHead(W=np.zeros((3, 2))), 0.5)),
        ]
        for name, call in calls:
            with pytest.raises(ValueError, match=f"^{name}: embedding must be normalized$"):
                call()

    def test_alignment_variant_holds(self):
        space = toy_space()
        for seed in range(30):
            f = random_embedding(space.n, 3, seed=seed)
            rep = theorem3_check(measure_sandwich(f, space, 1))
            assert rep.verdict == "holds", (seed, rep)

    def test_alignment_variant_consistent_reduction(self):
        space = identity_only_space()
        f = random_embedding(space.n, 3, seed=2)
        rep = theorem3_check(measure_sandwich(f, space, 1))
        assert rep.terms["no_false_positives"]
        assert "consistent form" in rep.note


class TestDownstreamBound:
    def test_toy_values(self):
        rep = theorem4_at_probe_defaults(stage_graph(toy_world(), toy_transforms()), k=2)
        t = rep.terms
        assert abs(t["alpha_q"] - 0.25) < 1e-12
        assert abs(t["lambda_k_q"] - 0.5) < 1e-12
        assert abs(t["lambda_k1_q"] - 1.0) < 1e-12
        assert abs(t["bound"] - 3.0) < 1e-12  # 4*alpha/lambda_3 + 8*alpha
        assert t["probe_error"] == 0.0
        assert rep.verdict == "holds_vacuously"
        assert "bound >= 1" in rep.note

    def test_error_free_world_meets_zero_bound(self):
        spec = WorldSpec(
            K=3, per_class=2, m=12, m_prime=12, q_star=3,
            nuisance_rank=1, nuisance_confusion=0.0, noise_scale=0.0, seed=11,
        )
        w = generate_world(spec)
        from ctlab.world import class_pattern

        # flips at rho < 1/2 never cross the boundary on clean payloads
        transforms = [Transform("i", 0.64)]
        for c in range(3):
            transforms.append(
                Transform(f"flip_{c}", 0.12, shift=class_pattern(w, c, (c + 1) % 3, 0.35))
            )
        rep = theorem4_at_probe_defaults(stage_graph(w, transforms), k=3)
        assert rep.terms["alpha_q"] == 0.0
        assert rep.terms["bound"] == 0.0
        assert rep.terms["probe_error"] == 0.0
        assert rep.verdict == "holds"

    def test_reference_world_at_semantic_rank(self):
        w = reference_world()
        transforms = reference_transforms(w)
        wq = preprocess_world(w, TruncationSpec(mode="keep_top_q", q=3))
        rep = theorem4_at_probe_defaults(stage_graph(wq, transforms), k=3)
        t = rep.terms
        assert abs(t["alpha_q"] - 0.04) < 1e-9
        assert t["bound"] < 1.0
        assert t["probe_error"] == 0.0
        assert rep.verdict == "holds"

    def test_zero_lambda_leaves_bound_undefined(self):
        w = reference_world()
        identity = [Transform("i", 1.0)]
        rep = theorem4_at_probe_defaults(stage_graph(w, identity), k=1)
        assert rep.verdict == "holds_vacuously"
        assert rep.terms["bound"] is None
        assert "undefined" in rep.note

    def test_k_validated(self):
        head = LinearHead(W=np.zeros((2, 2)))
        staged = stage_graph(toy_world(), toy_transforms())
        with pytest.raises(ValueError):
            theorem4_check(staged, Embedding(np.zeros((staged.space.n, 0)), False), head)
        with pytest.raises(ValueError):
            theorem4_check(staged, Embedding(np.zeros((staged.space.n, 99)), False), head)

    def test_head_shape_validated(self):
        # a head fitted on a table of another width cannot score the k-column one
        staged = stage_graph(toy_world(), toy_transforms())
        with pytest.raises(ValueError, match=r"head shape \(1, 2\) is not \(k, K\) = \(2, 2\)"):
            spectral = Embedding(spectral_embedding(staged, 2), False)
            theorem4_check(staged, spectral, LinearHead(W=np.zeros((1, 2))))


class TestCorollaries:
    def test_zero_head_withheld(self):
        space = toy_space()
        f = random_embedding(space.n, 3, seed=1)
        head = LinearHead(W=np.zeros((3, 2)))
        reports = corollary_reports(
            measure_sandwich(f, space, 1, McConfig()), head, ce_risk(f, head, space)
        )
        assert len(reports) == 2
        for rep in reports:
            assert rep.verdict == "holds_vacuously"
            assert "optimization-inadequate" in rep.note

    def test_fitted_head_holds(self):
        space = toy_space()
        f = random_embedding(space.n, 3, seed=6)
        (head,) = fit_linear_head([f], space, steps=300, step_size=2.0)
        reports = corollary_reports(
            measure_sandwich(f, space, 1, McConfig()), head, ce_risk(f, head, space)
        )
        assert [r.theorem for r in reports] == [
            "corollary_theorem1",
            "corollary_theorem3",
        ]
        for rep in reports:
            assert rep.verdict == "holds", rep
            assert rep.terms["head_vs_mean_ok"]
            assert rep.terms["ce_linear"] <= rep.terms["ce_mean"] + 1e-3


class TestReportText:
    def test_stable_and_complete(self):
        rep = BoundReport(
            theorem="demo",
            verdict="holds",
            slack=0.5,
            terms={"b": 1.0, "a": None, "c": True},
            note="",
        )
        text = report_to_text(rep)
        assert text == (
            "theorem = demo\n"
            "verdict = holds\n"
            "slack = 0.5\n"
            "terms.a = none\n"
            "terms.b = 1.0\n"
            "terms.c = true\n"
            "note = \n"
        )

    def test_floats_round_trip(self):
        rep = BoundReport(
            theorem="demo", verdict="holds", slack=1.0 / 3.0, terms={"x": 0.1 + 0.2}
        )
        text = report_to_text(rep)
        line = [l for l in text.splitlines() if l.startswith("terms.x")][0]
        assert float(line.split(" = ")[1]) == 0.1 + 0.2
