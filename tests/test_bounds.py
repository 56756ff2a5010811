import inspect
import itertools
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctlab import bounds, cli
from ctlab.bounds import (
    BoundReport,
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
from ctlab.config import load_config
from ctlab.graph import spectral_embedding, stage_graph
from ctlab.objectives import (
    McConfig,
    ce_risk,
    fit_linear_head,
    infonce_population,
    mean_head,
    train_free_embeddings,
)
from ctlab.svd import TruncationSpec
from ctlab.world import (
    Transform,
    WorldSpec,
    build_augmented_space,
    generate_world,
    preprocess_world,
)
from oracles import (
    REFERENCE_CONFIG,
    positive_mask,
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
    return table


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
        build_augmented_space(generate_world(noisy.spec, 4, 6), reference_transforms(noisy)),
    )


def alignment_eps_of_joint(F, space):
    """alignment_eps over a support recomputed from `joint > 0`."""
    xs, ys = np.nonzero(space.joint > 0.0)
    dist = np.sqrt(np.sum((F[xs] - F[ys]) ** 2, axis=1))
    minus = np.flatnonzero(space.labels[xs] != space.labels[ys])
    if len(minus) == 0:
        return None, None
    return float(dist[minus].min()), float(dist[minus].max())


def all_sandwich_terms(f, space, M, cfg=McConfig()):
    """Every sandwich term measured, whatever the embedding's normalization."""
    nce, nce_se, exact = infonce_population(f, space, M, cfg)
    lse_mean, lse_std = lse_approx_error(f, space, M, cfg.replicates, cfg.seed)
    V, V_minus, V_neg = variance_terms(f, space, mean_head(f, space))
    eps_min, eps_max = alignment_eps_of_joint(f, space)
    return dict(
        ce_mean=ce_risk(f, mean_head(f, space), space),
        infonce=nce,
        infonce_std_error=nce_se,
        infonce_exact=exact,
        eps_min=eps_min,
        eps_max=eps_max,
        V=V,
        V_minus=V_minus,
        V_neg=V_neg,
        envelope=lse_mean + 3.0 * lse_std + 3.0 * nce_se,
    )


def inflated8_space():
    noisy = generate_world(replace(reference_spec(), noise_scale=0.05))
    return build_augmented_space(generate_world(noisy.spec, 8, 6), reference_transforms(noisy))


TERMS = {f.name for f in fields(SandwichTerms)} - {"normalized"} | {"gap"}


class UnreadTerms(SandwichTerms):
    """SandwichTerms whose every term but `normalized` fails when read."""

    def __getattribute__(self, name):
        if name in TERMS:
            raise AssertionError(f"term {name} read")
        return super().__getattribute__(name)


def cube_variance_terms(F, space):
    """Variance terms with V_minus from the (n, n, k) anchor-by-positive cube."""
    mu = mean_head(F, space)
    mu_of = mu.T[space.labels]
    dev = np.sum((F - mu_of) ** 2, axis=1)
    mask_plus = positive_mask(space)
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


def support_variance_terms(F, space):
    """Variance terms summed over the pairs of `joint > 0`, row-major, weighted by the label mask."""
    mu = mean_head(F, space)
    xs, ys = np.nonzero(space.joint > 0.0)
    w = space.joint[xs, ys]
    plus = positive_mask(space)[xs, ys]
    dev = np.sum((F - mu.T[space.labels]) ** 2, axis=1)
    w_plus = np.where(plus, w, 0.0)
    mass_plus = float(w_plus.sum())
    V = float(w_plus @ dev[xs]) / mass_plus
    V_minus = None
    w_minus = w[~plus]
    mass_minus = float(w_minus.sum())
    if mass_minus > 0.0:
        d = np.sum((F[ys[~plus]] - mu.T[space.labels[xs[~plus]]]) ** 2, axis=1)
        V_minus = float(w_minus @ d) / mass_minus
    branch_pos = float(w_plus @ dev[ys]) / mass_plus
    V_neg = 0.5 * branch_pos + 0.5 * float(space.marginal @ dev)
    return (V, V_minus, V_neg)


def cube_alignment_eps(F, space):
    """Alignment terms from the (n, n, k) all-pairs difference cube."""
    mask_minus = (~positive_mask(space)) & (space.joint > 0.0)
    dist = np.sqrt(np.sum((F[:, None, :] - F[None, :, :]) ** 2, axis=2))
    if not np.any(mask_minus):
        return None, None
    minus = dist[mask_minus]
    return float(minus.min()), float(minus.max())


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
    if bound >= 1.0 or t["head_frob_norm"] == 0.0:  # vacuous, or zero head: withheld
        return "holds_vacuously", bound - err
    return ("holds" if bound >= err else "violated"), bound - err


class TestVarianceTerms:
    def test_constant_embedding_vanishes(self):
        space = toy_space()
        f = constant_embedding(space.n)
        V, V_minus, V_neg = variance_terms(f, space, mean_head(f, space))
        assert V == 0.0
        assert V_minus == 0.0
        assert V_neg == 0.0

    def test_no_false_positives_drops_v_minus(self):
        space = identity_only_space()
        f = random_embedding(space.n, 3, seed=1)
        _V, V_minus, _V_neg = variance_terms(f, space, mean_head(f, space))
        assert V_minus is None

    def test_brute_force_oracle(self):
        space = toy_space()
        F = random_embedding(space.n, 3, seed=8)
        head = mean_head(F, space)
        mu = head.T[space.labels]
        V, V_minus, _V_neg = variance_terms(F, space, head)
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
        assert abs(V - v_num / v_mass) < 1e-12
        assert abs(V_minus - vm_num / vm_mass) < 1e-12

    @pytest.mark.parametrize("normalized", [True, False])
    def test_matches_cube_oracle_bit_for_bit(self, normalized):
        # bit for bit the support-order sums; the (n, n) and (n, n, k) sums
        # of the cube oracle agree to 1e-15 relative (7e-16 seen)
        for space in reference_and_inflated_spaces():
            for seed in range(4):
                for k in (1, 3, 8):
                    f = random_embedding(space.n, k, seed=seed, normalized=normalized)
                    got = variance_terms(f, space, mean_head(f, space))
                    assert got == support_variance_terms(f, space)
                    for a, b in zip(got, cube_variance_terms(f, space)):
                        assert abs(a - b) <= 1e-15 * abs(b)


class TestLseApproxError:
    def test_constant_embedding_exact(self):
        space = toy_space()
        mean, std = lse_approx_error(constant_embedding(space.n), space, 2, 4, 0)
        assert mean == 0.0
        assert std == 0.0

    def test_deterministic(self):
        space = toy_space()
        f = random_embedding(space.n, 3, seed=2)
        a = lse_approx_error(f, space, 3, 6, 5)
        assert a == lse_approx_error(f, space, 3, 6, 5)

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
        eps_min, eps_max = alignment_eps(constant_embedding(space.n), space)
        assert eps_min == 0.0
        assert eps_max == 0.0

    def test_exhaustive_oracle(self):
        space = toy_space()
        F = random_embedding(space.n, 3, seed=4)
        dists = []
        for x in range(space.n):
            for y in range(space.n):
                if space.joint[x, y] > 0 and space.labels[x] != space.labels[y]:
                    dists.append(float(np.linalg.norm(F[x] - F[y])))
        eps_min, eps_max = alignment_eps(F, space)
        assert abs(eps_min - min(dists)) < 1e-12
        assert abs(eps_max - max(dists)) < 1e-12

    def test_empty_false_positive_support(self):
        space = identity_only_space()
        assert alignment_eps(random_embedding(space.n, 3, seed=1), space) == (None, None)

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
            assert alignment_eps(f, space) == (0.0, 0.0)
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

    @pytest.mark.parametrize("loss", ["infonce", "spectral"])
    def test_terms_and_reports_follow_unit_rows_whatever_loss_made_them(self, loss):
        # one trained table, put on the unit sphere, then one row's norm moved
        # by 5e-11 (still unit within 1e-10) and by 2e-10 (not)
        space = reference_and_inflated_spaces()[0]
        F = train_free_embeddings(space, 3, loss, 5, 1.0, seed=1)
        unit = F / np.linalg.norm(F, axis=1, keepdims=True)
        near, off = unit.copy(), unit.copy()
        near[7] *= 1.0 + 5e-11
        off[7] *= 1.0 + 2e-10
        for table, normalized in ((F, loss == "infonce"), (unit, True), (near, True),
                                  (off, False)):
            t = measure_sandwich(table, space, 1)
            assert t.normalized is normalized
            measured = (t.V, t.V_neg, t.envelope)
            assert all(v is not None for v in measured) if normalized else measured == (None,) * 3
            for check in (theorem1_check, theorem3_check):
                if normalized:
                    assert check(t).verdict == "holds"
                else:
                    with pytest.raises(ValueError, match="embedding must be normalized"):
                        check(t)

    def test_requires_normalized(self):
        space = toy_space()
        f = np.ones((space.n, 2))
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
                world = generate_world(raw.spec, 8, 6)
            staged, k = stage_graph(world, reference_transforms(raw)), 3
        space, cfg = staged.space, McConfig(samples=3000, seed=4)
        for f in (
            random_embedding(space.n, k, seed=5, normalized=False),
            spectral_embedding(staged, k),
        ):
            want = all_sandwich_terms(f, space, 1, cfg)
            with monkeypatch.context() as m:
                for name in ("variance_terms", "lse_approx_error"):
                    m.setattr(bounds, name, _fail(name))
                t = measure_sandwich(f, space, 1, cfg)
            assert (t.V, t.V_minus, t.V_neg, t.envelope) == (None,) * 4 and not t.normalized
            for key in ("ce_mean", "infonce", "infonce_std_error", "infonce_exact", "eps_min",
                        "eps_max"):
                assert getattr(t, key) == want[key], key
            assert t.infonce_exact == (space.n <= cfg.n_max)

    def test_normalized_terms_are_all_measured(self):
        space = reference_and_inflated_spaces()[0]
        f = random_embedding(space.n, 3, seed=5)
        t = measure_sandwich(f, space, 1)
        want = all_sandwich_terms(f, space, 1)
        for key in want:
            assert getattr(t, key) == want[key], key

    @pytest.mark.parametrize("which", [0, 1])
    def test_both_measures_read_the_table_and_leave_it(self, which, monkeypatch):
        # measure_sandwich forms no F F^T: infonce_population and
        # lse_approx_error each read f's own table, and neither writes in it
        space = reference_and_inflated_spaces()[which]
        f, cfg = random_embedding(space.n, 3, seed=5), McConfig(samples=3000, seed=4)
        want = all_sandwich_terms(f, space, 1, cfg)
        bits = f.tobytes()
        seen = {}
        for name in ("infonce_population", "lse_approx_error"):
            def spy(*args, _fn=getattr(bounds, name), _name=name, **kwargs):
                seen[_name] = inspect.signature(_fn).bind(*args, **kwargs).arguments["F"]
                return _fn(*args, **kwargs)

            monkeypatch.setattr(bounds, name, spy)
        t = measure_sandwich(f, space, 1, cfg)
        assert seen["infonce_population"] is seen["lse_approx_error"] is f
        assert f.tobytes() == bits
        for key in want:
            assert getattr(t, key) == want[key], key

    def test_checks_refuse_unnormalized_terms_before_reading_any(self):
        terms = {f.name: None for f in fields(SandwichTerms)}
        t = UnreadTerms(**{**terms, "normalized": False})
        calls = [
            ("theorem1_check", lambda: theorem1_check(t)),
            ("theorem3_check", lambda: theorem3_check(t)),
            ("corollary_reports", lambda: corollary_reports(t, np.ones((3, 2)), 0.5, ())),
            ("corollary_reports", lambda: corollary_reports(t, np.zeros((3, 2)), 0.5, ())),
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

    def test_zero_head_withheld(self):
        # the reference world at q = 3, k = 3: bound 0.48 < 1, and an untrained
        # head scores chance (2/3), which is not a violation of theorem 4
        w = reference_world()
        wq = preprocess_world(w, TruncationSpec(mode="keep_top_q", q=3))
        staged = stage_graph(wq, reference_transforms(w))
        spectral = spectral_embedding(staged, 3)
        fitted = theorem4_at_probe_defaults(staged, k=3)
        zero = theorem4_check(staged, spectral, np.zeros((3, 3)))
        t = zero.terms
        assert zero.verdict == "holds_vacuously"
        assert zero.note == "optimization-inadequate: zero head, verdict withheld"
        assert t["head_frob_norm"] == 0.0
        assert t["bound"] < 1.0
        assert zero.slack == t["bound"] - t["probe_error"] < 0.0
        assert t.keys() == fitted.terms.keys()
        for key in ("alpha_q", "lambda_k_q", "lambda_k1_q", "k", "bound", "norm_budget"):
            assert t[key] == fitted.terms[key], key
        assert fitted.verdict == "holds" and fitted.note == ""
        for rep in (zero, fitted):
            assert _recompute("theorem4", rep.terms) == (rep.verdict, rep.slack)

    def test_k_validated(self):
        head = np.zeros((2, 2))
        staged = stage_graph(toy_world(), toy_transforms())
        with pytest.raises(ValueError):
            theorem4_check(staged, np.zeros((staged.space.n, 0)), head)
        with pytest.raises(ValueError):
            theorem4_check(staged, np.zeros((staged.space.n, 99)), head)

    def test_head_shape_validated(self):
        # a head fitted on a table of another width cannot score the k-column one
        staged = stage_graph(toy_world(), toy_transforms())
        with pytest.raises(ValueError, match=r"head shape \(1, 2\) is not \(k, K\) = \(2, 2\)"):
            spectral = spectral_embedding(staged, 2)
            theorem4_check(staged, spectral, np.zeros((1, 2)))


def sandwich_of(t):
    return theorem1_check(t), theorem3_check(t)


class TestCorollaries:
    def test_zero_head_withheld(self):
        space = toy_space()
        f = random_embedding(space.n, 3, seed=1)
        head = np.zeros((3, 2))
        t = measure_sandwich(f, space, 1, McConfig())
        reports = corollary_reports(t, head, ce_risk(f, head, space), sandwich_of(t))
        assert len(reports) == 2
        for rep in reports:
            assert rep.verdict == "holds_vacuously"
            assert "optimization-inadequate" in rep.note

    def test_fitted_head_holds(self):
        space = toy_space()
        f = random_embedding(space.n, 3, seed=6)
        (head,) = fit_linear_head([f], space, steps=300, step_size=2.0)
        t = measure_sandwich(f, space, 1, McConfig())
        reports = corollary_reports(t, head, ce_risk(f, head, space), sandwich_of(t))
        assert [r.theorem for r in reports] == [
            "corollary_theorem1",
            "corollary_theorem3",
        ]
        for rep in reports:
            assert rep.verdict == "holds", rep
            assert rep.terms["head_vs_mean_ok"]
            assert rep.terms["ce_linear"] <= rep.terms["ce_mean"] + 1e-3

    def test_builds_on_the_sandwich_reports_given(self, monkeypatch):
        space = toy_space()
        f = random_embedding(space.n, 3, seed=6)
        (head,) = fit_linear_head([f], space, steps=300, step_size=2.0)
        t = measure_sandwich(f, space, 1, McConfig())
        sandwich = sandwich_of(t)
        for name in ("theorem1_check", "theorem3_check"):
            monkeypatch.setattr(bounds, name, _fail(name))
        reports = corollary_reports(t, head, ce_risk(f, head, space), sandwich)
        for rep, base in zip(reports, sandwich):
            assert rep.terms.items() >= base.terms.items()


class TestOffReferenceWorlds:
    """The bounds on exact-path worlds away from the reference one.

    Each example draws transform probabilities from a Dirichlet(0.7) over the
    reference's ten transforms, rho in [0.1, 0.9], noise 0, 0.02 or 0.05, a
    world seed, a rank q (none or 1-4) and k in 1-8 (at most the node count),
    and computes one row of configs/reference.ini so changed through
    `cli._stager` and `compute_row`.  At most 60 nodes (six originals, ten
    transforms) keep every row on the exact InfoNCE path.  No report may
    read violated or violated_within_mc_error, and each verdict and slack
    must recompute from the report's terms.
    """

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        mix=st.integers(0, 2**32 - 1),
        rho=st.floats(0.1, 0.9),
        noise=st.sampled_from([0.0, 0.02, 0.05]),
        world_seed=st.integers(0, 999),
        q=st.sampled_from([None, 1, 2, 3, 4]),
        k=st.integers(1, 8),
    )
    def test_no_bound_is_violated_and_every_verdict_recomputes(
        self, mix, rho, noise, world_seed, q, k
    ):
        ref = load_config(REFERENCE_CONFIG)
        probs = np.random.default_rng(mix).dirichlet(np.full(len(ref.transform_descriptors), 0.7))
        cfg = replace(
            ref,
            world=replace(ref.world, noise_scale=noise, seed=world_seed),
            rho=rho,
            transform_descriptors=[
                (name, kind, args, float(p))
                for (name, kind, args, _p), p in zip(ref.transform_descriptors, probs)
            ],
        )
        if q is not None:
            cfg = replace(cfg, svd_mode="keep_top_q", svd_q=q)
        stage = cli._stager(cfg)
        cfg = replace(cfg, train_k=min(k, stage(cfg.truncation()).space.n))
        _row, reports, *_tables = cli.compute_row(cfg, stage, "baseline")
        assert [r.theorem for r in reports] == [
            "theorem1", "theorem3", "theorem4", "corollary_theorem1", "corollary_theorem3"
        ]
        assert reports[0].terms["infonce_exact"]
        for rep in reports:
            assert rep.verdict in ("holds", "holds_vacuously"), rep
            assert _recompute(rep.theorem, rep.terms) == (rep.verdict, rep.slack), rep


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

    def test_label_consistent_sandwich_reports_pinned(self):
        # no workload reaches a space without false positives: pin both texts,
        # on simple terms that keep the space's measured absences
        space = identity_only_space()
        t = measure_sandwich(random_embedding(space.n, 3, seed=0), space, 1)
        assert (t.eps_min, t.eps_max, t.V_minus) == (None, None, None)
        t = replace(t, K=2, ce_mean=0.75, infonce=0.25, V=0.25, V_neg=0.5, envelope=0.0)
        assert report_to_text(theorem1_check(t)) == (
            "theorem = theorem1\n"
            "verdict = holds\n"
            "slack = 0.6931471805599454\n"
            "terms.K = 2\n"
            "terms.M = 1\n"
            "terms.V = 0.25\n"
            "terms.V_minus = none\n"
            "terms.V_neg = 0.5\n"
            "terms.ce_mean = 0.75\n"
            "terms.envelope = 0.0\n"
            "terms.gap = 0.5\n"
            "terms.infonce = 0.25\n"
            "terms.infonce_exact = true\n"
            "terms.infonce_std_error = 0.0\n"
            "terms.lower = -0.75\n"
            "terms.upper = 1.1931471805599454\n"
            "terms.v_neg_measure = equal-weight two-branch mixture\n"
            "note = label-consistent case: V_minus absent\n"
        )
        assert report_to_text(theorem3_check(t)) == (
            "theorem = theorem3\n"
            "verdict = holds\n"
            "slack = 0.6931471805599454\n"
            "terms.K = 2\n"
            "terms.M = 1\n"
            "terms.V = 0.25\n"
            "terms.V_neg = 0.5\n"
            "terms.ce_mean = 0.75\n"
            "terms.envelope = 0.0\n"
            "terms.eps_max = 0.0\n"
            "terms.eps_min = 0.0\n"
            "terms.gap = 0.5\n"
            "terms.infonce = 0.25\n"
            "terms.infonce_exact = true\n"
            "terms.infonce_std_error = 0.0\n"
            "terms.lower = -0.75\n"
            "terms.no_false_positives = true\n"
            "terms.upper = 1.1931471805599454\n"
            "note = no false positives: reduced to the consistent form\n"
        )
