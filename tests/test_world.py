import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctlab.linalg import save_matrix_text
from ctlab.svd import TruncationSpec
from ctlab.world import (
    VIEW_TOL,
    InverseCdf,
    Transform,
    WorldSpec,
    _check_distinct_views,
    _node_keys,
    _template_distances,
    apply_transform,
    build_augmented_space,
    build_transform,
    class_pattern,
    generate_world,
    ground_truth_label,
    inflate,
    labeling_error,
    load_world,
    preprocess_world,
    save_world,
)
from oracles import RHO, reference_transforms, reference_world, toy_transforms, toy_world


def _ref_spec(**kw):
    base = dict(
        K=3, per_class=2, m=12, m_prime=12, q_star=3,
        nuisance_rank=1, nuisance_confusion=0.9, noise_scale=0.0, seed=11,
    )
    base.update(kw)
    return WorldSpec(**base)


class TestWorldSpec:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(K=1),
            dict(per_class=0),
            dict(q_star=0),
            dict(nuisance_rank=-1),
            dict(nuisance_confusion=1.5),
            dict(noise_scale=-0.1),
            dict(q_star=10, nuisance_rank=5),
            dict(noise_scale=float("nan")),
            dict(noise_scale=float("inf")),
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            _ref_spec(**kw).validate()

    def test_slot_budget_checked(self):
        # K=3, q_star=3 needs 1 + 3*2 = 7 slots; m=6 is too small
        with pytest.raises(ValueError):
            generate_world(_ref_spec(m=6, m_prime=6))

    @pytest.mark.parametrize(
        "K, q_star, nuisance_rank", [(2, 2, 0), (3, 3, 1), (4, 2, 3), (2, 5, 6)]
    )
    def test_slot_budget_is_exact(self, K, q_star, nuisance_rank):
        slots = 1 + K * (q_star - 1) + K * max(0, nuisance_rank - q_star + 1)
        fit = _ref_spec(K=K, q_star=q_star, nuisance_rank=nuisance_rank, m=slots, m_prime=slots)
        fit.validate()
        generate_world(fit)
        with pytest.raises(ValueError, match=f"needs {slots} direction slots") as err:
            replace(fit, m_prime=slots - 1).validate()
        assert err.value.fields == ["K", "m", "m_prime", "q_star", "nuisance_rank"]

    def test_q_star_one_rejected(self):
        spec = WorldSpec(
            K=2, per_class=1, m=4, m_prime=4, q_star=1,
            nuisance_rank=0, nuisance_confusion=0.0, noise_scale=0.0, seed=0,
        )
        with pytest.raises(ValueError, match="q_star must be >= 2") as err:
            spec.validate()
        assert err.value.fields == ["q_star"]
        with pytest.raises(ValueError):
            generate_world(spec)


class TestGenerateWorld:
    def test_deterministic(self):
        a = reference_world()
        b = reference_world()
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.payloads, b.payloads)

    def test_counts_and_weights(self):
        w = reference_world()
        assert w.payloads.shape == (6, 12, 12)
        assert np.allclose(w.weights, 1.0 / 6.0)
        assert list(w.labels) == [0, 0, 1, 1, 2, 2]

    def test_templates_rank(self):
        w = reference_world()
        for T in w.templates:
            s = np.linalg.svd(T, compute_uv=False)
            assert np.sum(s > 1e-9) == w.spec.q_star

    def test_templates_share_background(self):
        # the top singular triple of every template is the same direction
        w = reference_world()
        tops = []
        for T in w.templates:
            U, s, Vt = np.linalg.svd(T)
            assert abs(s[0] - 8.0) < 1e-9
            tops.append(np.outer(U[:, 0], Vt[0]))
        for X in tops[1:]:
            assert min(np.abs(X - tops[0]).max(), np.abs(X + tops[0]).max()) < 1e-9

    def test_nuisance_below_semantic_band(self):
        # singular values of each payload: background, q*-1 semantic, then
        # nuisance strictly below the smallest semantic value
        w = reference_world()
        for payload in w.payloads:
            s = np.linalg.svd(payload, compute_uv=False)
            assert abs(s[0] - 8.0) < 1e-9
            assert s[w.spec.q_star - 1] > s[w.spec.q_star] + 0.1
            assert s[w.spec.q_star] > 0.1  # nuisance present

    def test_confusion_zero_gives_pure_templates(self):
        w = generate_world(_ref_spec(nuisance_confusion=0.0))
        for payload, label in zip(w.payloads, w.labels):
            assert np.allclose(payload, w.templates[label], atol=1e-12)


class TestGroundTruthLabel:
    def test_templates_label_themselves(self):
        w = reference_world()
        assert list(ground_truth_label(w.templates, w.templates)) == [0, 1, 2]

    def test_tie_breaks_to_smallest_index(self):
        w = toy_world()
        # [[2, 1]] is equidistant from [[4,0]] and [[0,2]]
        assert list(ground_truth_label(np.array([[[2.0, 1.0]]]), w.templates)) == [0]

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            ground_truth_label(np.zeros((2, 2)), toy_world().templates)
        with pytest.raises(ValueError):  # one payload is not a stack
            ground_truth_label(np.zeros((1, 2)), toy_world().templates)


def _norm_loop(P, templates):
    """The per-payload label rule: one float(np.linalg.norm(payload - T)) per pair."""
    return np.array([[float(np.linalg.norm(X - T)) for T in templates] for X in P])


class TestBatchedLabelRule:
    """The stacked distances against the per-payload norm loop, bit for bit."""

    def _check(self, P, templates):
        want = _norm_loop(P, templates)
        assert _template_distances(np.asarray(P), templates).tobytes() == want.tobytes()
        assert ground_truth_label(P, templates).tolist() == np.argmin(want, axis=1).tolist()

    def test_reference_space(self):
        w = reference_world()
        space = build_augmented_space(w, reference_transforms(w))
        self._check(space.payloads, w.templates)

    def test_q1_truncated_reference_world(self):
        # the six originals are the background alone, equidistant from all three
        # templates in real arithmetic: rounding alone picks the label
        w = preprocess_world(reference_world(), TruncationSpec(mode="keep_top_q", q=1))
        P = w.payloads
        assert len(P) == 6 and np.ptp(_norm_loop(P, w.templates), axis=1).max() < 1e-14
        self._check(P, w.templates)
        assert w.labels.tolist() == ground_truth_label(P, w.templates).tolist()

    def test_inflated8_space(self):
        noisy = generate_world(_ref_spec(noise_scale=0.05))
        space = build_augmented_space(inflate(noisy, 8, seed=6), reference_transforms(noisy))
        assert space.n > 400
        self._check(space.payloads, noisy.templates)

    @pytest.mark.parametrize("n, shape, K", [(1, (1, 1), 2), (2000, (12, 12), 3), (57, (3, 7), 5)])
    def test_random_stacks(self, n, shape, K):
        rng = np.random.default_rng(n)
        scale = 10.0 ** rng.integers(-3, 4, size=(n, 1, 1))
        self._check(scale * rng.normal(size=(n,) + shape), list(rng.normal(size=(K,) + shape)))


class TestInverseCdf:
    """draw(u) against np.searchsorted(cdf, u, side="right") and Generator.choice."""

    WEIGHTS = {
        "one": [1.0],
        "two": [0.3, 0.7],
        "zero_first": [0.0, 1.0],
        "zero_last": [1.0, 0.0],
        # runs of tiny weights: hundreds of entries share one guide bucket
        "tiny_runs": np.r_[np.full(300, 1e-9), 0.5, np.full(700, 1e-12), 0.25, 1e-15, 0.25],
        "random": np.random.default_rng(0).random(477),
    }

    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    def test_matches_searchsorted(self, name):
        cumsum = np.cumsum(self.WEIGHTS[name])
        cdf = cumsum / cumsum[-1]
        inv = InverseCdf(cumsum)
        edges = np.arange(inv.G) / inv.G  # u exactly on every bucket edge k / G
        inner = cdf[cdf < 1.0]  # u exactly on CDF entries, and one ulp either side
        u = np.concatenate([
            edges, np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0),
            inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0),
            [0.0, np.nextafter(1.0, 0.0)], np.random.default_rng(1).random(5000),
        ])
        u = u[(u >= 0.0) & (u < 1.0)]
        assert np.array_equal(inv.draw(u), np.searchsorted(cdf, u, side="right"))

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    def test_draws_are_generator_choice(self, name, M):
        w = np.asarray(self.WEIGHTS[name], dtype=float)
        p = w / w.sum()
        inv = InverseCdf(p.cumsum())
        for seed in range(3):
            a, b = (np.random.Generator(np.random.Philox(key=seed)) for _ in range(2))
            want = a.choice(len(p), size=(1000, M), p=p)
            got = inv.draw(b.random((1000, M)))
            assert got.shape == want.shape and np.array_equal(got, want)
            assert a.random() == b.random()  # the same stream is consumed

    def test_space_tables_are_choice_over_cells_and_nodes(self):
        w = reference_world()
        space = build_augmented_space(w, reference_transforms(w))
        xs, ys, _w = space.support
        rng = np.random.Generator(np.random.Philox(key=4))
        cells = rng.choice(space.n**2, size=3000, p=space.joint.ravel() / space.joint.sum())
        nodes = rng.choice(space.n, size=(3000, 2), p=space.marginal)
        rng = np.random.Generator(np.random.Philox(key=4))
        pairs = space.pair_cdf.draw(rng.random(3000))
        assert np.array_equal(xs[pairs] * space.n + ys[pairs], cells)
        assert np.array_equal(space.marginal_cdf.draw(rng.random((3000, 2))), nodes)


class TestTransforms:
    def test_identity_copies(self):
        X = np.arange(6.0).reshape(2, 3)
        t = Transform("i", 1.0)
        out = apply_transform(t, X)
        assert np.array_equal(out, X)
        assert out is not X

    def test_block_mask(self):
        X = np.ones((12, 12))
        t = build_transform(reference_world(), "m", "block_mask", (0, 2, 1, 3), 1.0, RHO)
        out = apply_transform(t, X)
        assert out[0:2, 1:3].sum() == 0.0
        assert out.sum() == 144.0 - 4.0

    @pytest.mark.parametrize("rect", [(0, 2, 1, 3), (0, 12, 0, 12), (11, 12, 5, 6), (3, 7, 0, 1)])
    def test_block_mask_zeroes_its_rectangle_bit_for_bit(self, rect):
        # the affine form has the bits of a copy whose rectangle is set to 0.0
        w = reference_world()
        r0, r1, c0, c1 = rect
        want = w.payloads.copy()
        want[..., r0:r1, c0:c1] = 0.0
        got = apply_transform(build_transform(w, "m", "block_mask", rect, 0.5, RHO), w.payloads)
        assert got.tobytes() == want.tobytes()

    def test_additive(self):
        X = np.zeros((2, 2))
        P = np.eye(2)
        t = Transform("a", 1.0, shift=P)
        assert np.array_equal(apply_transform(t, X), P)

    def test_every_kind_carries_its_pattern(self):
        w = reference_world()
        shape = w.payloads.shape[1:]
        for kind, args in (("flip", (0, 1)), ("bridge", (1, 2)), ("sibling", (2,))):
            t = build_transform(w, "t", kind, args, 0.5, RHO)
            assert t.keep == 1.0 and t.shift.shape == shape
        mask = build_transform(w, "t", "block_mask", (0, 1, 0, 1), 0.5, RHO)
        assert mask.keep.shape == shape and mask.shift == 0.0
        identity = build_transform(w, "t", "identity", (), 0.5, RHO)
        assert identity.keep == 1.0 and identity.shift == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^x: unknown kind 'warp'$"):
            build_transform(reference_world(), "x", "warp", (), 1.0, RHO)

    @pytest.mark.parametrize(
        "kind, args, message",
        [
            ("block_mask", (5, 2, 0, 3), "block_mask 5 2 0 3 needs"),  # reversed
            ("block_mask", (-3, -1, 0, 2), "block_mask -3 -1 0 2 needs"),  # negative
            ("block_mask", (0, 99, 0, 99), "block_mask 0 99 0 99 needs"),  # past the payload
            ("block_mask", (0, 2, 3, 3), "block_mask 0 2 3 3 needs"),  # no columns
            ("flip", (0, 3), "class 3 out of range"),
            ("sibling", (-1,), "class -1 out of range"),
        ],
    )
    def test_descriptor_outside_its_world_rejected(self, kind, args, message):
        with pytest.raises(ValueError, match=f"^t: {message}"):
            build_transform(reference_world(), "t", kind, args, 0.5, RHO)

    def test_sibling_needs_two_per_class(self):
        w = generate_world(_ref_spec(per_class=1))
        with pytest.raises(ValueError, match="^t: sibling needs world.per_class >= 2$"):
            build_transform(w, "t", "sibling", (0,), 0.5, RHO)

    @pytest.mark.parametrize("p", [0.0, -0.25, 1.5, float("nan")])
    def test_probability_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match=r"^t: probability .* out of \(0, 1\]$"):
            Transform("t", p)
        with pytest.raises(ValueError, match=r"^t: probability .* out of \(0, 1\]$"):
            build_transform(reference_world(), "t", "identity", (), p, RHO)

    def test_class_pattern_background_cancels(self):
        w = reference_world()
        P = class_pattern(w, 0, 1, RHO)
        # the shared background direction drops out of the difference
        U, s, Vt = np.linalg.svd(w.templates[0])
        assert abs(np.sum(U[:, 0] @ P @ Vt[0])) < 1e-9


class TestAugmentedSpace:
    def test_toy_tables_exact(self):
        space = build_augmented_space(toy_world(), toy_transforms())
        assert space.n == 3  # T0, blank, T1 in discovery order
        assert np.array_equal(space.labels, [0, 1, 1])
        assert np.array_equal(space.cond, [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        assert np.array_equal(space.marginal, [0.25, 0.5, 0.25])
        e = 1.0 / 8.0
        want_joint = np.array([[e, e, 0], [e, 2 * e, e], [0, e, e]])
        assert np.allclose(space.joint, want_joint, atol=1e-15)

    def test_support_is_the_joints_nonzero_cells_in_row_major_order(self):
        w = reference_world()
        for space in (
            build_augmented_space(toy_world(), toy_transforms()),
            build_augmented_space(w, reference_transforms(w)),
            build_augmented_space(inflate(w, 8, seed=6), reference_transforms(w)),
        ):
            xs, ys, weights = space.support
            want_xs, want_ys = np.nonzero(space.joint)
            assert np.array_equal(xs, want_xs) and np.array_equal(ys, want_ys)
            assert np.all(np.diff(xs * space.n + ys) > 0)  # strictly row-major
            assert np.array_equal(weights, space.joint[xs, ys])
            assert np.all(weights > 0.0)
            assert space.support is space.support  # computed once per space

    def test_support_under_contention(self):
        # threads of one sweep share a staged space and may read its support
        # first at once; each must get the full, row-major support
        w = reference_world()
        space = build_augmented_space(inflate(w, 8, seed=6), reference_transforms(w))
        want_xs, want_ys = np.nonzero(space.joint)
        start = threading.Barrier(8)

        def read():
            start.wait(timeout=10)
            return space.support

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = [fut.result(timeout=30) for fut in [pool.submit(read) for _ in range(8)]]
        finally:
            sys.setswitchinterval(interval)
        for xs, ys, weights in got + [space.support]:
            assert np.array_equal(xs, want_xs) and np.array_equal(ys, want_ys)
            assert np.array_equal(weights, space.joint[want_xs, want_ys])

    def test_support_follows_a_replaced_joint(self):
        space = build_augmented_space(toy_world(), toy_transforms())
        _ = space.support
        joint = space.joint.copy()
        joint[0, 1] = joint[1, 0] = 0.0
        xs, ys, _w = replace(space, joint=joint).support
        assert (0, 1) not in set(zip(xs.tolist(), ys.tolist()))
        assert len(xs) == len(space.support[0]) - 2

    def test_mass_split(self):
        space = build_augmented_space(toy_world(), toy_transforms())
        # X+ mass: label-consistent joint entries = 1 - 2/8
        plus = space.positive_mask()
        assert abs(space.joint[plus].sum() - 0.75) < 1e-12
        assert abs(space.joint[~plus].sum() - 0.25) < 1e-12

    def test_joint_symmetric_and_consistent(self):
        w = reference_world()
        space = build_augmented_space(w, reference_transforms(w))
        assert np.allclose(space.joint, space.joint.T, atol=1e-15)
        assert abs(space.joint.sum() - 1.0) < 1e-10
        assert np.allclose(space.joint.sum(axis=1), space.marginal, atol=1e-12)
        assert np.allclose(space.cond.sum(axis=1), 1.0, atol=1e-12)

    def test_empty_transforms_rejected(self):
        with pytest.raises(ValueError):
            build_augmented_space(toy_world(), [])

    def test_probability_sum_checked(self):
        t = [Transform("i", 0.7)]
        with pytest.raises(ValueError):
            build_augmented_space(toy_world(), t)

    def test_dedup_merges_identical_views(self):
        # two different masks producing the same blank view share one node
        w = toy_world()
        t = [
            Transform("m1", 0.5, keep=np.zeros((1, 2))),
            Transform("m2", 0.25, keep=np.zeros((1, 2))),
            Transform("i", 0.25),
        ]
        space = build_augmented_space(w, t)
        assert space.n == 3
        blank = [i for i, p in enumerate(space.payloads) if np.all(p == 0)]
        assert len(blank) == 1
        assert abs(space.marginal[blank[0]] - 0.75) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from([-1e-17, 1e-17]), min_size=2, max_size=2))
    def test_signed_zero_noise_keeps_views(self, eps):
        # each toy original has one zero entry; its twin moves it by +-1e-17,
        # which rounds to -0.0 or 0.0 and must still key the same view
        w = toy_world()
        twins = np.stack([np.where(P == 0.0, e, P) for P, e in zip(w.payloads, eps)])
        for P, T in zip(w.payloads, twins):
            assert _node_keys([T]) == _node_keys([P])
        doubled = replace(
            w, payloads=np.concatenate([w.payloads, twins]), labels=np.tile(w.labels, 2),
            weights=np.full(4, 0.25),
        )
        space = build_augmented_space(doubled, toy_transforms())
        assert space.n == build_augmented_space(w, toy_transforms()).n

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=1e-14, max_value=1e-12),
    )
    def test_near_twins_across_a_rounding_boundary_raise(self, j, delta):
        # the twin of o0000 sits 2 * delta away across the 9-decimal rounding
        # boundary (j + 1/2) * 1e-9: the keys differ, so one view would split
        w = toy_world()
        boundary = (j + 0.5) * 1e-9
        below, above = w.payloads[0].copy(), w.payloads[0].copy()
        below[0, 1] = boundary - delta
        above[0, 1] = boundary + delta
        assert _node_keys([below]) != _node_keys([above])
        planted = replace(
            w,
            payloads=np.stack([below, *w.payloads[1:], above]),
            labels=w.labels[[0, 1, 0]],
            weights=np.full(3, 1.0 / 3.0),
        )
        # identity views: n0000 from o0000, n0003 from its twin (n0001 is the
        # shared blank, n0002 the other original)
        with pytest.raises(ValueError, match="nodes n0000 and n0003 are distinct views") as err:
            build_augmented_space(planted, toy_transforms())
        gap = float(str(err.value).split(" views ")[1].split(" apart")[0])
        assert gap == float(np.abs(above - below).max())

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=40),
        st.sampled_from([0.0, 0.5 * VIEW_TOL, VIEW_TOL, 2.0 * VIEW_TOL, 0.25]),
    )
    def test_distinct_views_check_matches_all_pairs(self, seed, n, gap):
        # half-integer grids give many equal payload sums, so most sum-window
        # candidates are far apart and must be confirmed, not flagged
        rng = np.random.default_rng(seed)
        views = [rng.integers(-2, 3, size=(2, 3)) * 0.5 for _ in range(n)]
        # moving every entry moves the sum by size * gap, the edge of the window
        views.append(views[0] + gap)
        flat = np.array([v.ravel() for v in views])
        dist = np.abs(flat[:, None, :] - flat[None, :, :]).max(axis=2)
        close = np.triu(dist <= VIEW_TOL, k=1)
        if close.any():
            with pytest.raises(ValueError, match=r"nodes n(\d+) and n(\d+) are") as err:
                _check_distinct_views(views)
            a, b = (int(x) for x in re.search(r"nodes n(\d+) and n(\d+)", str(err.value)).groups())
            assert a < b and close[a, b]
        else:
            _check_distinct_views(views)


class TestLabelingError:
    def test_toy_exact(self):
        w = toy_world()
        assert labeling_error(build_augmented_space(w, toy_transforms()), w) == 0.25

    def test_matches_direct_enumeration(self):
        # independent oracle: loop originals x transforms without dedup
        w = reference_world()
        transforms = reference_transforms(w)
        space = build_augmented_space(w, transforms)
        alpha = labeling_error(space, w)
        acc = 0.0
        for payload, label in zip(w.payloads, w.labels):
            for t in transforms:
                view = apply_transform(t, payload)
                if ground_truth_label([view], w.templates)[0] != label:
                    acc += t.probability / len(w.payloads)
        assert abs(alpha - acc) < 1e-12

    def test_identity_only_is_error_free(self):
        w = reference_world()
        space = build_augmented_space(
            w, [Transform("i", 1.0)]
        )
        assert labeling_error(space, w) == 0.0


class TestPreprocess:
    def test_rank_cut_at_semantic_level_removes_nuisance(self):
        w = reference_world()
        pw = preprocess_world(w, TruncationSpec(mode="keep_top_q", q=w.spec.q_star))
        for payload, T in zip(pw.payloads, pw.templates[w.labels]):
            assert np.allclose(payload, T, atol=1e-9)

    def test_full_rank_cut_is_identity(self):
        w = reference_world()
        pw = preprocess_world(w, TruncationSpec(mode="keep_top_q", q=12))
        for pa, la, pb, lb in zip(w.payloads, w.labels, pw.payloads, pw.labels):
            assert np.allclose(pa, pb, atol=1e-9)
            assert la == lb

    def test_alpha_minimized_at_semantic_rank(self):
        w = reference_world()
        transforms = reference_transforms(w)
        alphas = {}
        for q in (1, 2, 3, 4):
            pw = preprocess_world(w, TruncationSpec(mode="keep_top_q", q=q))
            space = build_augmented_space(pw, transforms)
            alphas[q] = labeling_error(space, pw)
        # at q = q* the nuisance is gone and only the bridge mass flips
        assert abs(alphas[3] - 0.04) < 1e-12
        assert alphas[3] < min(alphas[q] for q in (1, 2, 4)) - 1e-6


class TestInflate:
    def test_factor_one_is_noop(self):
        w = reference_world()
        assert inflate(w, 1) is w

    def test_counts_and_uniform_weights(self):
        w = inflate(reference_world(), 4)
        assert len(w.payloads) == len(w.labels) == 24
        assert np.allclose(w.weights, 1.0 / 24.0)

    def test_noise_free_inflation_duplicates_payloads(self):
        w = reference_world()
        iw = inflate(w, 3)
        base = {P.tobytes() for P in w.payloads}
        extra = {P.tobytes() for P in iw.payloads[6:]}
        assert extra <= base

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            inflate(reference_world(), 0)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_extras_do_not_depend_on_truncation(self, q):
        # truncating the raw originals of one inflated world is the world of
        # inflating the truncated raw world: one inflation serves a q sweep
        raw = generate_world(_ref_spec(noise_scale=0.05))
        trunc = TruncationSpec(mode="keep_top_q", q=q)
        want = inflate(preprocess_world(raw, trunc), 8, seed=6)
        got = preprocess_world(inflate(raw, 8, seed=6), trunc, len(raw.payloads))
        assert got.payloads.shape == want.payloads.shape
        assert got.payloads.tobytes() == want.payloads.tobytes()
        assert got.labels.tolist() == want.labels.tolist()
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.templates is want.templates and got.spec == want.spec


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        w = reference_world()
        save_world(w, tmp_path / "w")
        loaded = load_world(tmp_path / "w")
        assert loaded.spec == w.spec
        assert np.array_equal(loaded.weights, w.weights)
        assert np.array_equal(loaded.labels, w.labels)
        assert np.array_equal(loaded.payloads, w.payloads)
        for Ta, Tb in zip(w.templates, loaded.templates):
            assert np.array_equal(Ta, Tb)

    def test_round_trip_of_an_inflated_truncated_world(self, tmp_path):
        raw = generate_world(_ref_spec(noise_scale=0.05))
        w = preprocess_world(inflate(raw, 8, seed=6), TruncationSpec(mode="keep_top_q", q=2), 6)
        save_world(w, tmp_path / "w")
        loaded = load_world(tmp_path / "w")
        assert loaded.payloads.shape == w.payloads.shape == (48, 12, 12)
        assert loaded.payloads.tobytes() == w.payloads.tobytes()
        assert loaded.labels.tolist() == w.labels.tolist()
        assert loaded.weights.tobytes() == w.weights.tobytes()
        lines = (tmp_path / "w" / "manifest.txt").read_text().splitlines()
        names = [line.split()[1] for line in lines if line.startswith("original ")]
        assert names == [f"o{i:04d}" for i in range(48)]

    def _saved(self, tmp_path):
        d = tmp_path / "w"
        save_world(reference_world(), d)
        return d, d / "manifest.txt"

    def _edit(self, manifest, old, new):
        text = manifest.read_text()
        assert old in text
        manifest.write_text(text.replace(old, new, 1))

    def test_weights_must_sum_to_one(self, tmp_path):
        cases = [
            ("0.2", "weights sum"),
            ("-0.5", r"line \d+: weight -0.5 is not finite and positive"),
            ("0.0", r"line \d+: weight 0.0 is not finite and positive"),
            ("nan", r"line \d+: weight nan is not finite and positive"),
        ]
        for weight, match in cases:
            d, manifest = self._saved(tmp_path)
            self._edit(manifest, "o0000.mat 0 0.16666666666666666", f"o0000.mat 0 {weight}")
            with pytest.raises(ValueError, match=f"manifest.txt.*{match}"):
                load_world(d)

    def test_template_indices_must_be_contiguous(self, tmp_path):
        d, manifest = self._saved(tmp_path)
        self._edit(manifest, "template 2 =", "template 5 =")
        with pytest.raises(ValueError, match="manifest.txt.*template indices"):
            load_world(d)

    def test_payload_shape_must_match_templates(self, tmp_path):
        d, _manifest = self._saved(tmp_path)
        save_matrix_text(d / "o0003.mat", np.zeros((12, 11)))
        with pytest.raises(
            ValueError, match=r"manifest.txt: o0003 has shape \(12, 11\), not \(12, 12\)$"
        ):
            load_world(d)

    def test_labels_must_match_ground_truth(self, tmp_path):
        d, manifest = self._saved(tmp_path)
        self._edit(manifest, "o0000.mat 0 ", "o0000.mat 1 ")
        with pytest.raises(ValueError, match="manifest.txt.*latent label"):
            load_world(d)

    @pytest.mark.parametrize("old, new, lineno, name", [
        ("original o0001 =", "original o0007 =", 6, "o0007"),  # a gap
        ("original o0000 =", "original o0001 =", 5, "o0001"),  # a repeat
        ("original o0000 =", "original n0000 =", 5, "n0000"),
    ])
    def test_originals_must_be_named_by_position(self, tmp_path, old, new, lineno, name):
        # saving the loaded world would rename such originals silently
        d, manifest = self._saved(tmp_path)
        self._edit(manifest, old, new)
        want = f"manifest.txt: line {lineno}: expected original o{lineno - 5:04d}, got 'original {name}'"
        with pytest.raises(ValueError, match=want):
            load_world(d)

    def test_originals_out_of_order_rejected(self, tmp_path):
        d, manifest = self._saved(tmp_path)
        lines = manifest.read_text().splitlines()
        lines[4], lines[5] = lines[5], lines[4]  # o0001 before o0000
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 5: expected original o0000, got 'original o0001'"):
            load_world(d)

    def test_original_line_needs_three_fields(self, tmp_path):
        d, manifest = self._saved(tmp_path)
        self._edit(manifest, "o0000.mat 0 0.16666666666666666", "o0000.mat 0")
        with pytest.raises(ValueError, match=r"manifest.txt: line \d+: expected 'file label weight'"):
            load_world(d)

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_spec_noise_scale_must_be_finite_and_nonnegative(self, tmp_path, value):
        d, manifest = self._saved(tmp_path)
        spec_line = manifest.read_text().splitlines()[0]
        fields = spec_line.split()
        fields[-2] = value  # spec = K per_class m m' q* rank confusion noise seed
        self._edit(manifest, spec_line, " ".join(fields))
        with pytest.raises(ValueError, match=r"manifest.txt: line 1: .*noise_scale"):
            load_world(d)

    @pytest.mark.parametrize("line, key", [
        ("spec = 3 2 12 12 3 1 0.9 0.0 99", "spec"),  # the last line would set seed 99
        ("template 1 = template_02.mat", "template 1"),
    ])
    def test_repeated_spec_or_template_rejected(self, tmp_path, line, key):
        d, manifest = self._saved(tmp_path)
        text = manifest.read_text()
        manifest.write_text(text + line + "\n")
        lineno = len(text.splitlines()) + 1
        with pytest.raises(
            ValueError, match=f"manifest.txt: line {lineno}: repeated key '{key}'$"
        ):
            load_world(d)

    def test_spec_fields_must_parse(self, tmp_path):
        d, manifest = self._saved(tmp_path)
        self._edit(manifest, "spec = 3 ", "spec = three ")
        with pytest.raises(ValueError, match=r"manifest.txt: line 1: invalid literal for int"):
            load_world(d)
