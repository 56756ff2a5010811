import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctlab.svd import TruncationSpec, svd_full
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
    labeling_error,
    preprocess_world,
    save_world,
)
from oracles import (
    RHO, load_matrix_text, positive_mask, read_world, reference_transforms, reference_world,
    toy_transforms, toy_world,
)


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
        space = build_augmented_space(generate_world(noisy.spec, 8, 6), reference_transforms(noisy))
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

    @pytest.mark.parametrize("which", ["toy", "reference", "reference_q2", "inflated8"])
    def test_support_is_the_joints_nonzero_cells_in_row_major_order(self, which):
        # support, row sums and mass come from one product, formed at build and dropped
        raw, noisy = reference_world(), generate_world(_ref_spec(noise_scale=0.05))
        world, transforms = {
            "toy": (toy_world(), toy_transforms()),
            "reference": (raw, reference_transforms(raw)),
            "reference_q2": (preprocess_world(raw, TruncationSpec(mode="keep_top_q", q=2)),
                             reference_transforms(raw)),
            "inflated8": (generate_world(noisy.spec, 8, 6), reference_transforms(noisy)),
        }[which]
        space = build_augmented_space(world, transforms)
        assert "_pairs" in vars(space)
        C = space.cond
        joint = C.T @ (C * space.weights[:, None])
        want_xs, want_ys = np.nonzero(joint)
        xs, ys, weights = space.support
        assert xs.tobytes() == want_xs.tobytes() and ys.tobytes() == want_ys.tobytes()
        assert np.all(np.diff(xs * space.n + ys) > 0)  # strictly row-major
        assert weights.tobytes() == joint[xs, ys].tobytes()
        assert np.all(weights > 0.0)
        assert space.degrees.tobytes() == joint.sum(axis=1).tobytes()
        assert np.float64(space.mass).tobytes() == joint.sum().tobytes()
        assert space.joint.tobytes() == joint.tobytes()
        assert not np.signbit(space.joint).any()  # no -0.0 cell: equal supports mean equal joints
        assert space.support is space.support  # computed once per space

    def test_support_under_contention(self):
        # threads of one sweep share a staged space and may read its support
        # first at once; each must get the full, row-major support
        w = reference_world()
        space = build_augmented_space(generate_world(w.spec, 8, 6), reference_transforms(w))
        space = replace(space)  # a fresh instance: its support is not cached yet
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

    def test_support_follows_a_replaced_cond(self):
        space = build_augmented_space(toy_world(), toy_transforms())
        _ = space.support
        # original 0 no longer reaches the blank view 1: joint cells (0, 1), (1, 0) go
        cond = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
        xs, ys, _w = replace(space, cond=cond).support
        assert (0, 1) not in set(zip(xs.tolist(), ys.tolist()))
        assert len(xs) == len(space.support[0]) - 2

    def test_mass_split(self):
        space = build_augmented_space(toy_world(), toy_transforms())
        # X+ mass: label-consistent joint entries = 1 - 2/8
        plus = positive_mask(space)
        assert abs(space.joint[plus].sum() - 0.75) < 1e-12
        assert abs(space.joint[~plus].sum() - 0.25) < 1e-12

    def test_joint_symmetric_and_consistent(self):
        w = reference_world()
        space = build_augmented_space(w, reference_transforms(w))
        assert np.allclose(space.joint, space.joint.T, atol=1e-15)
        assert abs(space.joint.sum() - 1.0) < 1e-10
        assert np.allclose(space.joint.sum(axis=1), space.marginal, atol=1e-12)
        assert np.allclose(space.cond.sum(axis=1), 1.0, atol=1e-12)

    def test_joint_and_marginal_are_products_of_the_factor(self):
        # the spectral loss reads the joint as cond^T diag(weights) cond
        raw = reference_world()
        noisy = generate_world(_ref_spec(noise_scale=0.05))
        for world, transforms in ((raw, reference_transforms(raw)),
                                  (generate_world(noisy.spec, 8, 6), reference_transforms(noisy))):
            truncated = [preprocess_world(world, TruncationSpec(mode="keep_top_q", q=q))
                         for q in (1, 2, 3, 4)]
            for w in [world, *truncated]:
                space = build_augmented_space(w, transforms)
                C, weights = space.cond, space.weights
                assert weights.tobytes() == w.weights.tobytes()
                assert space.joint.tobytes() == (C.T @ (C * weights[:, None])).tobytes()
                assert space.marginal.tobytes() == (weights @ C).tobytes()

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

    def test_truncates_only_the_raw_originals(self):
        # on an 8x inflated world exactly the first K * per_class originals change
        iw = generate_world(_ref_spec(noise_scale=0.05), 8, 6)
        pw = preprocess_world(iw, TruncationSpec(mode="keep_top_q", q=1))
        n_raw = iw.spec.K * iw.spec.per_class
        changed = [i for i in range(len(iw.payloads))
                   if pw.payloads[i].tobytes() != iw.payloads[i].tobytes()]
        assert changed == list(range(n_raw))
        assert pw.payloads[n_raw:].tobytes() == iw.payloads[n_raw:].tobytes()
        assert pw.labels[n_raw:].tolist() == iw.labels[n_raw:].tolist()
        # their labels are recomputed from the truncated payloads; at q = 1 one moves
        assert pw.labels[:n_raw].tolist() == ground_truth_label(pw.payloads[:n_raw],
                                                                pw.templates).tolist()
        assert pw.labels[:n_raw].tolist() != iw.labels[:n_raw].tolist()
        assert pw.weights.tobytes() == iw.weights.tobytes()

    def test_no_truncation_returns_the_world_itself(self):
        iw = generate_world(_ref_spec(noise_scale=0.05), 8, 6)
        assert preprocess_world(iw, None) is iw

    def test_raw_factors_are_computed_once_with_the_bits_of_fresh_ones(self, monkeypatch):
        # one set of raw factors, cached on the world, serves every truncation of a sweep
        def make():
            return generate_world(_ref_spec(noise_scale=0.05), 8, 6)

        iw, calls = make(), []
        monkeypatch.setattr("ctlab.world.svd_full", lambda P: calls.append(None) or svd_full(P))
        specs = [TruncationSpec(mode="keep_top_q", q=q) for q in (1, 2, 3, 4)] + [
            TruncationSpec(mode="discard_pair", pair_index=1),
            TruncationSpec(mode="discard_single", pair_index=2),
        ]
        truncated = [preprocess_world(iw, spec) for spec in specs]
        assert len(calls) == len(iw.raw_factors) == 6
        assert iw.raw_factors is iw.raw_factors
        for got, P in zip(iw.raw_factors, iw.payloads):
            want = svd_full(P)
            assert all(a.tobytes() == b.tobytes()
                       for a, b in [(got.U, want.U), (got.S, want.S), (got.V, want.V)])
        for spec, got in zip(specs, truncated):
            want = preprocess_world(make(), spec)
            assert got.payloads.tobytes() == want.payloads.tobytes()
            assert got.labels.tolist() == want.labels.tolist()


class TestInflate:
    """generate_world(spec, factor, seed): the raw originals first, then the extras."""

    def test_factor_one_is_noop(self):
        w, w1 = generate_world(_ref_spec()), generate_world(_ref_spec(), 1, 6)
        for field in ("payloads", "labels", "weights", "templates"):
            assert getattr(w1, field).tobytes() == getattr(w, field).tobytes()

    def test_counts_and_uniform_weights(self):
        w = generate_world(_ref_spec(), 4)
        assert len(w.payloads) == len(w.labels) == 24
        assert np.all(w.weights == 1.0 / 24.0)

    def test_noise_free_inflation_duplicates_payloads(self):
        iw = generate_world(_ref_spec(), 3)
        base = {P.tobytes() for P in iw.payloads[:6]}
        extra = {P.tobytes() for P in iw.payloads[6:]}
        assert extra <= base

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError, match="factor must be >= 1"):
            generate_world(_ref_spec(), 0)

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    @pytest.mark.parametrize("seed", [0, 6])
    @pytest.mark.parametrize("factor", [1, 2, 8])
    def test_raw_originals_come_first(self, factor, seed, noise):
        # the first K * per_class originals, their labels and the templates are the raw world's
        raw = generate_world(_ref_spec(noise_scale=noise))
        w = generate_world(raw.spec, factor, seed)
        assert len(w.payloads) == factor * len(raw.payloads) == factor * 6
        assert w.payloads[:6].tobytes() == raw.payloads.tobytes()
        assert w.labels[:6].tolist() == raw.labels.tolist()
        assert w.templates.tobytes() == raw.templates.tobytes()


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        w = reference_world()
        save_world(w, tmp_path / "w")
        loaded = read_world(tmp_path / "w")
        assert loaded.spec == w.spec
        assert np.array_equal(loaded.weights, w.weights)
        assert np.array_equal(loaded.labels, w.labels)
        assert np.array_equal(loaded.payloads, w.payloads)
        for Ta, Tb in zip(w.templates, loaded.templates):
            assert np.array_equal(Ta, Tb)

    def test_round_trip_of_an_inflated_truncated_world(self, tmp_path):
        w = preprocess_world(generate_world(_ref_spec(noise_scale=0.05), 8, 6),
                             TruncationSpec(mode="keep_top_q", q=2))
        save_world(w, tmp_path / "w")
        loaded = read_world(tmp_path / "w")
        assert loaded.payloads.shape == w.payloads.shape == (48, 12, 12)
        assert loaded.payloads.tobytes() == w.payloads.tobytes()
        assert loaded.labels.tolist() == w.labels.tolist()
        assert loaded.weights.tobytes() == w.weights.tobytes()
        lines = (tmp_path / "w" / "manifest.txt").read_text().splitlines()
        names = [line.split()[1] for line in lines if line.startswith("original ")]
        assert names == [f"o{i:04d}" for i in range(48)]


SAVED_WORLDS = {
    "toy": toy_world,
    "reference": reference_world,
    "truncated": lambda: preprocess_world(
        reference_world(), TruncationSpec(mode="keep_top_q", q=1)),
    "inflated_truncated": lambda: preprocess_world(
        generate_world(_ref_spec(noise_scale=0.05), 8, 6),
        TruncationSpec(mode="keep_top_q", q=2)),
}


@pytest.mark.parametrize("name", list(SAVED_WORLDS))
class TestSavedWorldFormat:
    """What save_world writes: one manifest line per key, in a fixed order, each file named."""

    def _save(self, name, directory):
        w = SAVED_WORLDS[name]()
        save_world(w, directory)
        return w, (directory / "manifest.txt").read_text(encoding="ascii").splitlines()

    def test_manifest_lines_name_the_files_in_order(self, name, tmp_path):
        w, lines = self._save(name, tmp_path / "w")
        K, n = len(w.templates), len(w.payloads)
        assert len(lines) == 1 + K + n
        assert lines[0].startswith("spec = ")
        assert lines[1:1 + K] == [f"template {c} = template_{c:02d}.mat" for c in range(K)]
        for i, line in enumerate(lines[1 + K:]):
            key, _, value = line.partition(" = ")
            assert key == f"original o{i:04d}"
            assert len(value.split()) == 3 and value.split()[0] == f"o{i:04d}.mat", line
        keys = [line.partition(" = ")[0] for line in lines]
        assert len(set(keys)) == len(keys)

    def test_directory_holds_exactly_the_named_files(self, name, tmp_path):
        _w, lines = self._save(name, tmp_path / "w")
        named = {line.partition(" = ")[2].split()[0] for line in lines[1:]}
        assert {p.name for p in (tmp_path / "w").iterdir()} == named | {"manifest.txt"}

    def test_spec_line_echoes_a_valid_spec(self, name, tmp_path):
        w, lines = self._save(name, tmp_path / "w")
        fields = lines[0].partition(" = ")[2].split()
        assert len(fields) == 9
        *ints, confusion, noise, seed = fields
        spec = WorldSpec(*map(int, ints), float(confusion), float(noise), int(seed))
        assert spec == w.spec
        assert np.isfinite(spec.noise_scale) and spec.noise_scale >= 0.0

    def test_weights_written_exactly_and_sum_to_one(self, name, tmp_path):
        w, lines = self._save(name, tmp_path / "w")
        weights = np.array([float(line.split()[-1]) for line in lines if line.startswith("original ")])
        assert weights.tobytes() == w.weights.astype(float).tobytes()
        assert np.all(np.isfinite(weights)) and np.all(weights > 0.0)
        assert abs(weights.sum() - 1.0) < 1e-12

    def test_payloads_have_the_template_shape(self, name, tmp_path):
        w, lines = self._save(name, tmp_path / "w")
        shape = w.templates[0].shape
        for line in lines[1:]:
            fname, *rest = line.partition(" = ")[2].split()
            assert load_matrix_text(tmp_path / "w" / fname).shape == shape, line
            if rest:
                assert 0 <= int(rest[0]) < w.spec.K, line

    def test_saving_twice_writes_the_same_bytes(self, name, tmp_path):
        w = SAVED_WORLDS[name]()
        trees = []
        for d in ("a", "b"):
            save_world(w, tmp_path / d)
            trees.append({p.name: p.read_bytes() for p in (tmp_path / d).iterdir()})
        assert trees[0] == trees[1]
