import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ctlab import graph
from ctlab.bounds import theorem4_check
from ctlab.config import load_config, make_transforms
from ctlab.graph import laplacian_spectrum, spectral_embedding, stage_graph
from ctlab.linalg import sym_eig
from ctlab.objectives import McConfig, infonce_population, spectral_loss
from ctlab.svd import TruncationSpec
from ctlab.world import (
    Transform,
    build_augmented_space,
    generate_world,
    labeling_error,
    preprocess_world,
)
from oracles import (
    REFERENCE_CONFIG,
    RHO,
    connected_components,
    dense_component_spectrum,
    dense_components,
    dense_graph,
    dense_spectral_embedding,
    dense_spectrum,
    dense_vectors,
    enumerated_labeling_error,
    random_embedding,
    reference_spec,
    reference_transforms,
    reference_world,
    toy_transforms,
    toy_world,
)


def toy_graph():
    return stage_graph(toy_world(), toy_transforms())


def reference_graph(q=None):
    w = reference_world()
    transforms = reference_transforms(w)
    if q is not None:
        w = preprocess_world(w, TruncationSpec(mode="keep_top_q", q=q))
    return stage_graph(w, transforms)


def staged_laplacian(monkeypatch, staged_graph=reference_graph):
    """A staged graph, the reference one by default, and the Laplacian handed to sym_eig."""
    seen = []
    monkeypatch.setattr(graph, "sym_eig", lambda S: seen.append(S) or sym_eig(S))
    G = staged_graph()
    (L,) = seen
    return G, L


def oracle_world(which):
    """(world, transforms): the reference world, a q truncation, the 8x inflated noisy world
    or the toy world under the identity alone, one component per original."""
    if which == "toy_identity":
        return toy_world(), [Transform("i", 1.0)]
    if which == "inflated8":
        noisy = generate_world(replace(reference_spec(), noise_scale=0.05))
        return generate_world(noisy.spec, 8, 6), reference_transforms(noisy)
    w = reference_world()
    transforms = reference_transforms(w)
    if which != "reference":
        w = preprocess_world(w, TruncationSpec(mode="keep_top_q", q=which))
    return w, transforms


class TestStageGraph:
    def test_toy_adjacency_exact(self):
        G = toy_graph()
        e = 1.0 / 8.0
        assert np.allclose(G.space.joint, [[e, e, 0], [e, 2 * e, e], [0, e, e]], atol=1e-15)
        assert np.allclose(G.space.degrees, [0.25, 0.5, 0.25], atol=1e-15)
        assert np.array_equal(G.space.labels, [0, 1, 1])

    def test_zero_mass_node_raises(self, monkeypatch):
        space = build_augmented_space(toy_world(), toy_transforms())
        cond = space.cond.copy()
        cond[:, 2] = 0.0  # node 2's joint row and column are zero
        monkeypatch.setattr(graph, "build_augmented_space", lambda *_: replace(space, cond=cond))
        with pytest.raises(ValueError, match="a node carries no probability mass"):
            stage_graph(toy_world(), toy_transforms())

    def test_degrees_equal_marginal(self):
        G = reference_graph()
        assert np.allclose(G.space.degrees, G.space.marginal, atol=1e-14)
        assert abs(G.space.joint.sum() - 1.0) < 1e-10

    def test_adjacency_symmetric_nonnegative(self):
        # exactly on the toy world; on the reference world 72 cells differ
        # from their mirror by rounding, at most 2^-60 (about 8.7e-19)
        A = toy_graph().space.joint
        assert np.array_equal(A, A.T)
        A = reference_graph().space.joint
        assert np.max(np.abs(A - A.T)) <= 2.0**-60
        assert np.all(A >= 0.0)

    def test_laplacian_symmetric(self, monkeypatch):
        # exactly on the toy world; on the reference world to rounding, at most
        # 2^-55 (about 2.8e-17), which sym_eig symmetrizes away
        _G, L = staged_laplacian(monkeypatch, toy_graph)
        assert np.array_equal(L, L.T)
        _G, L = staged_laplacian(monkeypatch)
        assert np.max(np.abs(L - L.T)) <= 2.0**-55


@pytest.mark.parametrize("which", ["reference", "inflated8"])
def test_laplacian_has_the_bits_of_the_plain_formula(monkeypatch, which):
    # a split graph hands sym_eig one block per component, in component order;
    # laid on a +0.0 matrix, the blocks give the whole plain formula's bits
    seen = []
    monkeypatch.setattr(graph, "sym_eig", lambda S: seen.append(S.copy()) or sym_eig(S))
    staged = stage_graph(*oracle_world(which))
    n = staged.space.n
    inv_sqrt = 1.0 / np.sqrt(staged.space.degrees)
    want = np.eye(n) - staged.space.joint * np.outer(inv_sqrt, inv_sqrt)
    components = dense_components(dense_graph(staged.space))
    assert len(seen) == len(components) == {"reference": 1, "inflated8": 45}[which]
    got = np.zeros((n, n))
    for nodes, block in zip(components, seen):
        got[np.ix_(nodes, nodes)] = block
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("which", ["reference", 1, 2, 3, 4, "toy_identity", "inflated8"])
def test_staged_graph_matches_dense_graph_bit_for_bit(which):
    # against the graph record with a Laplacian symmetrized twice: its dense
    # spectrum when the graph is connected, its per-component one otherwise;
    # the spectral embedding at every k against the dense formula on that
    # record's n x n eigenvector table
    world, transforms = oracle_world(which)
    staged = stage_graph(world, transforms)
    space = build_augmented_space(world, transforms)
    G = dense_graph(space)
    components = dense_components(G)
    assert (len(components) > 1) == (which in (2, "toy_identity", "inflated8"))
    spec = dense_spectrum(G)
    if len(components) > 1:
        split = dense_component_spectrum(G)
        V = split.vectors
        assert np.max(np.abs(split.values - spec.values)) <= 1e-12
        assert np.linalg.norm(G.L @ V - V * split.values) <= 1e-12
        assert np.max(np.abs(V.T @ V - np.eye(G.n))) <= 1e-12
        spec = split
    assert np.array_equal(staged.space.degrees, G.degrees)
    assert np.array_equal(staged.spectrum.values, spec.values)
    assert np.array_equal(dense_vectors(staged.spectrum), spec.vectors)
    for k in range(1, G.n + 1):
        got, want = spectral_embedding(staged, k), dense_spectral_embedding(G, spec, k)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), k
    assert staged.alpha == labeling_error(space, world) == enumerated_labeling_error(space, world)


def _held_arrays(obj):
    """Every numpy array obj holds: in its attributes (cached ones too), tuples, lists and dicts."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _held_arrays(value)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _held_arrays(item)
    elif hasattr(obj, "__dict__"):
        yield from _held_arrays(vars(obj))


class TestSpectrumMemory:
    """On the 8x inflated graph, 45 components of at most 19 nodes, the spectrum needs no n x n table."""

    def test_laplacian_spectrum_peaks_below_one_n_by_n_table(self):
        staged = stage_graph(*oracle_world("inflated8"))  # caches space.support, as a run does
        n = staged.space.n
        tracemalloc.start()
        try:
            laplacian_spectrum(staged.space)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    def test_staged_graph_and_its_spectrum_hold_no_array_of_n_squared_entries(self):
        # the space's fields, its cached support, row sums and sampling tables,
        # and the spectrum, which a stager hands on, with its support: the
        # joint is formed at staging and dropped
        first = stage_graph(*oracle_world("inflated8"))
        staged = stage_graph(*oracle_world("inflated8"), first.spectrum)
        space, n = staged.space, staged.space.n
        _ = space.pair_cdf, space.marginal_cdf  # cache every table a run reads
        assert len(staged.spectrum.nodes) == 45 and "_pairs" in vars(space)
        assert staged.spectrum is first.spectrum and len(staged.spectrum.support) == 3
        held = list(_held_arrays(staged))
        assert len(held) > 10 and max(a.size for a in held) < n * n


def inflated_world(q):
    """(world, transforms): the 8x inflated noisy world truncated at keep_top_q q."""
    noisy = generate_world(replace(reference_spec(), noise_scale=0.05))
    inflated = generate_world(noisy.spec, 8, 6)
    return preprocess_world(inflated, TruncationSpec(mode="keep_top_q", q=q)), reference_transforms(noisy)


class TestSpectrumReuse:
    """stage_graph(world, transforms, last) reuses the spectrum last for an equal joint only."""

    def test_equal_joint_reuses_the_spectrum_bit_for_bit(self):
        # the inflated q = 1 and q = 2 worlds have one joint; only their labels differ
        first = stage_graph(*inflated_world(1))
        reused = stage_graph(*inflated_world(2), first.spectrum)
        fresh = stage_graph(*inflated_world(2))
        assert reused.spectrum is first.spectrum
        assert reused.alpha != first.alpha and reused.alpha == fresh.alpha
        for got, want in [
            (reused.space.degrees, fresh.space.degrees),
            (reused.spectrum.values, fresh.spectrum.values),
            (dense_vectors(reused.spectrum), dense_vectors(fresh.spectrum)),
        ]:
            assert got.tobytes() == want.tobytes()

    def test_a_different_joint_is_eigendecomposed(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            graph, "laplacian_spectrum", lambda s: calls.append(None) or laplacian_spectrum(s)
        )
        w = reference_world()
        transforms = reference_transforms(w)
        base = stage_graph(w, transforms)
        q3 = stage_graph(preprocess_world(w, TruncationSpec(mode="keep_top_q", q=3)), transforms,
                         base.spectrum)
        assert len(calls) == 2
        assert q3.spectrum is not base.spectrum
        assert all(np.array_equal(a, b) for a, b in zip(q3.spectrum.support, q3.space.support))

    def test_same_support_other_weights_is_eigendecomposed(self):
        # the support cells agree, their weights do not
        toy = toy_world()
        uniform = stage_graph(toy, toy_transforms())
        skewed = replace(toy, weights=np.array([0.25, 0.75]))
        got = stage_graph(skewed, toy_transforms(), uniform.spectrum)
        assert np.array_equal(got.space.support[0], uniform.space.support[0])
        assert np.array_equal(got.space.support[1], uniform.space.support[1])
        assert got.spectrum is not uniform.spectrum
        want = stage_graph(skewed, toy_transforms()).spectrum
        assert got.spectrum.values.tobytes() == want.values.tobytes()
        assert dense_vectors(got.spectrum).tobytes() == dense_vectors(want).tobytes()

    def test_an_extra_massless_node_is_not_a_hit(self, monkeypatch):
        # one more node with no mass leaves the support triple as it was
        last = stage_graph(toy_world(), toy_transforms()).spectrum
        space = build_augmented_space(toy_world(), toy_transforms())
        padded = replace(
            space,
            payloads=np.concatenate([space.payloads, space.payloads[:1] + 1.0]),
            cond=np.pad(space.cond, ((0, 0), (0, 1))),
        )
        assert all(np.array_equal(a, b) for a, b in zip(padded.support, last.support))
        monkeypatch.setattr(graph, "build_augmented_space", lambda *_: padded)
        with pytest.raises(ValueError, match="a node carries no probability mass"):
            stage_graph(toy_world(), toy_transforms(), last)


def relabeled(world, pi):
    """world with class c renamed pi[c]: its templates permuted, every label mapped,
    and class pi[c]'s raw originals moved to pi[c] * per_class; the extras stay in place."""
    K, per_class = world.spec.K, world.spec.per_class
    inv = np.argsort(pi)
    order = np.arange(len(world.payloads))
    order[:K * per_class] = (inv[:, None] * per_class + np.arange(per_class)).ravel()
    return replace(world, payloads=world.payloads[order], labels=pi[world.labels[order]],
                   weights=world.weights[order], templates=world.templates[inv])


def relabeled_transforms(world, pi):
    """The reference transforms with every class argument c mapped to pi[c], built for world."""
    cfg = load_config(REFERENCE_CONFIG)
    descriptors = [(tid, kind, tuple(int(pi[c]) for c in args), p)
                   for tid, kind, args, p in cfg.transform_descriptors]
    return make_transforms(replace(cfg, rho=RHO, transform_descriptors=descriptors), world)


# On the reference world truncated at q = 1, originals o0001 and o0003 lie at
# bit-equal distances from templates 1 and 2; ground_truth_label gives such a
# tie to the smaller index, so a relabeling that puts class 2 before class 1
# moves alpha (0.44 -> 0.5533) and the node labels.  The graph does not move.
_TIE = pytest.mark.xfail(strict=True, raises=AssertionError,
                         reason="q = 1 label ties go to the smaller class index")
RELABELINGS = [
    pytest.param(which, q, pi, marks=[_TIE] * ((which, q) == ("reference", 1) and pi[1] > pi[2]),
                 id=f"{which}-q{q}-pi{''.join(map(str, pi))}")
    for which in ("reference", "inflated8")
    for q in (None, 1, 2, 3, 4)
    for pi in itertools.permutations(range(3))
]


class TestOriginalOrder:
    """A staged graph and the answers read off it do not depend on the order of its originals.

    The raw originals are permuted among themselves, or the inflated ones
    among themselves: preprocess_world truncates the first K * per_class
    originals, so a permutation across that boundary would build another
    graph.  Transforms stay the unpermuted world's.  Over 600 random
    permutations, alpha moved by at most 5.6e-17 and an eigenvalue by
    at most 1.6e-15; the tolerances are 4e-16 and 1e-14.

    At k = 3 and 5 the closed-form spectral loss of spectral_embedding
    agrees within 2e-14 absolute, lambda_{k+1} within 1e-14, and theorem
    4's bound 4 alpha / lambda_{k+1} + 8 alpha within 1e-13 relative
    (undefined on both sides where lambda_{k+1} is zero).  One fixed unit
    table, carried to the permuted node order by matching node payloads,
    has an exact InfoNCE (M = 1) within 1e-14 relative.  Over another 600
    random permutations these moved by at most 4.4e-15, 8.9e-16, 5.5e-15
    and 5.9e-16.  Probe errors and verdicts are not compared: on degenerate rows
    the spectral table is picked by component order.

    Renaming the classes by a permutation pi is a reordering too: the raw
    originals move with their class, the flip, bridge and sibling transforms
    take the renamed classes, and every node label reads through pi.  On the
    60 relabelings below the same quantities agree within the same
    tolerances, except where label ties decide (see RELABELINGS).
    """

    @pytest.mark.parametrize(
        "which, block", [("reference", "raw"), ("inflated8", "raw"), ("inflated8", "inflated")]
    )
    @settings(max_examples=12, deadline=None)
    @given(q=st.sampled_from([None, 1, 2, 3, 4]), data=st.data())
    def test_permuted_originals_stage_the_same_graph(self, which, block, q, data):
        world, transforms = oracle_world(which)
        raw = world.spec.K * world.spec.per_class
        lo, hi = (0, raw) if block == "raw" else (raw, len(world.payloads))
        order = np.arange(len(world.payloads))
        order[lo:hi] = lo + np.array(data.draw(st.permutations(range(hi - lo))))
        permuted = replace(world, payloads=world.payloads[order], labels=world.labels[order],
                           weights=world.weights[order])
        trunc = None if q is None else TruncationSpec(mode="keep_top_q", q=q)
        want, got = (stage_graph(preprocess_world(w, trunc), transforms) for w in (world, permuted))
        self._assert_same_graph(want, got, np.arange(world.spec.K))

    @pytest.mark.parametrize("which, q, pi", RELABELINGS)
    def test_relabeled_classes_stage_the_same_graph(self, which, q, pi):
        world, transforms = oracle_world(which)
        pi = np.array(pi)
        renamed = relabeled(world, pi)
        trunc = None if q is None else TruncationSpec(mode="keep_top_q", q=q)
        want = stage_graph(preprocess_world(world, trunc), transforms)
        got = stage_graph(preprocess_world(renamed, trunc), relabeled_transforms(renamed, pi))
        self._assert_same_graph(want, got, pi)

    @staticmethod
    def _assert_same_graph(want, got, pi):
        """got is want with its nodes reordered and its class c named pi[c].

        What the labels decide (alpha, theorem 4's bound, the node labels) is checked last.
        """
        assert got.space.n == want.space.n
        assert len(got.space.support[0]) == len(want.space.support[0])
        assert len(got.spectrum.nodes) == len(want.spectrum.nodes)
        assert np.max(np.abs(got.spectrum.values - want.spectrum.values)) <= 1e-14
        terms = []
        for k in (3, 5):
            tables = [spectral_embedding(g, k) for g in (want, got)]
            loss_want, loss_got = (spectral_loss(F, g.space) for F, g in zip(tables, (want, got)))
            assert abs(loss_got - loss_want) <= 2e-14
            # a zero head withholds the verdict and keeps the terms
            t_want, t_got = (theorem4_check(g, F, np.zeros((k, g.space.K))).terms
                             for F, g in zip(tables, (want, got)))
            assert abs(t_got["lambda_k1_q"] - t_want["lambda_k1_q"]) <= 1e-14
            terms.append((t_want, t_got))
        # got's node i is want's node match[i]: the view with the nearest payload
        P_want, P_got = (g.space.payloads.reshape(g.space.n, -1) for g in (want, got))
        dist2 = (np.sum(P_got**2, axis=1)[:, None] + np.sum(P_want**2, axis=1)[None, :]
                 - 2.0 * P_got @ P_want.T)
        match = np.argmin(dist2, axis=1)
        assert np.array_equal(np.sort(match), np.arange(want.space.n))
        assert np.max(np.abs(P_got - P_want[match])) <= 1e-9
        F = random_embedding(want.space.n, 3, seed=0)
        exact = McConfig(n_max=want.space.n)
        nce_want, _, _ = infonce_population(F, want.space, 1, exact)
        nce_got, _, _ = infonce_population(F[match], got.space, 1, exact)
        assert abs(nce_got - nce_want) <= 1e-14 * abs(nce_want)
        assert abs(got.alpha - want.alpha) <= 4e-16
        for t_want, t_got in terms:
            if t_want["bound"] is None:
                assert t_got["bound"] is None
            else:
                assert abs(t_got["bound"] - t_want["bound"]) <= 1e-13 * t_want["bound"]
        assert np.array_equal(got.space.labels, pi[want.space.labels[match]])


class TestSpectrum:
    def test_toy_spectrum_exact(self):
        spec = toy_graph().spectrum
        assert np.allclose(spec.values, [0.0, 0.5, 1.0], atol=1e-12)

    def test_spectrum_range(self):
        for G in (toy_graph(), reference_graph(), reference_graph(q=3)):
            vals = G.spectrum.values
            assert vals[0] >= -1e-10
            assert vals[-1] <= 2.0 + 1e-10

    def test_constant_direction_is_null(self, monkeypatch):
        # sqrt(degrees) is always a 0-eigenvector of the normalized Laplacian
        G, L = staged_laplacian(monkeypatch)
        v = np.sqrt(G.space.degrees)
        assert np.abs(L @ v).max() < 1e-12

    def test_zero_multiplicity_matches_components(self):
        for G in (toy_graph(), reference_graph(), reference_graph(q=3)):
            vals = G.spectrum.values
            zeros = int(np.sum(vals < 1e-8))
            assert zeros == connected_components(G.space.joint)

    def test_disconnected_world(self):
        # identity-only transforms: every original is its own component, a
        # 1 x 1 block; the six values are equal, so they keep node order
        w = reference_world()
        G = stage_graph(w, [Transform("i", 1.0)])
        vals = G.spectrum.values
        assert connected_components(G.space.joint) == 6
        assert np.sum(vals < 1e-8) == 6
        assert len(set(vals.tolist())) == 1
        assert dense_vectors(G.spectrum).tobytes() == np.eye(6).tobytes()

    @pytest.mark.parametrize("which", [2, "inflated8"])
    def test_a_split_spectrum_keeps_each_vector_on_its_component(self, which):
        G = stage_graph(*oracle_world(which))
        components = dense_components(dense_graph(G.space))
        assert connected_components(G.space.joint) == len(components) > 1
        assert [nodes.tolist() for nodes in G.spectrum.nodes] == components
        labels = np.empty(G.space.n, dtype=int)
        for c, nodes in enumerate(components):
            labels[nodes] = c
        for column in dense_vectors(G.spectrum).T:
            assert len(set(labels[column != 0.0].tolist())) == 1
        # the Laplacian's cross-component cells are +0.0, so the split drops nothing
        inv_sqrt = 1.0 / np.sqrt(G.space.degrees)
        L = np.eye(G.space.n) - G.space.joint * np.outer(inv_sqrt, inv_sqrt)
        cross = L[labels[:, None] != labels[None, :]]
        assert cross.size and cross.tobytes() == np.zeros(cross.size).tobytes()


class TestSpectralEmbedding:
    def test_toy_closed_form(self):
        # gammas are (1, 1/2, 0); rescaled eigenvectors give integer rows
        G = toy_graph()
        f = spectral_embedding(G, 3)
        want = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, -1.0, 0.0]])
        assert np.allclose(f, want, atol=1e-10)

    def test_prefix_property(self):
        G = reference_graph()
        f8 = spectral_embedding(G, 8)
        f3 = spectral_embedding(G, 3)
        assert np.allclose(f8[:, :3], f3, atol=1e-12)

    def test_k_bounds(self):
        G = toy_graph()
        with pytest.raises(ValueError):
            spectral_embedding(G, 0)
        with pytest.raises(ValueError):
            spectral_embedding(G, 4)

    def test_gram_identity(self):
        # D^{1/2} f has orthogonal columns with norms gamma_i
        G = reference_graph()
        k = 6
        f = spectral_embedding(G, k)
        Fh = f * np.sqrt(G.space.degrees)[:, None]
        gram = Fh.T @ Fh
        gammas = np.clip(1.0 - G.spectrum.values[:k], 0.0, None)
        assert np.allclose(gram, np.diag(gammas), atol=1e-10)


class TestComponents:
    def test_path_graph(self):
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 0] = A[2, 3] = A[3, 2] = 1.0
        assert connected_components(A) == 2
        A[1, 2] = A[2, 1] = 1.0
        assert connected_components(A) == 1

    def test_empty(self):
        assert connected_components(np.zeros((5, 5))) == 5
        assert connected_components(np.zeros((0, 0))) == 0

    def test_a_path_through_larger_nodes(self):
        # 0 - 8 - 9 - 6: node 6 learns label 0 only through nodes larger than itself
        A = np.zeros((11, 11))
        for i, j in [(0, 8), (8, 9), (9, 6)]:
            A[i, j] = A[j, i] = 0.2
        assert connected_components(A) == 8

    def test_a_one_way_support_cell_raises(self):
        # row 0 lists cell (0, 1), row 1 does not list (1, 0): node 0 never
        # hears of node 1, so the cell would cross two components
        with pytest.raises(ValueError, match="the support is not symmetric"):
            graph._component_labels(np.array([0, 1]), np.array([1, 1]), 2)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                hnp.arrays(np.float64, (n, n), elements=st.sampled_from([0.0, 0.0, 0.2, 0.5, 1.0])),
                hnp.arrays(np.bool_, n),  # nodes stripped of every edge
            )
        ),
        st.sampled_from([0.0, 0.25, 0.5]),
    )
    def test_matches_union_find(self, case, tol):
        W, isolated = case
        A = np.triu(W, 1)
        A = A + A.T
        A[isolated, :] = 0.0
        A[:, isolated] = 0.0
        n = len(A)
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for i in range(n):
            for j in range(i + 1, n):
                if A[i, j] > tol:
                    parent[find(i)] = find(j)
        assert connected_components(np.where(A > tol, A, 0.0)) == len({find(i) for i in range(n)})


class TestTrace:
    """tr(A), the self-loop mass that `ctlab graph` writes."""

    def test_toy_trace(self):
        assert np.trace(toy_graph().space.joint) == 0.5

    def test_cross_original_merges_preserve_trace(self):
        # merged views of *different* originals add off-diagonal mass only
        A_raw = reference_graph().space.joint
        A_q = reference_graph(q=3).space.joint
        assert len(A_q) < len(A_raw)
        assert abs(np.trace(A_q) - np.trace(A_raw)) < 1e-12
        assert np.trace(A_raw) <= 1.0 + 1e-12

    def test_same_original_collision_raises_trace(self):
        # two transforms with identical outcomes on one original square up
        # the conditional entry, so the self-loop mass grows
        w = toy_world()
        A1 = stage_graph(w, toy_transforms()).space.joint
        both_blank = [
            Transform("m1", 0.5, keep=np.zeros((1, 2))),
            Transform("m2", 0.5, keep=np.zeros((1, 2))),
        ]
        A2 = stage_graph(w, both_blank).space.joint
        assert np.trace(A2) == 1.0
        assert np.trace(A2) > np.trace(A1) + 1e-12
