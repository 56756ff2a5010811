from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ctlab.fixtures import (
    reference_transforms,
    reference_world,
    toy_transforms,
    toy_world,
)
from ctlab.graph import (
    build_graph,
    connected_components,
    laplacian_spectrum,
    spectral_embedding,
)
from ctlab.svd import TruncationSpec
from ctlab.world import Transform, build_augmented_space, preprocess_world


def toy_graph():
    w = toy_world()
    return build_graph(build_augmented_space(w, toy_transforms()))


def reference_graph(q=None):
    w = reference_world()
    transforms = reference_transforms(w)
    if q is not None:
        w = preprocess_world(w, TruncationSpec(mode="keep_top_q", q=q))
    return build_graph(build_augmented_space(w, transforms))


class TestBuildGraph:
    def test_toy_adjacency_exact(self):
        G = toy_graph()
        e = 1.0 / 8.0
        assert np.allclose(G.A, [[e, e, 0], [e, 2 * e, e], [0, e, e]], atol=1e-15)
        assert np.allclose(G.degrees, [0.25, 0.5, 0.25], atol=1e-15)
        assert np.array_equal(G.labels, [0, 1, 1])

    def test_zero_mass_node_raises(self):
        space = build_augmented_space(toy_world(), toy_transforms())
        joint = space.joint.copy()
        joint[2, :] = joint[:, 2] = 0.0
        with pytest.raises(ValueError, match="a node carries no probability mass"):
            build_graph(replace(space, joint=joint))

    def test_degrees_equal_marginal(self):
        w = reference_world()
        space = build_augmented_space(w, reference_transforms(w))
        G = build_graph(space)
        assert np.allclose(G.degrees, space.marginal, atol=1e-14)
        assert abs(G.A.sum() - 1.0) < 1e-10

    def test_adjacency_symmetric_nonnegative(self):
        G = reference_graph()
        assert np.array_equal(G.A, G.A.T)
        assert np.all(G.A >= 0.0)

    def test_laplacian_symmetric(self):
        G = reference_graph()
        assert np.array_equal(G.L, G.L.T)


class TestSpectrum:
    def test_toy_spectrum_exact(self):
        spec = laplacian_spectrum(toy_graph())
        assert np.allclose(spec.values, [0.0, 0.5, 1.0], atol=1e-12)

    def test_spectrum_range(self):
        for G in (toy_graph(), reference_graph(), reference_graph(q=3)):
            vals = laplacian_spectrum(G).values
            assert vals[0] >= -1e-10
            assert vals[-1] <= 2.0 + 1e-10

    def test_constant_direction_is_null(self):
        # sqrt(degrees) is always a 0-eigenvector of the normalized Laplacian
        G = reference_graph()
        v = np.sqrt(G.degrees)
        assert np.abs(G.L @ v).max() < 1e-12

    def test_zero_multiplicity_matches_components(self):
        for G in (toy_graph(), reference_graph(), reference_graph(q=3)):
            vals = laplacian_spectrum(G).values
            zeros = int(np.sum(vals < 1e-8))
            assert zeros == connected_components(G.A)

    def test_disconnected_world(self):
        # identity-only transforms: every original is its own component
        w = reference_world()
        space = build_augmented_space(
            w, [Transform(id="i", kind="identity", probability=1.0)]
        )
        G = build_graph(space)
        vals = laplacian_spectrum(G).values
        assert connected_components(G.A) == 6
        assert np.sum(vals < 1e-8) == 6


class TestSpectralEmbedding:
    def test_toy_closed_form(self):
        # gammas are (1, 1/2, 0); rescaled eigenvectors give integer rows
        G = toy_graph()
        f = spectral_embedding(G, laplacian_spectrum(G), 3)
        want = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, -1.0, 0.0]])
        assert np.allclose(f, want, atol=1e-10)

    def test_prefix_property(self):
        G = reference_graph()
        spec = laplacian_spectrum(G)
        f8 = spectral_embedding(G, spec, 8)
        f3 = spectral_embedding(G, spec, 3)
        assert np.allclose(f8[:, :3], f3, atol=1e-12)

    def test_k_bounds(self):
        G = toy_graph()
        with pytest.raises(ValueError):
            spectral_embedding(G, laplacian_spectrum(G), 0)
        with pytest.raises(ValueError):
            spectral_embedding(G, laplacian_spectrum(G), 4)

    def test_gram_identity(self):
        # D^{1/2} f has orthogonal columns with norms gamma_i
        G = reference_graph()
        k = 6
        spec = laplacian_spectrum(G)
        f = spectral_embedding(G, spec, k)
        Fh = f * np.sqrt(G.degrees)[:, None]
        gram = Fh.T @ Fh
        gammas = np.clip(1.0 - spec.values[:k], 0.0, None)
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
        assert connected_components(A, tol) == len({find(i) for i in range(n)})


class TestTrace:
    """tr(A), the self-loop mass that `ctlab graph` writes."""

    def test_toy_trace(self):
        assert np.trace(toy_graph().A) == 0.5

    def test_cross_original_merges_preserve_trace(self):
        # merged views of *different* originals add off-diagonal mass only
        G_raw = reference_graph()
        G_q = reference_graph(q=3)
        assert G_q.n < G_raw.n
        assert abs(np.trace(G_q.A) - np.trace(G_raw.A)) < 1e-12
        assert np.trace(G_raw.A) <= 1.0 + 1e-12

    def test_same_original_collision_raises_trace(self):
        # two transforms with identical outcomes on one original square up
        # the conditional entry, so the self-loop mass grows
        w = toy_world()
        G1 = build_graph(build_augmented_space(w, toy_transforms()))
        both_blank = [
            Transform(id="m1", kind="block_mask", probability=0.5, params=(0, 1, 0, 2)),
            Transform(id="m2", kind="block_mask", probability=0.5, params=(0, 1, 0, 2)),
        ]
        G2 = build_graph(build_augmented_space(w, both_blank))
        assert np.trace(G2.A) == 1.0
        assert np.trace(G2.A) > np.trace(G1.A) + 1e-12
