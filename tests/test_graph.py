from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ctlab import graph
from ctlab.graph import connected_components, spectral_embedding, stage_graph
from ctlab.linalg import sym_eig
from ctlab.svd import TruncationSpec
from ctlab.world import (
    Transform,
    build_augmented_space,
    generate_world,
    inflate,
    labeling_error,
    preprocess_world,
)
from oracles import (
    dense_graph,
    dense_spectral_embedding,
    dense_spectrum,
    enumerated_labeling_error,
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


def reference_laplacian(monkeypatch):
    """The reference graph and the Laplacian that stage_graph hands to sym_eig."""
    seen = []
    monkeypatch.setattr(graph, "sym_eig", lambda S: seen.append(S) or sym_eig(S))
    G = reference_graph()
    (L,) = seen
    return G, L


def oracle_world(which):
    """(world, transforms): the reference world, a q truncation or the 8x inflated noisy world."""
    if which == "inflated8":
        noisy = generate_world(replace(reference_spec(), noise_scale=0.05))
        return inflate(noisy, 8, seed=6), reference_transforms(noisy)
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
        assert np.allclose(G.degrees, [0.25, 0.5, 0.25], atol=1e-15)
        assert np.array_equal(G.space.labels, [0, 1, 1])

    def test_zero_mass_node_raises(self, monkeypatch):
        space = build_augmented_space(toy_world(), toy_transforms())
        joint = space.joint.copy()
        joint[2, :] = joint[:, 2] = 0.0
        monkeypatch.setattr(graph, "build_augmented_space", lambda *_: replace(space, joint=joint))
        with pytest.raises(ValueError, match="a node carries no probability mass"):
            stage_graph(toy_world(), toy_transforms())

    def test_degrees_equal_marginal(self):
        G = reference_graph()
        assert np.allclose(G.degrees, G.space.marginal, atol=1e-14)
        assert abs(G.space.joint.sum() - 1.0) < 1e-10

    def test_adjacency_symmetric_nonnegative(self):
        A = reference_graph().space.joint
        assert np.array_equal(A, A.T)
        assert np.all(A >= 0.0)

    def test_laplacian_symmetric(self, monkeypatch):
        # exactly, so sym_eig's own symmetrization is the only one it needs
        _G, L = reference_laplacian(monkeypatch)
        assert np.array_equal(L, L.T)


@pytest.mark.parametrize("which", ["reference", 1, 2, 3, 4, "inflated8"])
def test_staged_graph_matches_dense_graph_bit_for_bit(which):
    # against the graph record with a Laplacian symmetrized twice
    world, transforms = oracle_world(which)
    staged = stage_graph(world, transforms)
    space = build_augmented_space(world, transforms)
    G = dense_graph(space)
    spec = dense_spectrum(G)
    assert np.array_equal(staged.degrees, G.degrees)
    assert np.array_equal(staged.spectrum.values, spec.values)
    assert np.array_equal(staged.spectrum.vectors, spec.vectors)
    for k in range(1, 9):
        assert np.array_equal(spectral_embedding(staged, k), dense_spectral_embedding(G, spec, k))
    assert staged.alpha == labeling_error(space, world) == enumerated_labeling_error(space, world)


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
        G, L = reference_laplacian(monkeypatch)
        v = np.sqrt(G.degrees)
        assert np.abs(L @ v).max() < 1e-12

    def test_zero_multiplicity_matches_components(self):
        for G in (toy_graph(), reference_graph(), reference_graph(q=3)):
            vals = G.spectrum.values
            zeros = int(np.sum(vals < 1e-8))
            assert zeros == connected_components(G.space.joint)

    def test_disconnected_world(self):
        # identity-only transforms: every original is its own component
        w = reference_world()
        G = stage_graph(w, [Transform("i", 1.0)])
        vals = G.spectrum.values
        assert connected_components(G.space.joint) == 6
        assert np.sum(vals < 1e-8) == 6


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
        Fh = f * np.sqrt(G.degrees)[:, None]
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
