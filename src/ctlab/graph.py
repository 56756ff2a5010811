"""Augmentation graph: adjacency, normalized Laplacian, spectrum, embedding.

The adjacency is the exact positive-pair joint of an augmented space, so
its total mass is 1 and the degree vector equals the augmented marginal.
Everything is dense; desk-scale graphs stay well under 500 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import sym_eig
from .world import AugmentedSpace, World, build_augmented_space, labeling_error

__all__ = [
    "AugmentationGraph",
    "Spectrum",
    "StagedGraph",
    "build_graph",
    "laplacian_spectrum",
    "stage_graph",
    "spectral_embedding",
    "connected_components",
]


@dataclass(frozen=True)
class AugmentationGraph:
    A: np.ndarray          # (n, n) symmetric, entrywise >= 0, total mass 1
    degrees: np.ndarray    # (n,), all > 0
    L: np.ndarray          # I - D^-1/2 A D^-1/2
    labels: np.ndarray     # true labels of the nodes

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class Spectrum:
    values: np.ndarray   # ascending eigenvalues of L
    vectors: np.ndarray  # columns are the corresponding eigenvectors


def build_graph(space: AugmentedSpace) -> AugmentationGraph:
    """Assemble the adjacency from the exact positive-pair joint.

    A and labels are the space's own arrays, not copies.  Every node must
    carry probability mass, which positive world weights and transform
    probabilities guarantee.
    """
    A = space.joint
    degrees = A.sum(axis=1)
    if not np.all(degrees > 0.0):
        raise ValueError("build_graph: a node carries no probability mass")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    L = np.eye(space.n) - A * np.outer(inv_sqrt, inv_sqrt)
    return AugmentationGraph(A=A, degrees=degrees, L=0.5 * (L + L.T), labels=space.labels)


def laplacian_spectrum(G: AugmentationGraph) -> Spectrum:
    """Full ascending spectrum of the normalized Laplacian."""
    eig = sym_eig(G.L)
    return Spectrum(values=eig.values, vectors=eig.vectors)


@dataclass(frozen=True)
class StagedGraph:
    """A world's augmented space, graph, spectrum and labeling error, built once."""

    space: AugmentedSpace
    graph: AugmentationGraph
    spectrum: Spectrum
    alpha: float  # exact labeling error of the world on that space

    def levels(self, k: int):
        """(lambda_k, lambda_{k+1}); lambda_{k+1} is None when k is the node count."""
        values = self.spectrum.values
        lam_k1 = float(values[k]) if k < self.graph.n else None
        return float(values[k - 1]), lam_k1


def stage_graph(world: World, transforms) -> StagedGraph:
    """Augment a world, build its graph and eigendecompose the Laplacian once."""
    space = build_augmented_space(world, transforms)
    graph = build_graph(space)
    return StagedGraph(
        space=space,
        graph=graph,
        spectrum=laplacian_spectrum(graph),
        alpha=labeling_error(space, world).alpha,
    )


def spectral_embedding(G: AugmentationGraph, spec: Spectrum, k: int) -> np.ndarray:
    """Closed-form minimizer of the spectral contrastive loss, as an n x k table.

    Row x is D_xx^{-1/2} (sqrt(g_1) v_1(x), ..., sqrt(g_k) v_k(x)) with
    g_i = max(1 - lambda_i, 0) and v_i the eigenvectors of the normalized
    adjacency.  Clamping at zero is safe: directions with negative adjacency
    eigenvalue contribute nothing to the minimizer.  spec is the spectrum
    of G's Laplacian.
    """
    if not (1 <= k <= G.n):
        raise ValueError(f"spectral_embedding: k={k} out of range [1, {G.n}]")
    gammas = np.clip(1.0 - spec.values[:k], 0.0, None)
    table = spec.vectors[:, :k] * np.sqrt(gammas)
    table = table / np.sqrt(G.degrees)[:, None]
    return table


def connected_components(A: np.ndarray) -> int:
    """Number of connected components of the support graph of A.

    Every node starts with its own index as label and repeatedly takes the
    smallest label among itself and its neighbours in the symmetric support
    (A > 0) | (A^T > 0); at the fixed point each component carries its
    smallest node index.
    """
    n = A.shape[0]
    support = (A > 0) | (A.T > 0)
    labels = np.arange(n)
    while True:
        spread = np.where(support, labels, labels[:, None]).min(axis=1, initial=n)
        if np.array_equal(spread, labels):
            return len(np.unique(labels))
        labels = spread
