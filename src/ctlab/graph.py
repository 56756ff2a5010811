"""Augmentation graph: degrees, normalized Laplacian spectrum, embedding.

The adjacency is the exact positive-pair joint of an augmented space, so
its total mass is 1 and the degree vector equals the augmented marginal.
Everything is dense; desk-scale graphs stay well under 500 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SymEigen, sym_eig
from .world import AugmentedSpace, World, build_augmented_space, labeling_error

__all__ = [
    "StagedGraph",
    "laplacian_spectrum",
    "stage_graph",
    "spectral_embedding",
    "connected_components",
]


def laplacian_spectrum(A: np.ndarray, degrees: np.ndarray) -> SymEigen:
    """Full ascending spectrum of the normalized Laplacian I - D^-1/2 A D^-1/2.

    The Laplacian is built in one n x n buffer with the bits of
    np.eye(n) - A * np.outer(s, s).  A positive-pair joint is symmetric only
    to rounding (cond^T (w cond) groups a cell's factors and its mirror's
    differently), so sym_eig's symmetrization does real work.
    """
    inv_sqrt = 1.0 / np.sqrt(degrees)
    L = np.outer(inv_sqrt, inv_sqrt)
    L *= A
    np.subtract(0.0, L, out=L)  # 0.0 - x, not -x: a zero cell stays +0.0
    L.flat[:: len(degrees) + 1] += 1.0
    return sym_eig(L)


@dataclass(frozen=True)
class StagedGraph:
    """A world's augmented space, graph degrees, spectrum and labeling error, built once.

    The graph's adjacency is space.joint.
    """

    space: AugmentedSpace
    degrees: np.ndarray  # (n,) row sums of the adjacency, all > 0
    spectrum: SymEigen   # of the normalized Laplacian
    alpha: float         # exact labeling error of the world on that space

    def levels(self, k: int):
        """(lambda_k, lambda_{k+1}); lambda_{k+1} is None when k is the node count."""
        values = self.spectrum.values
        lam_k1 = float(values[k]) if k < self.space.n else None
        return float(values[k - 1]), lam_k1


def stage_graph(world: World, transforms, memo: dict | None = None) -> StagedGraph:
    """Augment a world, take its graph's degrees and eigendecompose the Laplacian once.

    Every node must carry probability mass, which positive world weights and
    transform probabilities guarantee.

    memo, when given, is a dict that remembers the last spectrum computed
    with it: the support triple (xs, ys, w), the degrees and the SymEigen of
    that graph, never its space.  A world whose joint has the same node count
    and the same support triple takes the remembered degrees and spectrum;
    such joints are equal, since no joint entry is -0.0.  Any other world
    empties memo before its Laplacian is eigendecomposed and is remembered
    after.  Without memo every call eigendecomposes its own graph.
    """
    space = build_augmented_space(world, transforms)
    if memo and len(memo["degrees"]) == space.n and all(
        np.array_equal(old, new) for old, new in zip(memo["support"], space.support)
    ):
        degrees, spectrum = memo["degrees"], memo["spectrum"]
    else:
        degrees = space.joint.sum(axis=1)
        if not np.all(degrees > 0.0):
            raise ValueError("stage_graph: a node carries no probability mass")
        if memo is not None:
            memo.clear()
        spectrum = laplacian_spectrum(space.joint, degrees)
        if memo is not None:
            memo.update(support=space.support, degrees=degrees, spectrum=spectrum)
    return StagedGraph(space=space, degrees=degrees, spectrum=spectrum,
                       alpha=labeling_error(space, world))


def spectral_embedding(staged: StagedGraph, k: int) -> np.ndarray:
    """Closed-form minimizer of the spectral contrastive loss, as an n x k table.

    Row x is D_xx^{-1/2} (sqrt(g_1) v_1(x), ..., sqrt(g_k) v_k(x)) with
    g_i = max(1 - lambda_i, 0) and v_i the eigenvectors of the normalized
    adjacency.  Clamping at zero is safe: directions with negative adjacency
    eigenvalue contribute nothing to the minimizer.
    """
    n = staged.space.n
    if not (1 <= k <= n):
        raise ValueError(f"spectral_embedding: k={k} out of range [1, {n}]")
    spec = staged.spectrum
    gammas = np.clip(1.0 - spec.values[:k], 0.0, None)
    table = spec.vectors[:, :k] * np.sqrt(gammas)
    table = table / np.sqrt(staged.degrees)[:, None]
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
