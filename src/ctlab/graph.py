"""Augmentation graph: degrees, normalized Laplacian spectrum, embedding.

The adjacency is the exact positive-pair joint of an augmented space, so
its total mass is 1 and the degree vector equals the augmented marginal.
The space holds the joint's support, not the joint, and the spectrum is
kept per connected component, so no n x n table is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import sym_eig
from .world import AugmentedSpace, World, build_augmented_space, labeling_error

__all__ = [
    "ComponentSpectrum",
    "StagedGraph",
    "laplacian_spectrum",
    "stage_graph",
    "spectral_embedding",
]


def _component_labels(xs, ys, n: int) -> np.ndarray:
    """Each node's connected component, named by its smallest node.

    (xs, ys) is a symmetric, row-major support with no empty row.  Each pass
    gives a node the least label of its row and itself, then that label's label.
    """
    starts = np.flatnonzero(np.diff(xs, prepend=-1))
    labels, spread = None, np.arange(n)
    while not np.array_equal(spread, labels):
        labels = spread
        least = np.minimum(np.minimum.reduceat(labels[ys], starts), labels)
        spread = least[least]
    if not np.array_equal(labels[xs], labels[ys]):
        raise ValueError("component labels: the support is not symmetric")
    return labels


@dataclass(frozen=True)
class ComponentSpectrum:
    """Ascending spectrum of a normalized Laplacian, eigenvectors kept by connected component.

    Component c (in the order of its smallest node) spans nodes[c], ascending.
    Its eigenpair j is pair positions[c][j] of the ascending spectrum, with
    eigenvalue values[positions[c][j]] and eigenvector vectors[c][:, j] on
    nodes[c]; that vector is exactly zero off its component, and no n x n
    table of them is made.  support is the space's support triple (xs, ys, w)
    the Laplacian was laid from.
    """

    values: np.ndarray  # (n,) ascending
    nodes: tuple        # per component, its (s,) nodes, ascending
    positions: tuple    # per component, its (s,) positions in values, ascending
    vectors: tuple      # per component, its (s, s) unit eigenvectors as columns
    support: tuple      # the (xs, ys, w) support triple of the graph


def laplacian_spectrum(space: AugmentedSpace) -> ComponentSpectrum:
    """Full ascending spectrum of the normalized Laplacian I - D^-1/2 A D^-1/2, A = space.joint.

    D = diag(space.degrees).  The Laplacian is block-diagonal over the connected
    components of space.support (every other cell is exactly +0.0).  Each block
    is laid from its support cells with the bits of np.eye(n) - A * np.outer(s, s)
    and eigendecomposed alone, so a connected graph keeps a dense eigh's bits.
    A positive-pair joint is symmetric only to rounding (cond^T (w cond)
    groups a cell's factors and its mirror's differently), so sym_eig's
    symmetrization does real work.  Values merge ascending by a stable
    sort: ties keep component order (smallest node first).
    """
    n = space.n
    xs, ys, w = space.support
    components = _component_labels(xs, ys, n)
    inv_sqrt = 1.0 / np.sqrt(space.degrees)
    cells = 0.0 - inv_sqrt[xs] * inv_sqrt[ys] * w  # 0.0 - x, not -x: an underflow stays +0.0
    roots = np.flatnonzero(components == np.arange(n))
    nodes = tuple(np.flatnonzero(components == root) for root in roots)
    owner, local, parts = components[xs], np.empty(n, dtype=np.intp), []
    for root, m in zip(roots, nodes):
        local[m] = np.arange(len(m))  # each node's place in its block
        mine = owner == root
        L = np.zeros((len(m), len(m)))
        L[local[xs[mine]], local[ys[mine]]] = cells[mine]
        L.flat[:: len(m) + 1] += 1.0
        parts.append(sym_eig(L))
    values = np.concatenate([part.values for part in parts])
    order = sorted(range(n), key=values.tolist().__getitem__)
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)  # where each block's eigenpair lands
    ends = np.cumsum([len(m) for m in nodes])
    return ComponentSpectrum(
        values=values[order],
        nodes=nodes,
        positions=tuple(np.split(position, ends[:-1])),
        vectors=tuple(part.vectors for part in parts),
        support=space.support,
    )


@dataclass(frozen=True)
class StagedGraph:
    """A world's augmented space, spectrum and labeling error, built once.

    The graph's adjacency is space.joint; the space holds its support and degrees.
    """

    space: AugmentedSpace
    spectrum: ComponentSpectrum  # of the normalized Laplacian
    alpha: float                 # exact labeling error of the world on that space

    def levels(self, k: int):
        """(lambda_k, lambda_{k+1}); lambda_{k+1} is None when k is the node count."""
        values = self.spectrum.values
        lam_k1 = float(values[k]) if k < self.space.n else None
        return float(values[k - 1]), lam_k1


def stage_graph(world: World, transforms, last: ComponentSpectrum | None = None) -> StagedGraph:
    """Augment a world and eigendecompose its graph's Laplacian once.

    Every node must carry probability mass, which positive world weights and
    transform probabilities guarantee.

    last, when given, is an earlier spectrum.  A world whose joint has last's
    node count and support triple takes last; such joints are equal, since
    no joint entry is -0.0.  Any other world's Laplacian is eigendecomposed.
    """
    space = build_augmented_space(world, transforms)
    if last is not None and len(last.values) == space.n and all(
        np.array_equal(old, new) for old, new in zip(last.support, space.support)
    ):
        spectrum = last
    else:
        if not np.all(space.degrees > 0.0):
            raise ValueError("stage_graph: a node carries no probability mass")
        spectrum = laplacian_spectrum(space)
    return StagedGraph(space=space, spectrum=spectrum, alpha=labeling_error(space, world))


def spectral_embedding(staged: StagedGraph, k: int) -> np.ndarray:
    """Closed-form minimizer of the spectral contrastive loss, as an n x k table.

    Row x is D_xx^{-1/2} (sqrt(g_1) v_1(x), ..., sqrt(g_k) v_k(x)) with
    g_i = max(1 - lambda_i, 0) and v_i the eigenvectors of the normalized
    adjacency.  Clamping at zero is safe: directions with negative adjacency
    eigenvalue contribute nothing to the minimizer.  Only the first k
    eigenpairs are read, and column i is +0.0 off pair i's component.
    """
    n = staged.space.n
    if not (1 <= k <= n):
        raise ValueError(f"spectral_embedding: k={k} out of range [1, {n}]")
    spec = staged.spectrum
    # each entry takes the two steps of V[:, :k] * sqrt(gammas) / sqrt(degrees)[:, None]
    # for the dense eigenvector table V, so it has that formula's bits
    gammas = np.clip(1.0 - spec.values[:k], 0.0, None)
    roots, scale = np.sqrt(gammas), np.sqrt(staged.space.degrees)
    table = np.zeros((n, k))
    for nodes, positions, vectors in zip(spec.nodes, spec.positions, spec.vectors):
        if positions[0] < k:  # positions ascend: the component holds c of the first k pairs
            c = np.searchsorted(positions, k)
            p = positions[:c]
            table[np.ix_(nodes, p)] = vectors[:, :c] * roots[p] / scale[nodes][:, None]
    return table
