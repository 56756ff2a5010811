"""Fixture worlds and reference implementations the tests compare ctlab against.

No `ctlab` command reaches anything here.  The batch InfoNCE functions with
`full_support_batch` are the oracles of both population InfoNCE engines;
`logaddexp_exact_infonce` is the log-space oracle of the exact engine and
`dense_sampled_infonce` the bit-for-bit oracle of the sampled engine.

The toy world has two 1x2 originals and a masking transform whose shared
blank view carries the wrong label; every probability in its augmented
space is a small dyadic rational, so adjacency, spectrum, labeling error,
and bound values are all checkable by hand.

The reference world is a 3-class planted world (semantic rank 3, one
wrong-class nuisance direction per original) with four groups of
transforms:

  * identity;
  * flip patterns rho*(T_w - T_c): harmless on clean payloads (rho < 1/2)
    but, combined with the planted nuisance, they push variant-0 originals
    across the class boundary;
  * bridge patterns (rho - 1)*(T_w - T_c): on a clean class-w original they
    reproduce the flip view of class c exactly, creating an inter-class
    shared view (and a small controlled labeling error) once truncation
    removes the nuisance;
  * sibling patterns (payload difference of the two same-class originals):
    they make the two originals of a class share a view, connecting each
    class's subgraph in the raw space.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ctlab.bounds import theorem4_check
from ctlab.config import _TABLE
from ctlab.graph import spectral_embedding
from ctlab.linalg import SymEigen, as_matrix, gaussian_matrix, orthonormalize, sym_eig
from ctlab.objectives import Embedding, fit_linear_head
from ctlab.svd import SvdFactors, TruncationSpec, svd_full, svd_truncate
from ctlab.world import Transform, World, WorldSpec, build_transform, generate_world

RHO = 0.35  # flip-pattern strength; < 1/2 so clean payloads never flip


# ---------------------------------------------------------------------------
# fixture worlds


def toy_world() -> World:
    """Two originals [[4,0]] and [[0,2]], uniform weights.

    The all-zero matrix is closer to the second template, so the blank
    view produced by full masking carries label 1.
    """
    T0 = np.array([[4.0, 0.0]])
    T1 = np.array([[0.0, 2.0]])
    spec = WorldSpec(
        K=2,
        per_class=1,
        m=1,
        m_prime=2,
        q_star=1,
        nuisance_rank=0,
        nuisance_confusion=0.0,
        noise_scale=0.0,
        seed=0,
    )
    return World(
        payloads=np.stack([T0, T1]),
        labels=np.array([0, 1]),
        weights=np.array([0.5, 0.5]),
        templates=np.stack([T0, T1]),
        spec=spec,
    )


def toy_transforms():
    """Identity and a full mask, each with probability 1/2."""
    return [
        Transform("identity", 0.5),
        Transform("mask_all", 0.5, keep=np.zeros((1, 2))),
    ]


def reference_spec(seed: int = 11) -> WorldSpec:
    return WorldSpec(
        K=3,
        per_class=2,
        m=12,
        m_prime=12,
        q_star=3,
        nuisance_rank=1,
        nuisance_confusion=0.9,
        noise_scale=0.0,
        seed=seed,
    )


def reference_world(seed: int = 11) -> World:
    return generate_world(reference_spec(seed))


def reference_transforms(
    world: World,
    rho: float = RHO,
    p_flip: float = 0.12,
    p_bridge: float = 0.04,
    p_sibling: float = 0.06,
):
    """Transform family for the reference world; probabilities must leave
    room for the identity, which absorbs the remainder."""
    K = world.spec.K
    total = K * (p_flip + p_bridge + p_sibling)
    p_id = 1.0 - total
    if p_id <= 0.0:
        raise ValueError("reference_transforms: probabilities exceed 1")
    descriptors = [("identity", "identity", (), p_id)]
    for c in range(K):
        w = (c + 1) % K
        descriptors.append((f"flip_{c}{w}", "flip", (c, w), p_flip))
        descriptors.append((f"bridge_{c}{w}", "bridge", (c, w), p_bridge))
    descriptors += [(f"sibling_{c}", "sibling", (c,), p_sibling) for c in range(K)]
    return [build_transform(world, *d, rho) for d in descriptors]


# ---------------------------------------------------------------------------
# batch InfoNCE


def random_embedding(n: int, k: int, seed: int, normalized: bool = True) -> Embedding:
    table = gaussian_matrix(n, k, seed)
    if normalized:
        table = table / np.linalg.norm(table, axis=1, keepdims=True)
    return Embedding(table=table, normalized=normalized)


def infonce_empirical(f: Embedding, batch: np.ndarray, weights=None) -> float:
    """Empirical InfoNCE over a (B, 2 + M) int batch of node indices.

    Columns are anchor, positive, negative_1..negative_M.  Optional weights
    turn the plain mean into a weighted mean, which makes a full-support
    weighted batch reproduce the population loss exactly.
    """
    if len(batch) == 0:
        raise ValueError("infonce_empirical: empty batch")
    a, pidx, negs = batch[:, 0], batch[:, 1], batch[:, 2:]
    F = f.table
    s_pos = np.sum(F[a] * F[pidx], axis=1)
    s_neg = np.einsum("bk,bmk->bm", F[a], F[negs])
    stacked = np.concatenate([s_pos[:, None], s_neg], axis=1)
    mx = stacked.max(axis=1)
    losses = mx + np.log(np.sum(np.exp(stacked - mx[:, None]), axis=1)) - s_pos
    if weights is None:
        return float(np.mean(losses))
    weights = np.asarray(weights, dtype=float)
    return float(weights @ losses / weights.sum())


def infonce_gradient(f: Embedding, batch: np.ndarray, weights=None) -> np.ndarray:
    """Analytic gradient of the empirical InfoNCE w.r.t. every embedding row.

    For a normalized embedding the Euclidean gradient is projected onto the
    tangent space of each row (Riemannian gradient on the sphere).
    """
    if len(batch) == 0:
        raise ValueError("infonce_gradient: empty batch")
    a, others = batch[:, 0], batch[:, 1:]  # others: positive, then negatives
    F = f.table
    sims = np.einsum("bk,bmk->bm", F[a], F[others])  # (B, 1 + M)
    ex = np.exp(sims - sims.max(axis=1, keepdims=True))
    probs = ex / ex.sum(axis=1, keepdims=True)
    if weights is None:
        w = np.full(len(batch), 1.0 / len(batch))
    else:
        w = np.asarray(weights, dtype=float)
        w = w / w.sum()
    probs[:, 0] -= 1.0
    # C sums each row's w * probs at (anchor, other); the loss depends on
    # F through S = F F^T, so its gradient is (C + C^T) F
    n = F.shape[0]
    rows, cols, coef = np.broadcast_arrays(a[:, None], others, w[:, None] * probs)
    C = np.bincount((rows * n + cols).ravel(), coef.ravel(), n * n).reshape(n, n)
    grad = (C + C.T) @ F
    if f.normalized:
        grad = grad - np.sum(grad * F, axis=1, keepdims=True) * F
    return grad


def dense_sampled_infonce(sims, flat, coef=False):
    """Per-row InfoNCE losses of a sampled batch, with coef its dense C = dL/dS.

    The oracle of the sampled engine's bits: flat is the batch as
    `_table_indices`, and C is one bincount over all n^2 cells of the
    batch mean's terms, in batch order.  Returns (losses, C), C None
    without coef.
    """
    s = np.take(sims, flat)  # (1 + M, B)
    mx = s.max(axis=0)
    ex = np.exp(s - mx)
    total = ex.sum(axis=0)
    losses = mx + np.log(total) - s[0]
    C = None
    if coef:
        n = sims.shape[0]
        probs = ex / total
        probs[0] -= 1.0
        probs *= 1.0 / flat.shape[1]  # each row's weight in the batch mean
        C = np.bincount(flat.ravel(), probs.ravel(), n * n).reshape(n, n)
    return losses, C


def full_support_batch(space, M: int):
    """Weighted batch enumerating the joint support with all negative combos.

    Rows (format of `infonce_empirical`) run over support pairs, then over
    negative combos in lexicographic order, skipping combos of zero weight.
    Weight of a row is p(x, x+) * prod p(x_i^-); the weighted empirical
    loss over this batch equals the population loss exactly.
    """
    xs, ys, w = space.support
    combos = np.indices((space.n,) * M).reshape(M, space.n**M).T
    combo_w = np.ones(1)
    for _ in range(M):
        combo_w = np.outer(combo_w, space.marginal).ravel()
    keep = combo_w != 0.0
    combos, combo_w = combos[keep], combo_w[keep]
    pairs = np.repeat(np.column_stack([xs, ys]), len(combos), axis=0)
    batch = np.column_stack([pairs, np.tile(combos, (len(xs), 1))])
    return batch, np.outer(w, combo_w).ravel()


def logaddexp_exact_infonce(sims, space, M: int, coef=False):
    """Exact population InfoNCE of sims = F F^T, and with coef C = dL/dS.

    The oracle of the exp-space engine: the same enumeration in log space,
    every two-term log-sum-exp by np.logaddexp (for M = 2 first over the two
    negatives, then with the positive) and every softmax weight as
    exp(s - lse).  Returns (loss, C), C None without coef.
    """
    xs, ys = np.nonzero(space.joint)
    w = space.joint[xs, ys]
    p = space.marginal
    s_pos = sims[xs, ys]
    n = space.n
    C = np.zeros((n, n)) if coef else None
    if M == 1:
        s_neg = sims[xs, :]
        lse = np.logaddexp(s_pos[:, None], s_neg)
        expect = lse @ p
        if coef:
            C[xs, ys] = w * (np.exp(s_pos[:, None] - lse) @ p - 1.0)
            neg = w[:, None] * np.exp(s_neg - lse) * p
            flat = (xs[:, None] * n + np.arange(n)).ravel()
            C += np.bincount(flat, neg.ravel(), n * n).reshape(n, n)
    else:
        expect = np.empty(len(xs))
        starts = np.searchsorted(xs, np.arange(n + 1))
        for x in range(n):
            sel = slice(starts[x], starts[x + 1])
            if sel.start == sel.stop:
                continue
            row = sims[x, :]
            negs = np.logaddexp(row[:, None], row[None, :])
            lse = np.logaddexp(s_pos[sel, None, None], negs)
            expect[sel] = lse @ p @ p
            if coef:
                pos = np.exp(s_pos[sel, None, None] - lse) @ p @ p
                C[x, ys[sel]] = w[sel] * (pos - 1.0)
                neg = np.exp(row[None, :, None] - lse) @ p
                C[x, :] += 2.0 * p * (w[sel] @ neg)
    return float(w @ (expect - s_pos)), C


# ---------------------------------------------------------------------------
# graph: the record-per-step staging that graph.stage_graph replaces


@dataclass(frozen=True)
class DenseGraph:
    A: np.ndarray  # the space's joint
    degrees: np.ndarray
    L: np.ndarray  # I - D^-1/2 A D^-1/2, symmetrized
    labels: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]


def dense_graph(space) -> DenseGraph:
    """The graph of a space, its Laplacian symmetrized before sym_eig symmetrizes it again."""
    A = space.joint
    degrees = A.sum(axis=1)
    if not np.all(degrees > 0.0):
        raise ValueError("dense_graph: a node carries no probability mass")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    L = np.eye(space.n) - A * np.outer(inv_sqrt, inv_sqrt)
    return DenseGraph(A=A, degrees=degrees, L=0.5 * (L + L.T), labels=space.labels)


def dense_spectrum(G: DenseGraph) -> SymEigen:
    return sym_eig(G.L)


def dense_spectral_embedding(G: DenseGraph, spec: SymEigen, k: int) -> np.ndarray:
    if not (1 <= k <= G.n):
        raise ValueError(f"dense_spectral_embedding: k={k} out of range [1, {G.n}]")
    gammas = np.clip(1.0 - spec.values[:k], 0.0, None)
    table = spec.vectors[:, :k] * np.sqrt(gammas)
    table = table / np.sqrt(G.degrees)[:, None]
    return table


def enumerated_labeling_error(space, world: World) -> float:
    """Exact labeling error by enumeration over (original, node) pairs."""
    mismatch = (space.labels[None, :] != world.labels[:, None]).astype(float)
    per_orig = np.sum(space.cond * mismatch, axis=1)
    return float(world.weights @ per_orig)


# ---------------------------------------------------------------------------
# SVD


def reconstruct(F: SvdFactors) -> np.ndarray:
    return (F.U * F.S) @ F.V.T


def truncate_matrix(X, spec: TruncationSpec) -> np.ndarray:
    """svd_truncate(svd_full(X), spec)."""
    return svd_truncate(svd_full(X), spec)


@dataclass(frozen=True)
class EckartYoungReport:
    truncated_error: float
    min_competitor_error: float
    trials: int
    holds: bool


def eckart_young_check(X, q: int, trials: int, seed: int) -> EckartYoungReport:
    """Check the rank-q optimum against random rank-q competitors.

    Competitors alternate between products of random Gaussian factors and
    random rank-q projections of X itself.  The truncated SVD must beat
    every one of them in Frobenius error (slack 1e-10).
    """
    X = as_matrix(X, "eckart_young_check input")
    m, mp = X.shape
    if trials < 1:
        raise ValueError("eckart_young_check: trials must be >= 1")
    if q > min(m, mp):
        raise ValueError(f"eckart_young_check: q={q} exceeds min(m, m')")
    F = svd_full(X)
    Xq = svd_truncate(F, TruncationSpec(mode="keep_top_q", q=q))
    err_q = float(np.linalg.norm(X - Xq))
    best = np.inf
    holds = True
    for t in range(trials):
        if t % 2 == 0:
            left = gaussian_matrix(m, q, seed + 2 * t)
            right = gaussian_matrix(q, mp, seed + 2 * t + 1)
            # scale the free competitor to the least-squares optimum along itself
            B = left @ right
            denom = float(np.sum(B * B))
            if denom > 0:
                B = B * (float(np.sum(X * B)) / denom)
        else:
            P = orthonormalize(gaussian_matrix(m, q, seed + 2 * t))
            B = P @ (P.T @ X)  # random rank-q projection of X
        err_b = float(np.linalg.norm(X - B))
        best = min(best, err_b)
        if err_q > err_b + 1e-10:
            holds = False
    return EckartYoungReport(
        truncated_error=err_q,
        min_competitor_error=best,
        trials=trials,
        holds=holds,
    )


# ---------------------------------------------------------------------------
# bound checks


def theorem4_at_probe_defaults(staged, k: int):
    """theorem4_check with the spectral head fitted at the [probe] section's defaults."""
    probe = {key: default for key, (_field, _kind, default, _bound) in _TABLE["probe"].items()}
    f = Embedding(spectral_embedding(staged, k), normalized=False)
    (head,) = fit_linear_head([f], staged.space, probe["steps"], probe["step_size"], probe["l2"])
    return theorem4_check(staged, f, head)


# ---------------------------------------------------------------------------
# artifacts


def parse_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [dict(zip(header, row)) for row in reader]
