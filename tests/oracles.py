"""Fixture worlds and reference implementations the tests compare ctlab against.

No `ctlab` command reaches anything here.  The batch InfoNCE functions with
`full_support_batch` are the oracles of both population InfoNCE engines;
`logaddexp_exact_infonce` is the log-space oracle of the exact engine,
`dense_sampled_infonce` the oracle of the sampled engine on the whole
similarity table, `dense_lse_approx_error` that of `lse_approx_error`,
`fit_alone` the plain per-table descent the stacked probe is held to,
`positive_mask` the (n, n) label-consistency mask of the variance and
alignment oracles, `connected_components` the component count of a dense
adjacency, and `dense_component_spectrum` the per-component oracle
of a graph's spectrum when the graph is not connected; `dense_vectors` lays
a staged spectrum's per-component eigenvectors out as the n x n table those
oracles hold.
`load_matrix_text` and `read_world` read back what `save_matrix_text` and
`save_world` write; ctlab never reads them.

The toy world has two 1x2 originals and a masking transform whose shared
blank view carries the wrong label; every probability in its augmented
space is a small dyadic rational, so adjacency, spectrum, labeling error,
and bound values are all checkable by hand.

The reference world is a 3-class planted world (semantic rank 3, one
wrong-class nuisance direction per original) with the transforms of
configs/reference.ini, in four groups:

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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ctlab.bounds import theorem4_check
from ctlab.config import _TABLE, load_config, make_transforms
from ctlab.graph import _component_labels, spectral_embedding
from ctlab.linalg import (
    _TEXT_HEADER, SymEigen, as_matrix, gaussian_matrix, orthonormalize, sym_eig,
)
from ctlab.objectives import fit_linear_head
from ctlab.svd import SvdFactors, TruncationSpec, svd_full, svd_truncate
from ctlab.world import Transform, World, WorldSpec, generate_world

RHO = 0.35  # flip-pattern strength; < 1/2 so clean payloads never flip
REFERENCE_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "reference.ini")


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


def reference_transforms(world: World, rho: float = RHO):
    """The transforms `ctlab` builds for world from configs/reference.ini, at strength rho."""
    return make_transforms(replace(load_config(REFERENCE_CONFIG), rho=rho), world)


# ---------------------------------------------------------------------------
# batch InfoNCE


def random_embedding(n: int, k: int, seed: int, normalized: bool = True) -> np.ndarray:
    """A gaussian (n, k) table, its rows scaled to unit norm when normalized."""
    table = gaussian_matrix(n, k, seed)
    if normalized:
        table = table / np.linalg.norm(table, axis=1, keepdims=True)
    return table


def unit_rows(F: np.ndarray) -> bool:
    """Whether every row of F has unit norm within 1e-10, the sandwich checks' tolerance."""
    return bool(np.max(np.abs(np.linalg.norm(F, axis=1) - 1.0)) <= 1e-10)


def infonce_empirical(F: np.ndarray, batch: np.ndarray, weights=None) -> float:
    """Empirical InfoNCE over a (B, 2 + M) int batch of node indices.

    Columns are anchor, positive, negative_1..negative_M.  Optional weights
    turn the plain mean into a weighted mean, which makes a full-support
    weighted batch reproduce the population loss exactly.
    """
    if len(batch) == 0:
        raise ValueError("infonce_empirical: empty batch")
    a, pidx, negs = batch[:, 0], batch[:, 1], batch[:, 2:]
    s_pos = np.sum(F[a] * F[pidx], axis=1)
    s_neg = np.einsum("bk,bmk->bm", F[a], F[negs])
    stacked = np.concatenate([s_pos[:, None], s_neg], axis=1)
    mx = stacked.max(axis=1)
    losses = mx + np.log(np.sum(np.exp(stacked - mx[:, None]), axis=1)) - s_pos
    if weights is None:
        return float(np.mean(losses))
    weights = np.asarray(weights, dtype=float)
    return float(weights @ losses / weights.sum())


def infonce_gradient(F: np.ndarray, batch: np.ndarray, weights=None, tangent=False):
    """Analytic gradient of the empirical InfoNCE w.r.t. every row of the table F.

    With tangent, F's rows are unit and the Euclidean gradient is projected
    onto the tangent space of each row (Riemannian gradient on the sphere).
    """
    if len(batch) == 0:
        raise ValueError("infonce_gradient: empty batch")
    a, others = batch[:, 0], batch[:, 1:]  # others: positive, then negatives
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
    if tangent:
        grad = grad - np.sum(grad * F, axis=1, keepdims=True) * F
    return grad


def dense_sampled_infonce(sims, flat, coef=False):
    """Per-row InfoNCE losses of a sampled batch, with coef its dense C = dL/dS.

    The oracle of the sampled engine, bit for bit when sims holds the
    engine's row blocks: flat is the batch as `_table_indices`, and C is one
    bincount over all n^2 cells of the batch mean's terms, in batch order.
    Returns (losses, C), C None without coef.
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


def dense_lse_approx_error(sims, space, M: int, replicates: int, seed: int):
    """lse_approx_error on the whole similarity table sims = F F^T, left as it is.

    The dense oracle of the block reader: the same replicate draws and the
    same per-row arithmetic, every row read from one (n, n) table.
    """
    p = space.marginal
    estimates = np.empty(replicates)
    for r in range(replicates):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed & (2**64 - 1), r], dtype=np.uint64))
        )
        negs = space.marginal_cdf.draw(rng.random((space.n, M)))
        s = sims[np.arange(space.n)[:, None], negs]  # (n, M)
        smx = s.max(axis=1)
        estimates[r] = float(p @ (smx + np.log(np.mean(np.exp(s - smx[:, None]), axis=1))))
    mx = sims.max(axis=1)
    exact = float(p @ (mx + np.log(np.exp(sims - mx[:, None]) @ p)))
    errors = np.abs(estimates - exact)
    return float(np.mean(errors)), float(np.std(errors, ddof=1))


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


def connected_components(A: np.ndarray) -> int:
    """Number of connected components of the support graph (A > 0) | (A^T > 0)."""
    n = len(A)
    support = (A > 0) | (A.T > 0)
    np.fill_diagonal(support, True)  # a node with no edge still has a row
    return int(np.count_nonzero(_component_labels(*np.nonzero(support), n) == np.arange(n)))


def dense_components(G: DenseGraph) -> list:
    """G's connected components by depth-first search over A > 0, each as ascending nodes.

    Components come in the order of their smallest node.
    """
    seen, components = set(), []
    for root in range(G.n):
        if root in seen:
            continue
        seen.add(root)
        stack, members = [root], []
        while stack:
            x = stack.pop()
            members.append(x)
            for y in np.flatnonzero((G.A[x] > 0) | (G.A[:, x] > 0)).tolist():
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        components.append(sorted(members))
    return components


def dense_component_spectrum(G: DenseGraph) -> SymEigen:
    """sym_eig of each component's block of G.L, merged ascending.

    Equal values keep component order, then sym_eig's order within the
    component; each vector is zero outside its component.
    """
    components = dense_components(G)
    parts = [sym_eig(G.L[np.ix_(nodes, nodes)]) for nodes in components]
    pairs = sorted(
        (float(value), c, j) for c, part in enumerate(parts) for j, value in enumerate(part.values)
    )
    vectors = np.zeros((G.n, G.n))
    for col, (_value, c, j) in enumerate(pairs):
        vectors[components[c], col] = parts[c].vectors[:, j]
    return SymEigen(values=np.array([value for value, _c, _j in pairs]), vectors=vectors)


def dense_vectors(spectrum) -> np.ndarray:
    """The n x n eigenvector table of a ComponentSpectrum: column i is eigenpair i's vector."""
    n = len(spectrum.values)
    vectors = np.zeros((n, n))
    for nodes, positions, block in zip(spectrum.nodes, spectrum.positions, spectrum.vectors):
        vectors[np.ix_(nodes, positions)] = block
    return vectors


def dense_spectral_embedding(G: DenseGraph, spec: SymEigen, k: int) -> np.ndarray:
    if not (1 <= k <= G.n):
        raise ValueError(f"dense_spectral_embedding: k={k} out of range [1, {G.n}]")
    gammas = np.clip(1.0 - spec.values[:k], 0.0, None)
    table = spec.vectors[:, :k] * np.sqrt(gammas)
    table = table / np.sqrt(G.degrees)[:, None]
    return table


def positive_mask(space) -> np.ndarray:
    """Boolean (n, n) mask of a space's label-consistent pairs (the X+ set)."""
    return space.labels[:, None] == space.labels[None, :]


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
# probe


def fit_alone(F, space, steps, step_size, l2):
    """Reference probe: the per-table, row-major descent with a row-wise max
    and a divergence check after every step."""
    K = space.K
    p = space.marginal
    Y = np.zeros((space.n, K))
    Y[np.arange(space.n), space.labels] = 1.0
    W = np.zeros((F.shape[1], K))
    for _ in range(steps):
        logits = F @ W
        mx = logits.max(axis=1, keepdims=True)
        ex = np.exp(logits - mx)
        probs = ex / ex.sum(axis=1, keepdims=True)
        grad = F.T @ (p[:, None] * (probs - Y)) + l2 * W
        W = W - step_size * grad
        if not np.all(np.isfinite(W)):
            raise RuntimeError("fit_linear_head: diverged (NaN/Inf in W)")
    return W


# ---------------------------------------------------------------------------
# bound checks


def theorem4_at_probe_defaults(staged, k: int):
    """theorem4_check with the spectral head fitted at the [probe] section's defaults."""
    probe = {key: default for key, (_field, _kind, default, _bound) in _TABLE["probe"].items()}
    F = spectral_embedding(staged, k)
    (head,) = fit_linear_head([F], staged.space, probe["steps"], probe["step_size"], probe["l2"])
    return theorem4_check(staged, F, head)


# ---------------------------------------------------------------------------
# artifacts


def parse_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [dict(zip(header, row)) for row in reader]


def load_matrix_text(path) -> np.ndarray:
    """The matrix save_matrix_text wrote to path."""
    with open(path, encoding="ascii") as fh:
        assert fh.readline() == _TEXT_HEADER + "\n", path
        rows, cols = map(int, fh.readline().split())
        values = [float(v) for v in fh.read().split()]
    assert len(values) == rows * cols, path
    return np.array(values).reshape(rows, cols)


def read_world(directory) -> World:
    """The world save_world wrote to directory, in the order of its manifest."""
    directory = Path(directory)
    templates, payloads, labels, weights = [], [], [], []
    for line in (directory / "manifest.txt").read_text(encoding="ascii").splitlines():
        key, _, value = line.partition(" = ")
        fields = value.split()
        if key == "spec":
            assert len(fields) == 9, line
            *ints, confusion, noise, seed = fields
            spec = WorldSpec(*map(int, ints), float(confusion), float(noise), int(seed))
        elif key.startswith("template "):
            templates.append(load_matrix_text(directory / value))
        else:
            fname, label, weight = fields
            payloads.append(load_matrix_text(directory / fname))
            labels.append(int(label))
            weights.append(float(weight))
    return World(np.stack(payloads), np.array(labels), np.array(weights), np.stack(templates), spec)
