"""Losses, classifiers, and trainers over node-indexed embedding tables.

Encoders are free per-node tables rather than neural networks: the bounds
quantify over all encoders into the unit sphere, so the lab exercises them
with the richest tractable class.  All population expectations use the
augmented marginal; positive pairs use the exact pair joint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import gaussian_matrix
from .world import AugmentedSpace, World

__all__ = [
    "Embedding",
    "MeanHead",
    "LinearHead",
    "McConfig",
    "infonce_population",
    "infonce_empirical",
    "infonce_gradient",
    "spectral_loss",
    "train_free_embeddings",
    "mean_head",
    "ce_risk",
    "fit_linear_head",
    "classification_error",
    "majority_vote_error",
    "random_embedding",
]


@dataclass(frozen=True)
class Embedding:
    table: np.ndarray  # (n, k)
    normalized: bool

    @property
    def n(self) -> int:
        return self.table.shape[0]

    @property
    def k(self) -> int:
        return self.table.shape[1]

    def check(self) -> None:
        if self.normalized:
            norms = np.linalg.norm(self.table, axis=1)
            if np.max(np.abs(norms - 1.0)) > 1e-10:
                raise ValueError("embedding flagged normalized but rows are not unit")


def random_embedding(n: int, k: int, seed: int, normalized: bool = True) -> Embedding:
    table = gaussian_matrix(n, k, seed)
    if normalized:
        table = table / np.linalg.norm(table, axis=1, keepdims=True)
    return Embedding(table=table, normalized=normalized)


@dataclass(frozen=True)
class MeanHead:
    mu: np.ndarray          # (k, K) class means as columns
    class_mass: np.ndarray  # (K,)


@dataclass(frozen=True)
class LinearHead:
    W: np.ndarray  # (k, K)

    @property
    def frob_norm(self) -> float:
        return float(np.linalg.norm(self.W))


@dataclass(frozen=True)
class McConfig:
    samples: int = 20000
    replicates: int = 8
    seed: int = 0
    n_max: int = 60   # exact enumeration threshold on node count
    m_max: int = 2    # exact enumeration threshold on negative count


def _pair_support(space: AugmentedSpace):
    """Indices and weights of the positive-pair joint support."""
    xs, ys = np.nonzero(space.joint)
    return xs, ys, space.joint[xs, ys]


# ---------------------------------------------------------------------------
# InfoNCE


def infonce_population(
    f: Embedding, space: AugmentedSpace, M: int, cfg: McConfig = McConfig()
):
    """Population InfoNCE with M negatives drawn from the augmented marginal.

    Returns (estimate, std_error, exact).  Exact enumeration over the joint
    support and all negative combinations when M <= cfg.m_max and
    n <= cfg.n_max, else a seeded Monte Carlo estimate with its standard
    error.
    """
    if M < 1:
        raise ValueError("infonce_population: M must be >= 1")
    xs, ys, w = _pair_support(space)
    if len(xs) == 0:
        raise ValueError("infonce_population: empty positive-pair support")
    F = f.table
    sims = F @ F.T  # (n, n)
    if M <= cfg.m_max and space.n <= cfg.n_max:
        p = space.marginal
        s_pos = sims[xs, ys]
        if M == 1:
            # E_z log(e^{s+} + e^{s_z}) per pair, vectorized over z
            lse = np.logaddexp(s_pos[:, None], sims[xs, :])  # (pairs, n)
            expect = lse @ p
        elif M == 2:
            expect = np.empty(len(xs))
            for t in range(len(xs)):
                row = sims[xs[t], :]
                lse = np.logaddexp(
                    s_pos[t], np.logaddexp(row[:, None], row[None, :])
                )
                expect[t] = float(p @ lse @ p)
        else:  # pragma: no cover - m_max guards this
            raise ValueError("exact enumeration supports M <= 2")
        value = float(w @ (expect - s_pos))
        return value, 0.0, True

    batch = _sample_batch(space, M, cfg.samples, cfg.seed)
    a = batch[:, 0]
    losses = _nce_losses(sims[a, batch[:, 1]], sims[a[:, None], batch[:, 2:]])
    estimate = float(np.mean(losses))
    std_error = float(np.std(losses, ddof=1) / np.sqrt(cfg.samples))
    return estimate, std_error, False


def _sample_batch(space: AugmentedSpace, M: int, samples: int, seed: int):
    """Seeded i.i.d. batch: pairs from the joint, M negatives from the marginal."""
    rng = np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))
    flat = space.joint.ravel()
    pair_idx = rng.choice(len(flat), size=samples, p=flat / flat.sum())
    ax, px = np.unravel_index(pair_idx, space.joint.shape)
    negs = rng.choice(space.n, size=(samples, M), p=space.marginal)
    return np.column_stack([ax, px, negs])


def _nce_losses(s_pos: np.ndarray, s_neg: np.ndarray) -> np.ndarray:
    """Per-row log(e^{s+} + sum_m e^{s_m}) - s+, stabilized by the row max."""
    stacked = np.concatenate([s_pos[:, None], s_neg], axis=1)
    mx = stacked.max(axis=1)
    lse = mx + np.log(np.sum(np.exp(stacked - mx[:, None]), axis=1))
    return lse - s_pos


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
    losses = _nce_losses(s_pos, s_neg)
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
    a, pidx, negs = batch[:, 0], batch[:, 1], batch[:, 2:]
    B, M = negs.shape
    F = f.table
    grad = np.zeros_like(F)
    s_pos = np.sum(F[a] * F[pidx], axis=1)
    s_neg = np.einsum("bk,bmk->bm", F[a], F[negs])
    stacked = np.concatenate([s_pos[:, None], s_neg], axis=1)
    mx = stacked.max(axis=1, keepdims=True)
    ex = np.exp(stacked - mx)
    probs = ex / ex.sum(axis=1, keepdims=True)  # (B, 1 + M)
    if weights is None:
        w = np.full(B, 1.0 / B)
    else:
        w = np.asarray(weights, dtype=float)
        w = w / w.sum()
    coef_pos = w * (probs[:, 0] - 1.0)
    np.add.at(grad, a, coef_pos[:, None] * F[pidx])
    np.add.at(grad, pidx, coef_pos[:, None] * F[a])
    for m in range(M):
        coef = w * probs[:, 1 + m]
        np.add.at(grad, a, coef[:, None] * F[negs[:, m]])
        np.add.at(grad, negs[:, m], coef[:, None] * F[a])
    if f.normalized:
        radial = np.sum(grad * F, axis=1, keepdims=True)
        grad = grad - radial * F
    return grad


def full_support_batch(space: AugmentedSpace, M: int):
    """Weighted batch enumerating the joint support with all negative combos.

    Rows (format of `infonce_empirical`) run over support pairs, then over
    negative combos in lexicographic order, skipping combos of zero weight.
    Weight of a row is p(x, x+) * prod p(x_i^-); the weighted empirical
    loss over this batch equals the population loss exactly.
    """
    xs, ys, w = _pair_support(space)
    combos = np.indices((space.n,) * M).reshape(M, space.n**M).T
    combo_w = np.ones(1)
    for _ in range(M):
        combo_w = np.outer(combo_w, space.marginal).ravel()
    keep = combo_w != 0.0
    combos, combo_w = combos[keep], combo_w[keep]
    pairs = np.repeat(np.column_stack([xs, ys]), len(combos), axis=0)
    batch = np.column_stack([pairs, np.tile(combos, (len(xs), 1))])
    return batch, np.outer(w, combo_w).ravel()


# ---------------------------------------------------------------------------
# spectral contrastive loss


def spectral_loss(f: Embedding, space: AugmentedSpace) -> float:
    """Exact spectral contrastive loss.

    -2 E_{(x,x+)}[f(x)^T f(x+)] + E_{x,x- iid marginal}[(f(x)^T f(x-))^2];
    both expectations are quadratic forms in the embedding table.
    """
    F = f.table
    pos = float(np.sum(space.joint * (F @ F.T)))
    G = F.T @ (space.marginal[:, None] * F)  # (k, k)
    neg = float(np.sum(G * G))
    return -2.0 * pos + neg


def _spectral_grad(F: np.ndarray, space: AugmentedSpace) -> np.ndarray:
    G = F.T @ (space.marginal[:, None] * F)
    return -4.0 * (space.joint @ F) + 4.0 * (space.marginal[:, None] * F) @ G


# ---------------------------------------------------------------------------
# free-embedding training


def train_free_embeddings(
    space: AugmentedSpace,
    k: int,
    loss: str,
    steps: int,
    step_size: float,
    seed: int,
    M: int = 1,
    cfg: McConfig = McConfig(),
) -> Embedding:
    """Gradient descent on a free per-node embedding table.

    loss "spectral" descends the exact spectral loss unconstrained; loss
    "infonce" descends the empirical InfoNCE over a fixed full-support (or
    seeded sampled) batch with re-projection onto the unit sphere after
    every step.  Backtracking halves the step size whenever a step would
    increase the loss, so the loss is non-increasing over accepted steps.
    """
    n = space.n
    if k < 1:
        raise ValueError("train_free_embeddings: k must be >= 1")
    table = 0.5 * gaussian_matrix(n, k, seed)
    if loss == "infonce":
        table = table / np.linalg.norm(table, axis=1, keepdims=True)
        if M <= cfg.m_max and n <= cfg.n_max:
            batch, weights = full_support_batch(space, M)
        else:
            batch = _sample_batch(space, M, cfg.samples, cfg.seed + seed + 1)
            weights = None

        def loss_fn(T):
            return infonce_empirical(Embedding(T, True), batch, weights)

        def grad_fn(T):
            return infonce_gradient(Embedding(T, True), batch, weights)

        def retract(T):
            return T / np.linalg.norm(T, axis=1, keepdims=True)

        normalized = True
    elif loss == "spectral":

        def loss_fn(T):
            return spectral_loss(Embedding(T, False), space)

        def grad_fn(T):
            return _spectral_grad(T, space)

        def retract(T):
            return T

        normalized = False
    else:
        raise ValueError(f"train_free_embeddings: unknown loss {loss!r}")

    current = loss_fn(table)
    eta = step_size
    for _ in range(steps):
        g = grad_fn(table)
        accepted = False
        for _try in range(40):
            cand = retract(table - eta * g)
            cand_loss = loss_fn(cand)
            if not np.isfinite(cand_loss):
                raise RuntimeError("train_free_embeddings: loss diverged (NaN/Inf)")
            if cand_loss <= current + 1e-15:
                table, current = cand, cand_loss
                accepted = True
                eta = min(eta * 1.1, step_size * 10)
                break
            eta *= 0.5
        if not accepted:
            break
    return Embedding(table=table, normalized=normalized)


# ---------------------------------------------------------------------------
# heads and downstream risks


def mean_head(f: Embedding, space: AugmentedSpace) -> MeanHead:
    """Probability-weighted class means under the augmented marginal."""
    K = int(space.labels.max()) + 1
    mu = np.zeros((f.k, K))
    mass = np.zeros(K)
    for c in range(K):
        sel = space.labels == c
        mass[c] = float(space.marginal[sel].sum())
        if mass[c] <= 0.0:
            raise ValueError(f"mean_head: class {c} has zero marginal mass")
        mu[:, c] = space.marginal[sel] @ f.table[sel] / mass[c]
    return MeanHead(mu=mu, class_mass=mass)


def _logits(f: Embedding, head) -> np.ndarray:
    cols = head.mu if isinstance(head, MeanHead) else head.W
    return f.table @ cols


def ce_risk(f: Embedding, head, space: AugmentedSpace) -> float:
    """Cross-entropy risk under the augmented marginal, exact enumeration."""
    logits = _logits(f, head)
    mx = logits.max(axis=1, keepdims=True)
    log_z = mx[:, 0] + np.log(np.sum(np.exp(logits - mx), axis=1))
    log_p = logits[np.arange(space.n), space.labels] - log_z
    return float(-space.marginal @ log_p)


def fit_linear_head(
    f: Embedding,
    space: AugmentedSpace,
    steps: int,
    step_size: float,
    l2: float = 0.0,
    seed: int = 0,
) -> LinearHead:
    """Gradient descent on the CE risk plus l2 ||W||^2 / 2, from W = 0."""
    K = int(space.labels.max()) + 1
    F = f.table
    p = space.marginal
    Y = np.zeros((space.n, K))
    Y[np.arange(space.n), space.labels] = 1.0
    W = np.zeros((f.k, K))
    for _ in range(steps):
        logits = F @ W
        mx = logits.max(axis=1, keepdims=True)
        ex = np.exp(logits - mx)
        probs = ex / ex.sum(axis=1, keepdims=True)
        grad = F.T @ (p[:, None] * (probs - Y)) + l2 * W
        W = W - step_size * grad
        if not np.all(np.isfinite(W)):
            raise RuntimeError("fit_linear_head: diverged (NaN/Inf in W)")
    return LinearHead(W=W)


def classification_error(f: Embedding, head, space: AugmentedSpace) -> float:
    """Marginal-weighted top-1 error; argmax ties break to the smallest index."""
    logits = _logits(f, head)
    preds = np.argmax(logits, axis=1)
    return float(space.marginal @ (preds != space.labels))


def majority_vote_error(
    f: Embedding, head, world: World, space: AugmentedSpace
) -> float:
    """Error of the majority-vote classifier over originals."""
    logits = _logits(f, head)
    preds = np.argmax(logits, axis=1)
    K = logits.shape[1]
    err = 0.0
    orig_labels = world.labels()
    for oi in range(world.n_originals):
        votes = np.zeros(K)
        for c in range(K):
            votes[c] = float(space.cond[oi, preds == c].sum())
        maj = int(np.argmax(votes))
        if maj != orig_labels[oi]:
            err += float(world.weights[oi])
    return err
