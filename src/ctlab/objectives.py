"""Losses, classifiers, and trainers over node-indexed embedding tables.

Encoders are free per-node tables rather than neural networks: the bounds
quantify over all encoders into the unit sphere, so the lab exercises them
with the richest tractable class.  All population expectations use the
augmented marginal; positive pairs use the exact pair joint.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import gaussian_matrix
from .world import AugmentedSpace

__all__ = [
    "DivergenceError",
    "Embedding",
    "LinearHead",
    "McConfig",
    "ProbeConfig",
    "infonce_population",
    "spectral_loss",
    "train_free_embeddings",
    "mean_head",
    "ce_risk",
    "fit_linear_head",
    "classification_error",
]


@dataclass(frozen=True)
class Embedding:
    table: np.ndarray  # (n, k)
    normalized: bool

    @property
    def k(self) -> int:
        return self.table.shape[1]

    def check(self) -> None:
        if self.normalized:
            norms = np.linalg.norm(self.table, axis=1)
            if np.max(np.abs(norms - 1.0)) > 1e-10:
                raise ValueError("embedding flagged normalized but rows are not unit")


@dataclass(frozen=True)
class LinearHead:
    W: np.ndarray  # (k, K)

    @property
    def frob_norm(self) -> float:
        return float(np.linalg.norm(self.W))


class DivergenceError(RuntimeError):
    """A descent whose loss or parameters stopped being finite."""


@dataclass(frozen=True)
class McConfig:
    samples: int = 20000
    replicates: int = 8
    seed: int = 0
    n_max: int = 60   # exact enumeration threshold on node count
    m_max: int = 2    # exact enumeration threshold on negative count


@dataclass(frozen=True)
class ProbeConfig:
    """Defaults of `fit_linear_head`'s descent, the [probe] config section."""

    steps: int = 300
    step_size: float = 2.0
    l2: float = 0.0


# ---------------------------------------------------------------------------
# InfoNCE


def infonce_population(
    f: Embedding, space: AugmentedSpace, M: int, cfg: McConfig = McConfig()
):
    """Population InfoNCE with M negatives drawn from the augmented marginal.

    Returns (estimate, std_error, exact).  Exact enumeration over the joint
    support and all negative combinations within cfg's thresholds, else a
    seeded Monte Carlo estimate with its standard error.
    """
    if M < 1:
        raise ValueError("infonce_population: M must be >= 1")
    if not np.any(space.joint):
        raise ValueError("infonce_population: empty positive-pair support")
    evaluate, exact = _infonce(space, M, cfg, cfg.seed)
    losses, _ = evaluate(f.table @ f.table.T)
    if exact:
        return losses, 0.0, True
    std_error = float(np.std(losses, ddof=1) / np.sqrt(cfg.samples))
    return float(np.mean(losses)), std_error, False


def _infonce(space: AugmentedSpace, M: int, cfg: McConfig, seed: int):
    """(evaluate, exact): the population InfoNCE of space with M negatives.

    The one choice of engine: the exact engine when M is within cfg.m_max
    and the node count within cfg.n_max, else the Monte Carlo kernel on one
    batch of cfg.samples rows drawn with `seed`.  evaluate(sims, coef=False) -> (losses, C) takes
    sims = F F^T; losses is the exact loss or the batch's per-row losses,
    and with coef C is the coefficient matrix of the loss (or of their mean).
    """
    if M <= cfg.m_max and space.n <= cfg.n_max:
        return _exact_infonce(space, M), True
    flat = _table_indices(_sample_batch(space, M, cfg.samples, seed), space.n)
    return (lambda sims, coef=False: _sampled_infonce(sims, flat, coef)), False


def _exact_infonce(space: AugmentedSpace, M: int):
    """Build the exact population InfoNCE engine of one space and M.

    The M = 1 scatter indices and the M = 2 anchor offsets of the space's
    pair support are computed once, here.  Returns `engine(sims, coef=False)
    -> (loss, C)` for the similarity table sims = F F^T; with coef, C = dL/dS
    is the (n, n) coefficient matrix of the loss in the entries of S taken
    as independent variables, else None.  C is fresh on every call, so a C
    returned earlier stays valid.  M = 1 works in two (pairs, n) buffers
    owned by the engine; M = 2 loops over anchors and holds (pairs of one
    anchor, n, n) arrays.
    """
    xs, ys, w = space.support
    p = space.marginal
    n = space.n
    if M == 1:
        neg_idx = (xs[:, None] * n + np.arange(n)).ravel()
        S = np.empty((len(xs), n))
        L = np.empty((len(xs), n))
    elif M == 2:
        starts = np.searchsorted(xs, np.arange(n + 1))  # xs is sorted
    else:  # pragma: no cover - m_max guards this
        raise ValueError("exact enumeration supports M <= 2")

    def engine(sims: np.ndarray, coef=False):
        s_pos = sims[xs, ys]
        C = np.zeros((n, n)) if coef else None
        if M == 1:
            # E_z log(e^{s+} + e^{s_z}) per pair, vectorized over z.  xs is in
            # range; with the default mode="raise", take would copy via a
            # temporary instead of writing into S
            np.take(sims, xs, axis=0, out=S, mode="clip")
            np.logaddexp(s_pos[:, None], S, out=L)
            expect = L @ p
            if coef:
                # negatives w * exp(s_neg - lse) * p in S, positives in L
                np.subtract(S, L, out=S)
                np.exp(S, out=S)
                np.multiply(w[:, None], S, out=S)
                np.multiply(S, p, out=S)
                np.subtract(s_pos[:, None], L, out=L)
                np.exp(L, out=L)
                C[xs, ys] = w * (L @ p - 1.0)
                C += np.bincount(neg_idx, S.ravel(), n * n).reshape(n, n)
        else:
            expect = np.empty(len(xs))
            for x in range(n):
                sel = slice(starts[x], starts[x + 1])
                if sel.start == sel.stop:
                    continue
                row = sims[x, :]
                lse = np.logaddexp(
                    s_pos[sel, None, None], np.logaddexp(row[:, None], row[None, :])
                )  # (pairs of x, n, n), symmetric in the two negatives
                expect[sel] = lse @ p @ p
                if coef:
                    pos = np.exp(s_pos[sel, None, None] - lse) @ p @ p
                    C[x, ys[sel]] = w[sel] * (pos - 1.0)
                    # both negative slots give the same term by symmetry
                    neg = np.exp(row[None, :, None] - lse) @ p
                    C[x, :] += 2.0 * p * (w[sel] @ neg)
        return float(w @ (expect - s_pos)), C

    return engine


def _gradient(F: np.ndarray, C: np.ndarray, normalized: bool) -> np.ndarray:
    """Gradient (C + C^T) F of a loss with dL/d(F F^T) = C.

    For a normalized embedding the radial part of each row is removed
    (Riemannian gradient on the sphere).
    """
    grad = (C + C.T) @ F
    if normalized:
        grad = grad - np.sum(grad * F, axis=1, keepdims=True) * F
    return grad


def _sample_batch(space: AugmentedSpace, M: int, samples: int, seed: int):
    """Seeded i.i.d. batch: pairs from the joint, M negatives from the marginal.

    Pairs are drawn by inverse CDF over the joint's support in row-major
    order.  This is the draw of `rng.choice` over all n^2 cells: the zero
    cells add exact zeros to the cumulative sum and `side="right"` never
    lands on one.
    """
    rng = np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))
    xs, ys, w = space.support
    cdf = np.cumsum(w / space.joint.sum())
    cdf /= cdf[-1]
    pair_idx = np.searchsorted(cdf, rng.random(samples), side="right")
    negs = rng.choice(space.n, size=(samples, M), p=space.marginal)
    return np.column_stack([xs[pair_idx], ys[pair_idx], negs])


def _table_indices(batch: np.ndarray, n: int) -> np.ndarray:
    """(1 + M, B) indices anchor * n + other into a raveled (n, n) table.

    Row 0 indexes the positive similarity, rows 1..M the negatives.
    """
    return np.ascontiguousarray((batch[:, :1] * n + batch[:, 1:]).T)


def _sampled_infonce(sims: np.ndarray, flat: np.ndarray, coef=False):
    """Per-row InfoNCE losses of a sampled batch from sims = F F^T.

    flat is the batch as `_table_indices`.  Returns (losses, C); with coef,
    C = dL/dS is the (n, n) coefficient matrix of the batch mean loss in the
    entries of S = F F^T, else None.  The log-sum-exp is stabilized by the
    max over each column.
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


# ---------------------------------------------------------------------------
# spectral contrastive loss


def spectral_loss(f: Embedding, space: AugmentedSpace) -> float:
    """Exact spectral contrastive loss.

    -2 E_{(x,x+)}[f(x)^T f(x+)] + E_{x,x- iid marginal}[(f(x)^T f(x-))^2];
    both expectations are quadratic forms in the embedding table.
    """
    return _spectral_terms(f.table, space)[0]


def _spectral_terms(F: np.ndarray, space: AugmentedSpace):
    """Spectral loss of the table F from k-wide products; returns (loss, (JF, G)).

    With JF = joint F and G = F^T diag(p) F, the positive term
    sum(joint * F F^T) is sum(F * JF) and the negative term is sum(G * G),
    so no n x n array is formed.  JF and G are the gradient's products too.
    """
    JF = space.joint @ F
    G = F.T @ (space.marginal[:, None] * F)  # (k, k)
    return -2.0 * float(np.sum(F * JF)) + float(np.sum(G * G)), (JF, G)


def _spectral_grad(F: np.ndarray, space: AugmentedSpace, aux) -> np.ndarray:
    """Gradient -4 JF + 4 diag(p) F G from the (JF, G) of `_spectral_terms(F)`."""
    JF, G = aux
    return -4.0 * JF + 4.0 * (space.marginal[:, None] * F) @ G


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
    "infonce" descends the population InfoNCE of `infonce_population`'s
    engine (exact, or past its thresholds the mean over one batch drawn with
    cfg.seed + seed + 1), with re-projection onto the unit sphere after
    every step.  Backtracking halves the step size whenever a step would
    increase the loss, so the loss is non-increasing over accepted steps.
    A candidate whose loss is not finite, or whose arithmetic raises
    FloatingPointError, raises `DivergenceError`.
    """
    n = space.n
    if k < 1:
        raise ValueError("train_free_embeddings: k must be >= 1")
    table = 0.5 * gaussian_matrix(n, k, seed)
    if loss == "infonce":
        table = table / np.linalg.norm(table, axis=1, keepdims=True)
        evaluate, _ = _infonce(space, M, cfg, cfg.seed + seed + 1)

        def loss_fn(T):
            losses, C = evaluate(T @ T.T, coef=True)
            return float(np.mean(losses)), C

        def grad_fn(T, C):
            return _gradient(T, C, True)

        def retract(T):
            return T / np.linalg.norm(T, axis=1, keepdims=True)

        normalized = True
    elif loss == "spectral":

        def loss_fn(T):
            return _spectral_terms(T, space)

        def grad_fn(T, aux):
            return _spectral_grad(T, space, aux)

        def retract(T):
            return T

        normalized = False
    else:
        raise ValueError(f"train_free_embeddings: unknown loss {loss!r}")

    # loss_fn returns (loss, aux) and grad_fn reads the aux of the same table,
    # so the accepted candidate's evaluation also serves the next gradient
    current, aux = loss_fn(table)
    eta = step_size
    for _ in range(steps):
        g = grad_fn(table, aux)
        accepted = False
        for _try in range(40):
            try:  # under np.errstate(raise) an overflow raises before the loss is read
                cand = retract(table - eta * g)
                cand_loss, cand_aux = loss_fn(cand)
            except FloatingPointError as exc:
                raise DivergenceError(f"train_free_embeddings: loss diverged ({exc})") from None
            if not np.isfinite(cand_loss):
                raise DivergenceError("train_free_embeddings: loss diverged (NaN/Inf)")
            if cand_loss <= current + 1e-15:
                table, current, aux = cand, cand_loss, cand_aux
                accepted = True
                eta = min(eta * 1.1, step_size * 10)
                break
            eta *= 0.5
        if not accepted:
            break
    return Embedding(table=table, normalized=normalized)


# ---------------------------------------------------------------------------
# heads and downstream risks


def mean_head(f: Embedding, space: AugmentedSpace) -> LinearHead:
    """The head whose columns are the class means under the augmented marginal."""
    W = np.zeros((f.k, space.K))
    for c in range(space.K):
        sel = space.labels == c
        mass = float(space.marginal[sel].sum())
        if mass <= 0.0:
            raise ValueError(f"mean_head: class {c} has zero marginal mass")
        W[:, c] = space.marginal[sel] @ f.table[sel] / mass
    return LinearHead(W=W)


def ce_risk(f: Embedding, head: LinearHead, space: AugmentedSpace) -> float:
    """Cross-entropy risk under the augmented marginal, exact enumeration."""
    logits = f.table @ head.W
    mx = logits.max(axis=1, keepdims=True)
    log_z = mx[:, 0] + np.log(np.sum(np.exp(logits - mx), axis=1))
    log_p = logits[np.arange(space.n), space.labels] - log_z
    return float(-space.marginal @ log_p)


def fit_linear_head(
    fs: Sequence[Embedding],
    space: AugmentedSpace,
    steps: int,
    step_size: float,
    l2: float = 0.0,
) -> list[LinearHead]:
    """Gradient descent on the CE risk plus l2 ||W||^2 / 2, from W = 0, per table.

    The tables are same-shape (n, k) embeddings of one space.  Their heads
    descend together on the stacked (T, n, k) array; every step's arithmetic
    stays within one table, so each head has the bits of a descent on its
    table alone.  Steps run in buffers allocated once per call.  The softmax
    max is taken column by column, exact in any order; below 8 classes the
    row sum is column adds too, which have the bits of numpy's row sum
    there.  A non-finite entry of W never turns finite again, so divergence
    is checked once, after the last step: a head whose W or Frobenius norm
    is not finite raises `DivergenceError`.  Returns one head per table.
    """
    F = np.stack([f.table for f in fs])
    FT = F.transpose(0, 2, 1)
    K = space.K
    p = space.marginal[:, None]
    Y = np.eye(K)[space.labels]
    W, G, decay = np.zeros((3, F.shape[0], F.shape[2], K))  # heads, grad, l2 * W
    L = np.empty(F.shape[:2] + (K,))  # logits, softmax, then p * (probs - Y)
    mx, total = np.empty((2,) + F.shape[:2])
    # a diverging head runs on quietly to the check after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            np.matmul(F, W, out=L)
            np.maximum(L[..., 0], L[..., 1], out=mx)
            for c in range(2, K):
                np.maximum(mx, L[..., c], out=mx)
            np.exp(np.subtract(L, mx[..., None], out=L), out=L)
            if K < 8:
                np.add(L[..., 0], L[..., 1], out=total)
                for c in range(2, K):
                    np.add(total, L[..., c], out=total)
            else:
                L.sum(axis=-1, out=total)
            np.divide(L, total[..., None], out=L)
            np.multiply(p, np.subtract(L, Y, out=L), out=L)
            np.add(np.matmul(FT, L, out=G), np.multiply(l2, W, out=decay), out=G)
            np.subtract(W, np.multiply(step_size, G, out=G), out=W)
        # the norm t4 reports overflows before W does
        finite = all(np.isfinite(np.linalg.norm(w)) for w in W)
    if not finite:
        raise DivergenceError("fit_linear_head: diverged (NaN/Inf in W or its norm)")
    return [LinearHead(W=w) for w in W]


def classification_error(f: Embedding, head: LinearHead, space: AugmentedSpace) -> float:
    """Marginal-weighted top-1 error; argmax ties break to the smallest index."""
    preds = np.argmax(f.table @ head.W, axis=1)
    return float(space.marginal @ (preds != space.labels))
