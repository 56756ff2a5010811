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
    "McConfig",
    "infonce_population",
    "spectral_loss",
    "train_free_embeddings",
    "mean_head",
    "ce_risk",
    "fit_linear_head",
    "classification_error",
]


class DivergenceError(RuntimeError):
    """A descent whose loss or parameters stopped being finite."""


@dataclass(frozen=True)
class McConfig:
    samples: int = 20000
    replicates: int = 8
    seed: int = 0
    n_max: int = 60   # exact enumeration threshold on node count
    m_max: int = 2    # exact enumeration threshold on negative count


# ---------------------------------------------------------------------------
# InfoNCE


def infonce_population(
    F: np.ndarray, space: AugmentedSpace, M: int, cfg: McConfig = McConfig()
):
    """Population InfoNCE with M negatives drawn from the augmented marginal.

    F is the (n, k) table of an embedding f; it is read and left as it is.
    Returns (estimate, std_error, exact).  Exact enumeration over the joint
    support and all negative combinations within cfg's thresholds, else a
    seeded Monte Carlo estimate with its standard error.
    """
    if M < 1:
        raise ValueError("infonce_population: M must be >= 1")
    if not len(space.support[0]):
        raise ValueError("infonce_population: empty positive-pair support")
    evaluate, exact = _infonce(space, M, cfg, cfg.seed)
    losses, _ = evaluate(F)
    if exact:
        return losses, 0.0, True
    std_error = float(np.std(losses, ddof=1) / np.sqrt(cfg.samples))
    return float(np.mean(losses)), std_error, False


def _infonce(space: AugmentedSpace, M: int, cfg: McConfig, seed: int):
    """(evaluate, exact): the population InfoNCE of space with M negatives.

    The one choice of engine: the exact engine when M is within cfg.m_max
    and the node count within cfg.n_max, else the Monte Carlo engine of one
    batch of cfg.samples rows drawn with `seed`.  evaluate(T, coef=False)
    -> (losses, GT) takes an (n, k) table T; losses is the exact loss or the
    batch's per-row losses, and with coef GT = G T for G = C + C^T, where C
    is the coefficient matrix of the loss (or of their mean) in the entries
    of S = T T^T, so GT is the loss's gradient in T.
    """
    if M <= cfg.m_max and space.n <= cfg.n_max:
        return _exact_infonce(space, M), True
    flat = _table_indices(_sample_batch(space, M, cfg.samples, seed), space.n)
    return _sampled_infonce(flat, space.n), False


_BLOCK_CELLS = 2**17  # the most cells of T T^T one row block holds: 1 MB of doubles


def _block_rows(n: int) -> int:
    """Rows in a row block of an (n, n) table: as many as _BLOCK_CELLS cells hold, one at least."""
    return max(1, _BLOCK_CELLS // n)


def _similarity_blocks(F: np.ndarray, rows: int):
    """Yield (r0, F[r0:r0 + rows] @ F.T) for r0 = 0, rows, 2 rows, ...: F F^T in row blocks.

    Every block is written into one buffer, valid until the next block is
    read, and its reader may write in it.  A block of every row is F @ F.T
    bit for bit (numpy sends the full-row slice down the same syrk route);
    a block of some rows is a gemm, whose cells can differ in the last place.
    """
    n = len(F)
    buf = np.empty((min(rows, n), n))
    for r0 in range(0, n, rows):
        yield r0, np.matmul(F[r0 : r0 + rows], F.T, out=buf[: n - r0])


_SPREAD_MAX = 700.0  # e^-700 is a normal double; e^-709 and below are not


def _exact_infonce(space: AugmentedSpace, M: int):
    """Build the exact population InfoNCE engine of one space and M.

    The anchor offsets and flat cells of the space's pair support and every
    buffer an evaluation writes are made once, here.  Every node must anchor
    a pair (`stage_graph` rejects a massless node), or the build raises a
    ValueError naming the first that does not.  Returns `engine(T,
    coef=False) -> (loss, GT)` for an (n, k) table T; with coef, GT = G T
    for G = C + C^T, where C = dL/dS is the (n, n) coefficient matrix of the
    loss in the entries of S = T T^T taken as independent variables, else
    None.  GT is fresh on every call, so a GT returned earlier stays valid.

    The engine forms S in its own (n, n) buffer and works in exp space: each
    row x of S is shifted by its max m_x and E = exp(S - m) is taken in that
    buffer once per call, so a pair (x, y) with negatives z has log-sum-exp
    m_x + log Z, Z = E[x, y] + sum_z E[x, z], and softmax weights E / Z;
    each enumerated term takes one log and one reciprocal.  The pairs'
    entries are read at their flat cells x * n + y.  M = 1 works in two
    (pairs, n) buffers, sums the negatives' weights over each anchor's pairs
    with `np.add.reduceat`, and builds C in E's buffer: the negatives' terms
    (E p) times those sums, then each pair's positive term added at its
    cell.  M = 2 loops over nodes in an (n, n) buffer of E[x, z1] + E[x, z2]
    and two (most pairs of one anchor, n, n) buffers, into a zeroed C.  The
    identity is exact while no row of S spreads (max minus min) past
    _SPREAD_MAX, so that no E underflows; past it the engine raises
    FloatingPointError.
    """
    xs, ys, w = space.support
    p = space.marginal
    n = space.n
    starts = np.searchsorted(xs, np.arange(n + 1))  # xs is sorted
    idle = np.flatnonzero(starts[1:] == starts[:-1])
    if len(idle):  # reduceat would read the next anchor's row for its segment
        raise ValueError(f"exact InfoNCE: node n{idle[0]:04d} anchors no support pair")
    cells = xs * n + ys
    E = np.empty((n, n))
    flat = E.reshape(-1)  # a view of E
    if M == 1:
        Z = np.empty((len(xs), n))
        L = np.empty((len(xs), n))
    elif M == 2:
        N = np.empty((n, n))
        Z = np.empty((int(np.diff(starts).max()), n, n))
        L = np.empty_like(Z)
    else:  # pragma: no cover - the config bound bounds.m_max <= 2 guards this
        raise ValueError("exact enumeration supports M <= 2")

    def engine(T: np.ndarray, coef=False):
        np.matmul(T, T.T, out=E)  # S, turned into exp(S - m) in place below
        m = E.max(axis=1)
        spread = float(np.max(m - E.min(axis=1)))
        if spread > _SPREAD_MAX:
            raise FloatingPointError(
                f"exact InfoNCE: a similarity row spreads {spread:.6g} > {_SPREAD_MAX:g}"
            )
        s_pos = E.take(cells)
        np.exp(np.subtract(E, m[:, None], out=E), out=E)
        e_pos = E.take(cells)
        C = None
        if M == 1:
            # xs is in range; with the default mode="raise", take would copy
            # via a temporary instead of writing into Z
            np.add(np.take(E, xs, axis=0, out=Z, mode="clip"), e_pos[:, None], out=Z)
            expect = np.log(Z, out=L) @ p
            if coef:
                R = np.reciprocal(Z, out=Z)
                positive = w * (e_pos * (R @ p) - 1.0)
                np.multiply(w[:, None], R, out=R)
                C = np.multiply(E, p, out=E)
                np.multiply(C, np.add.reduceat(R, starts[:-1], axis=0), out=C)
                flat[cells] += positive
        else:
            C = np.zeros((n, n)) if coef else None
            expect = np.empty(len(xs))
            for x in range(n):
                sel = slice(starts[x], starts[x + 1])
                pairs = sel.stop - sel.start
                row = E[x]
                np.add(row[:, None], row[None, :], out=N)  # symmetric in the negatives
                z = np.add(e_pos[sel, None, None], N, out=Z[:pairs])
                expect[sel] = np.log(z, out=L[:pairs]) @ p @ p
                if coef:
                    Rp = np.reciprocal(z, out=z) @ p
                    C[x, ys[sel]] = w[sel] * (e_pos[sel] * (Rp @ p) - 1.0)
                    # both negative slots give the same term by symmetry
                    C[x, :] += 2.0 * p * row * (w[sel] @ Rp)
        return float(w @ (m[xs] - s_pos + expect)), ((C + C.T) @ T if coef else None)

    return engine


def _sample_batch(space: AugmentedSpace, M: int, samples: int, seed: int):
    """Seeded i.i.d. batch: pairs from the joint, M negatives from the marginal.

    Both are drawn on the space's cached inverse-CDF tables.  Pairs over the
    support are `rng.choice` over all n^2 cells (zero cells add exact zeros to
    the cumulative sum, which a right-side search never lands on); negatives
    are `rng.choice(n, (samples, M), p=marginal)`, stream included.
    """
    rng = np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))
    xs, ys, _w = space.support
    pair_idx = space.pair_cdf.draw(rng.random(samples))
    negs = space.marginal_cdf.draw(rng.random((samples, M)))
    return np.column_stack([xs[pair_idx], ys[pair_idx], negs])


def _table_indices(batch: np.ndarray, n: int) -> np.ndarray:
    """(1 + M, B) indices anchor * n + other into a raveled (n, n) table.

    Row 0 indexes the positive similarity, rows 1..M the negatives.
    """
    return np.ascontiguousarray((batch[:, :1] * n + batch[:, 1:]).T)


def _cell_support(parts: list, n: int, rows: int):
    """(slots, mirror, blocks): the symmetric support of a batch split as in `_sampled_infonce`.

    parts[b] holds the cells that the batch's part b hits, raveled within
    row block b (the rows from b * rows).  The support is the hit cells of
    the (n, n) table and their mirrors, ascending.  slots gives each batch
    entry (the parts side by side, raveled) the position of its cell in the
    support, and mirror gives each cell (i, j) the position of (j, i): a
    bincount over slots sums each hit cell's terms in its bin and leaves 0.0
    in a bin that only a mirror hits.  blocks holds each row block's (r0,
    its support cells raveled in the block, their positions).  Positions
    are looked up in a table of one block's cells.
    """
    starts = range(0, n, rows)
    mark = np.zeros((n, n), dtype=bool)
    for r0, idx in zip(starts, parts):
        mark[r0 : r0 + rows].ravel()[idx.ravel()] = True
    sym = np.flatnonzero(mark | mark.T)
    i, j = np.divmod(sym, n)
    cuts = np.searchsorted(sym, [*(r0 * n for r0 in starts), n * n])
    slot = np.empty(min(rows, n) * n, dtype=np.int32)
    slots, mirror, blocks = [], np.empty(len(sym), dtype=np.intp), []
    for r0, idx, a, b in zip(starts, parts, cuts, cuts[1:]):
        cells = sym[a:b] - r0 * n
        slot[cells] = np.arange(a, b)
        slots.append(slot[idx])
        back = (r0 <= j) & (j < r0 + rows)  # cells whose mirror lies in this block
        mirror[back] = slot[(j[back] - r0) * n + i[back]]
        blocks.append((r0, cells, slice(a, b)))
    return np.concatenate(slots, axis=1, dtype=np.intp).ravel(), mirror, blocks


def _sampled_infonce(flat: np.ndarray, n: int):
    """Build the Monte Carlo InfoNCE engine of one batch, flat as `_table_indices`.

    Returns `engine(T, coef=False) -> (losses, GT)`: the batch's per-row
    InfoNCE losses at the (n, k) table T, in batch order, each log-sum-exp
    stabilized by the max over its column, and with coef a fresh GT = G T
    for G = C + C^T, C = dL/dS the coefficient matrix of the batch mean loss
    in the entries of S = T T^T, else None.

    A batch row's cells all lie in its anchor's row of S, so the batch is
    split here by the row block of its anchors, in batch order within each
    part, and each block of `_similarity_blocks` serves one part; no (n, n)
    array is formed.  The first call with coef builds the `_cell_support`
    (a population estimate never does).  Each such call sums each cell's
    terms with one bincount, in batch order as a bincount over all n^2
    cells would (a cell's terms share its anchor, so the split keeps their
    order), then writes G and takes G T one row block at a time.
    """
    rows = _block_rows(n)
    starts = range(0, n, rows)
    block = flat[0] // n // rows
    picks = [np.flatnonzero(block == b) for b in range(len(starts))]
    order = np.concatenate(picks)
    # each block's part of the batch, as cells of the raveled block
    parts = [flat[:, pick] - r0 * n for r0, pick in zip(starts, picks)]
    support = None

    def engine(T: np.ndarray, coef=False):
        nonlocal support
        s = np.concatenate(
            [np.take(S, idx) for (_r0, S), idx in zip(_similarity_blocks(T, rows), parts)], axis=1
        )  # (1 + M, B), the parts side by side
        mx = s.max(axis=0)
        ex = np.subtract(s, mx)
        np.exp(ex, out=ex)
        total = ex.sum(axis=0)
        losses = np.empty(len(order))
        losses[order] = mx + np.log(total) - s[0]
        if not coef:
            return losses, None
        if support is None:
            support = _cell_support(parts, n, rows)
        slots, mirror, blocks = support
        probs = np.divide(ex, total, out=ex)
        probs[0] -= 1.0
        probs *= 1.0 / len(order)  # each row's weight in the batch mean
        c = np.bincount(slots, probs.ravel(), len(mirror))
        c += c[mirror]  # G[i, j] = C[i, j] + C[j, i] on the support
        GT = np.empty(T.shape)
        G = np.zeros((min(rows, n), n))
        for r0, cells, sel in blocks:
            G.ravel()[cells] = c[sel]
            np.matmul(G[: n - r0], T, out=GT[r0 : r0 + rows])
            G.ravel()[cells] = 0.0
        return losses, GT

    return engine


# ---------------------------------------------------------------------------
# spectral contrastive loss


def spectral_loss(F: np.ndarray, space: AugmentedSpace) -> float:
    """Exact spectral contrastive loss of the (n, k) table F of an embedding f.

    -2 E_{(x,x+)}[f(x)^T f(x+)] + E_{x,x- iid marginal}[(f(x)^T f(x-))^2];
    both expectations are quadratic forms in the embedding table.
    """
    return _spectral_terms(F, space)[0]


def _spectral_terms(F: np.ndarray, space: AugmentedSpace):
    """(loss, gradient) of the spectral loss at the table F, from k-wide products.

    The joint is read through its factor cond^T diag(w) cond, w the original
    weights: with H = cond F and WH = diag(w) H, the positive term
    sum(joint * F F^T) is sum(H * WH) and JF = joint F is cond^T WH, two
    (N_orig, n) products and no n x n one.  With G = F^T diag(p) F the
    negative term is sum(G * G) and the gradient is -4 JF + 4 diag(p) F G.
    """
    H = space.cond @ F  # (N_orig, k)
    WH = space.weights[:, None] * H
    pF = space.marginal[:, None] * F
    G = F.T @ pF  # (k, k)
    loss = -2.0 * float(np.sum(H * WH)) + float(np.sum(G * G))
    return loss, -4.0 * (space.cond.T @ WH) + 4.0 * pF @ G


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
    run=None,
) -> np.ndarray:
    """Gradient descent on a free per-node embedding table; returns the (n, k) table.

    loss "spectral" descends the exact spectral loss unconstrained; loss
    "infonce" descends the population InfoNCE of `infonce_population`'s
    engine (exact, or past its thresholds the mean over one batch drawn with
    cfg.seed + seed + 1), with re-projection onto the unit sphere after
    every step.  Backtracking halves the step size whenever a step would
    increase the loss, so the loss is non-increasing over accepted steps.
    Each evaluation returns the loss and its gradient at one table, so an
    accepted candidate brings the next step's gradient; a zero gradient ends
    the descent.  A candidate whose loss is not finite, or whose arithmetic
    overflows, divides by zero or is invalid (in any numpy error state),
    raises `DivergenceError`.  `run(descent, args)`, if given, stands for
    `descent(*args)`: cli's row threads pass one that runs the descent in a
    forked worker process.
    """
    if k < 1:
        raise ValueError("train_free_embeddings: k must be >= 1")
    if loss not in ("infonce", "spectral"):
        raise ValueError(f"train_free_embeddings: unknown loss {loss!r}")
    args = (space, k, loss, steps, step_size, seed, M, cfg)
    return _descend(*args) if run is None else run(_descend, args)


def _descend(space, k, loss, steps, step_size, seed, M, cfg):
    """`train_free_embeddings`' descent, its arguments checked."""
    normalized = loss == "infonce"
    table = 0.5 * gaussian_matrix(space.n, k, seed)
    if normalized:
        table = table / np.linalg.norm(table, axis=1, keepdims=True)
        evaluate, exact = _infonce(space, M, cfg, cfg.seed + seed + 1)

        def loss_fn(T):  # the gradient G T on the sphere: its radial part removed
            losses, grad = evaluate(T, coef=True)
            loss = losses if exact else float(np.mean(losses))  # an exact loss is one float
            return loss, grad - np.sum(grad * T, axis=1, keepdims=True) * T
    else:

        def loss_fn(T):
            return _spectral_terms(T, space)

    current, g = loss_fn(table)
    eta = step_size
    # one error state for every candidate; the rest of a step is Python float arithmetic
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for _ in range(steps):
                if not g.any():  # a step would return the same table (k = 1 unit rows)
                    break
                for _try in range(40):
                    cand = table - eta * g
                    if normalized:
                        cand = cand / np.linalg.norm(cand, axis=1, keepdims=True)
                    cand_loss, cand_g = loss_fn(cand)
                    if not np.isfinite(cand_loss):
                        raise DivergenceError("train_free_embeddings: loss diverged (NaN/Inf)")
                    if cand_loss <= current + 1e-15:
                        table, current, g = cand, cand_loss, cand_g
                        eta = min(eta * 1.1, step_size * 10)
                        break
                    eta *= 0.5
                else:
                    break
    except FloatingPointError as exc:
        raise DivergenceError(f"train_free_embeddings: loss diverged ({exc})") from None
    return table


# ---------------------------------------------------------------------------
# heads and downstream risks


def mean_head(F: np.ndarray, space: AugmentedSpace) -> np.ndarray:
    """The (k, K) head of the (n, k) table F: its columns are the class means under the marginal."""
    W = np.zeros((F.shape[1], space.K))
    for c in range(space.K):
        sel = space.labels == c
        mass = float(space.marginal[sel].sum())
        if mass <= 0.0:
            raise ValueError(f"mean_head: class {c} has zero marginal mass")
        W[:, c] = space.marginal[sel] @ F[sel] / mass
    return W


def ce_risk(F: np.ndarray, W: np.ndarray, space: AugmentedSpace) -> float:
    """Cross-entropy risk of head W on the (n, k) table F under the augmented marginal, exactly."""
    logits = F @ W
    mx = logits.max(axis=1, keepdims=True)
    log_z = mx[:, 0] + np.log(np.sum(np.exp(logits - mx), axis=1))
    log_p = logits[np.arange(space.n), space.labels] - log_z
    return float(-space.marginal @ log_p)


def fit_linear_head(
    tables: Sequence[np.ndarray],
    space: AugmentedSpace,
    steps: int,
    step_size: float,
    l2: float = 0.0,
) -> list[np.ndarray]:
    """Gradient descent on the CE risk plus l2 ||W||^2 / 2, from W = 0, per table.

    The tables are same-shape (n, k) embeddings of one space.  Their heads
    descend together on the stacked (T, n, k) array, class-major: the heads
    are (T, K, k) and the logits (T, K, n), so the softmax max and sum run
    over contiguous (T, n) rows.  The step size and the marginal are folded
    into the tables once, Fp = step_size p F, and the label term Y^T Fp is one
    constant, so a step is W^T <- (1 - step_size l2) W^T - P^T Fp + Y^T Fp for
    the softmax P.
    Every step's arithmetic stays within one table, so each head has the bits
    of the call on its table alone.  A non-finite entry of W never turns
    finite again, so divergence is checked once, after the last step: a head
    whose W or Frobenius norm is not finite raises `DivergenceError`.
    Returns one (k, K) head per table.
    """
    F = np.stack(tables)
    K = space.K
    WT, G = np.zeros((2, F.shape[0], K, F.shape[2]))  # heads, step
    L = np.empty((F.shape[0], K, F.shape[1]))  # logits, then softmax
    mx, total = np.empty((2, F.shape[0], 1, F.shape[1]))
    # a diverging head runs on quietly to the check after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        decay = 1.0 - step_size * l2
        Fp = F * (step_size * space.marginal)[:, None]
        label_term = np.matmul(np.eye(K)[:, space.labels], Fp)
        FT = np.ascontiguousarray(F.transpose(0, 2, 1))
        for _ in range(steps):
            np.matmul(WT, FT, out=L)
            np.maximum.reduce(L, axis=1, out=mx, keepdims=True)
            np.exp(np.subtract(L, mx, out=L), out=L)
            np.add.reduce(L, axis=1, out=total, keepdims=True)
            np.divide(L, total, out=L)
            np.subtract(np.matmul(L, Fp, out=G), label_term, out=G)
            if l2:
                np.multiply(WT, decay, out=WT)
            np.subtract(WT, G, out=WT)
        heads = [np.ascontiguousarray(w.T) for w in WT]
        # the norm t4 reports overflows before W does
        finite = all(np.isfinite(np.linalg.norm(W)) for W in heads)
    if not finite:
        raise DivergenceError("fit_linear_head: diverged (NaN/Inf in W or its norm)")
    return heads


def classification_error(F: np.ndarray, W: np.ndarray, space: AugmentedSpace) -> float:
    """Marginal-weighted top-1 error of head W on F; argmax ties break to the smallest index."""
    preds = np.argmax(F @ W, axis=1)
    return float(space.marginal @ (preds != space.labels))
