"""Full, truncated and pair-discard SVD with Eckart-Young checks.

The full decomposition goes through the Gram matrix of the smaller side,
which is accurate enough at desk scale (dimensions <= 256); the squared
condition number is the documented price.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, gaussian_matrix, orthonormalize, sym_eig

__all__ = [
    "SvdFactors",
    "TruncationSpec",
    "svd_full",
    "svd_truncate",
    "truncate_matrix",
    "EckartYoungReport",
    "eckart_young_check",
]


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD X = U diag(S) V^T with r = min(m, m') columns."""

    U: np.ndarray  # (m, r)
    S: np.ndarray  # (r,), descending, non-negative
    V: np.ndarray  # (m', r)

    @property
    def rank_bound(self) -> int:
        return len(self.S)

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.S) @ self.V.T


@dataclass(frozen=True)
class TruncationSpec:
    """Either keep the top q singular triples or discard the pair (i, i+1).

    pair_index is 1-based: discard_pair with i removes s_i and s_{i+1}.
    A single-index discard is available as mode="discard_single".
    """

    mode: str  # "keep_top_q" | "discard_pair" | "discard_single"
    q: int | None = None
    pair_index: int | None = None

    def validate(self, rank_bound: int) -> None:
        if self.mode == "keep_top_q":
            if self.q is None or not (1 <= self.q):
                raise ValueError(f"keep_top_q: invalid q={self.q}")
        elif self.mode == "discard_pair":
            i = self.pair_index
            if i is None or not (1 <= i <= rank_bound - 1):
                raise ValueError(
                    f"discard_pair: pair_index {i} out of range [1, {rank_bound - 1}]"
                )
        elif self.mode == "discard_single":
            i = self.pair_index
            if i is None or not (1 <= i <= rank_bound):
                raise ValueError(
                    f"discard_single: index {i} out of range [1, {rank_bound}]"
                )
        else:
            raise ValueError(f"unknown truncation mode {self.mode!r}")


def svd_full(X) -> SvdFactors:
    """Thin SVD via eigendecomposition of the Gram matrix of the smaller side.

    Singular values come back descending; zero singular directions are
    completed to an orthonormal basis deterministically.
    """
    X = as_matrix(X, "svd_full input")
    m, mp = X.shape
    transposed = m > mp
    A = X.T if transposed else X  # rows <= cols
    r = A.shape[0]
    gram = A @ A.T
    eig = sym_eig(gram)
    # descending order
    order = np.arange(r)[::-1]
    vals = np.clip(eig.values[order], 0.0, None)
    U = eig.vectors[:, order]
    S = np.sqrt(vals)
    scale = S[0] if S[0] > 0 else 1.0
    V = np.zeros((A.shape[1], r))
    # the Gram route caps singular-value accuracy near sqrt(machine eps);
    # anything below that floor is numerical zero and its vector is junk
    good = S > 1e-7 * scale
    if np.any(good):
        V[:, good] = (A.T @ U[:, good]) / S[good]
    # re-orthonormalize the computed columns and complete the zero directions
    V = orthonormalize(V) if not np.all(good) else V
    S = np.where(good, S, 0.0)
    if transposed:
        U, V = V, U
    return SvdFactors(U=U, S=S, V=V)


def svd_truncate(F: SvdFactors, spec: TruncationSpec) -> np.ndarray:
    """Rebuild the matrix from a subset of singular triples.

    keep_top_q keeps the q largest; q above the rank bound returns the
    exact matrix.  discard_pair zeroes exactly s_i and s_{i+1} and
    re-synthesizes from the remaining factors (no rank-1 subtraction, to
    avoid cancellation).
    """
    spec.validate(F.rank_bound)
    keep = np.ones(F.rank_bound, dtype=bool)
    if spec.mode == "keep_top_q":
        keep[min(spec.q, F.rank_bound):] = False
    elif spec.mode == "discard_pair":
        keep[spec.pair_index - 1] = False
        keep[spec.pair_index] = False
    else:  # discard_single
        keep[spec.pair_index - 1] = False
    return (F.U[:, keep] * F.S[keep]) @ F.V[:, keep].T


def truncate_matrix(X, spec: TruncationSpec) -> np.ndarray:
    """Convenience wrapper: svd_truncate(svd_full(X), spec)."""
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
