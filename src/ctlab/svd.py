"""Full, truncated and pair-discard SVD.

The full decomposition goes through the Gram matrix of the smaller side,
which is accurate enough at desk scale (dimensions <= 256); the squared
condition number is the documented price.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, orthonormalize, sym_eig

__all__ = [
    "SvdFactors",
    "TruncationSpec",
    "svd_full",
    "svd_truncate",
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
        """Raise ValueError unless q, or the discarded index, is in range for rank_bound."""
        if self.mode == "keep_top_q":
            if self.q is None:
                raise ValueError("required when mode = keep_top_q")
            if not 1 <= self.q <= rank_bound:
                raise ValueError(f"q={self.q} out of range [1, {rank_bound}]")
        elif self.mode in ("discard_pair", "discard_single"):
            i, top = self.pair_index, rank_bound - (self.mode == "discard_pair")
            if i is None:
                raise ValueError("required for discard modes")
            if not 1 <= i <= top:
                raise ValueError(f"{i} out of range [1, {top}] for {self.mode}")
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

    keep_top_q keeps the q largest, q from 1 to the rank bound.
    discard_pair zeroes exactly s_i and s_{i+1} and
    re-synthesizes from the remaining factors (no rank-1 subtraction, to
    avoid cancellation).
    """
    spec.validate(F.rank_bound)
    keep = np.ones(F.rank_bound, dtype=bool)
    if spec.mode == "keep_top_q":
        keep[spec.q:] = False
    elif spec.mode == "discard_pair":
        keep[spec.pair_index - 1] = False
        keep[spec.pair_index] = False
    else:  # discard_single
        keep[spec.pair_index - 1] = False
    return (F.U[:, keep] * F.S[keep]) @ F.V[:, keep].T
