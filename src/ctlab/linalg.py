"""Dense real linear algebra shared by the rest of the package.

Everything works on plain float64 numpy arrays.  Matrices are validated on
entry (finite, 2-d); eigenvectors carry a fixed sign convention so that
downstream embeddings are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinalgError",
    "SymEigen",
    "as_matrix",
    "sym_eig",
    "orthonormalize",
    "gaussian_matrix",
    "save_matrix_text",
]

_SYM_TOL = 1e-10


class LinalgError(ValueError):
    """Raised on invalid matrix input (shape, symmetry, finiteness)."""


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-d float64 array with finite entries."""
    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2:
        raise LinalgError(f"{name}: expected 2-d array, got ndim={X.ndim}")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise LinalgError(f"{name}: empty dimension in shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise LinalgError(f"{name}: non-finite entries")
    return X


@dataclass(frozen=True)
class SymEigen:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending."""

    values: np.ndarray   # shape (n,), ascending
    vectors: np.ndarray  # shape (n, n), columns are unit eigenvectors


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column, in place, so its first non-negligible component is positive."""
    col_max = np.maximum(vectors.max(axis=0), -vectors.min(axis=0))  # max |col|
    thresh = 1e-12 * np.maximum(1.0, col_max)
    first = np.argmax((vectors > thresh) | (vectors < -thresh), axis=0)
    lead = vectors[first, np.arange(vectors.shape[1])]
    # a column with no entry above its threshold has |lead| <= thresh: kept
    vectors *= np.where(lead < -thresh, -1.0, 1.0)
    return vectors


def sym_eig(S) -> SymEigen:
    """Full eigendecomposition of a symmetric matrix.

    Rejects non-square or asymmetric input (tolerance 1e-10 per entry).
    Eigenvalues come back ascending; eigenvector signs are fixed so the
    first nonzero component of each column is non-negative.
    """
    S = as_matrix(S, "sym_eig input")
    n, m = S.shape
    if n != m:
        raise LinalgError(f"sym_eig: matrix is {n}x{m}, not square")
    scale = max(1.0, float(S.max()), -float(S.min()))  # max(1, max |S|)
    # one n x n buffer: S - S^T for the check (antisymmetric, so its max is
    # its largest magnitude), then 0.5 * (S + S^T) for eigh
    sym = np.subtract(S, S.T)
    if float(sym.max()) > _SYM_TOL * scale:
        raise LinalgError("sym_eig: matrix is not symmetric within 1e-10")
    np.add(S, S.T, out=sym)
    sym *= 0.5
    values, vectors = np.linalg.eigh(sym)
    del sym  # freed before _fix_signs' mask temporaries: peak memory stays that of eigh
    return SymEigen(values=values, vectors=_fix_signs(vectors))


def orthonormalize(M, tol: float = 1e-10) -> np.ndarray:
    """Orthonormalize the columns of M (rows >= cols).

    Full-rank input: returns Q with the same column span, QtQ = I, and the
    sign of each column chosen so the corresponding diagonal of R is
    positive.  Rank-deficient input: deficient columns are replaced by
    directions from the orthogonal complement (taken from the identity
    basis, deterministic).
    """
    M = as_matrix(M, "orthonormalize input")
    rows, cols = M.shape
    if rows < cols:
        raise LinalgError(f"orthonormalize: rows < cols ({rows} < {cols})")
    Q = np.zeros((rows, cols))
    col_norm = max(1.0, float(np.max(np.abs(M))))
    filled = 0
    for j in range(cols):
        v = M[:, j].copy()
        # modified Gram-Schmidt with one reorthogonalization pass
        for _ in range(2):
            if filled:
                v -= Q[:, :filled] @ (Q[:, :filled].T @ v)
        nv = np.linalg.norm(v)
        if nv > tol * col_norm:
            Q[:, filled] = v / nv
            filled += 1
    while filled < cols:
        # complete from the orthogonal complement: take the identity column
        # with the largest residual against the current basis (deterministic)
        resid = np.eye(rows) - Q[:, :filled] @ Q[:, :filled].T
        norms = np.linalg.norm(resid, axis=0)
        i = int(np.argmax(norms))
        if norms[i] <= tol:
            raise LinalgError("orthonormalize: could not complete basis")
        v = resid[:, i]
        for _ in range(2):
            v -= Q[:, :filled] @ (Q[:, :filled].T @ v)
        Q[:, filled] = v / np.linalg.norm(v)
        filled += 1
    return Q


def gaussian_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Seeded i.i.d. standard normal matrix from a counter-based generator.

    Each row is an independent Philox stream keyed by (seed, row), so the
    output is identical no matter how rows are scheduled across workers.
    One generator serves every row: before each row its state is reset to
    the fresh state (counter 0, empty buffer) under that row's key.
    """
    if rows < 1 or cols < 1:
        raise LinalgError(f"gaussian_matrix: invalid shape ({rows}, {cols})")
    seed_u64 = int(seed) & 0xFFFFFFFFFFFFFFFF
    out = np.empty((rows, cols))
    bg = np.random.Philox(key=np.array([seed_u64, 0], dtype=np.uint64))
    gen = np.random.Generator(bg)
    fresh = bg.state
    key = fresh["state"]["key"]
    for r in range(rows):
        key[1] = r
        bg.state = fresh
        gen.standard_normal(out=out[r])
    return out


# ---------------------------------------------------------------------------
# CTLAB-MAT serialization

_TEXT_HEADER = "CTLAB-MAT v1"


def save_matrix_text(path, X) -> None:
    X = as_matrix(X, "save_matrix_text input")
    rows, cols = X.shape
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(_TEXT_HEADER + "\n")
        fh.write(f"{rows} {cols}\n")
        for r in range(rows):
            fh.write(" ".join(repr(float(v)) for v in X[r]) + "\n")

