import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ctlab.linalg import (
    LinalgError,
    _fix_signs,
    as_matrix,
    gaussian_matrix,
    orthonormalize,
    save_matrix_text,
    sym_eig,
)
from oracles import load_matrix_text


class TestAsMatrix:
    def test_accepts_lists(self):
        X = as_matrix([[1, 2], [3, 4]])
        assert X.dtype == np.float64
        assert X.shape == (2, 2)

    def test_rejects_vector(self):
        with pytest.raises(LinalgError):
            as_matrix([1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(LinalgError):
            as_matrix([[np.nan, 0.0]])

    def test_rejects_inf(self):
        with pytest.raises(LinalgError):
            as_matrix([[np.inf, 0.0]])

    def test_rejects_empty(self):
        with pytest.raises(LinalgError):
            as_matrix(np.zeros((0, 3)))


class TestSymEig:
    def test_known_2x2(self):
        # [[2,1],[1,2]] has eigenvalues 1 and 3 with eigenvectors
        # (1,-1)/sqrt(2) and (1,1)/sqrt(2)
        eig = sym_eig([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(eig.values, [1.0, 3.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(eig.vectors[:, 0], [s, -s], atol=1e-12)
        assert np.allclose(eig.vectors[:, 1], [s, s], atol=1e-12)

    def test_sign_convention(self):
        eig = sym_eig(np.diag([3.0, 1.0, 2.0]))
        for j in range(3):
            col = eig.vectors[:, j]
            first = col[np.argmax(np.abs(col) > 1e-12)]
            assert first > 0

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            # magnitudes straddle the 1e-12 * max(1, max|col|) threshold
            elements=st.sampled_from(
                [0.0, -0.0, 1e-14, -1e-14, 1e-12, -1e-12, -3e-12, 2e-10, -5e-10,
                 0.25, -0.25, -1.0, 700.0, -700.0]
            ),
        )
    )
    def test_fix_signs_matches_column_loop(self, V):
        def column_loop(vectors):
            out = vectors.copy()
            for j in range(out.shape[1]):
                col = out[:, j]
                thresh = 1e-12 * max(1.0, float(np.max(np.abs(col))))
                for i in range(out.shape[0]):
                    if abs(col[i]) > thresh:
                        if col[i] < 0:
                            out[:, j] = -col
                        break
            return out

        assert _fix_signs(V.copy()).tobytes() == column_loop(V).tobytes()

    def test_rejects_asymmetric(self):
        with pytest.raises(LinalgError):
            sym_eig([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(LinalgError):
            sym_eig(np.zeros((2, 3)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
    def test_reconstruction_and_order(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n))
        S = A + A.T
        eig = sym_eig(S)
        assert np.all(np.diff(eig.values) >= -1e-12)
        R = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
        assert np.allclose(R, S, atol=1e-9 * max(1.0, np.abs(S).max()))
        assert np.allclose(eig.vectors.T @ eig.vectors, np.eye(n), atol=1e-10)


    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
    def test_bits_of_the_plain_symmetrization(self, n, seed):
        # S is symmetric only to rounding, as a positive-pair joint is
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n))
        S = A + A.T + 1e-13 * rng.normal(size=(n, n))
        values, vectors = np.linalg.eigh(0.5 * (S + S.T))
        eig = sym_eig(S)
        assert eig.values.tobytes() == values.tobytes()
        assert eig.vectors.tobytes() == _fix_signs(vectors).tobytes()

class TestOrthonormalize:
    def test_full_rank(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(7, 4))
        Q = orthonormalize(M)
        assert np.allclose(Q.T @ Q, np.eye(4), atol=1e-10)
        # same column span: projections agree
        P1 = Q @ Q.T
        U, _, _ = np.linalg.svd(M, full_matrices=False)
        assert np.allclose(P1, U @ U.T, atol=1e-9)

    def test_positive_diagonal(self):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(5, 5))
        Q = orthonormalize(M)
        R = Q.T @ M
        assert np.all(np.diag(R) > 0)

    def test_rank_deficient_completed(self):
        M = np.zeros((4, 3))
        M[:, 0] = [1.0, 0, 0, 0]
        M[:, 1] = [2.0, 0, 0, 0]  # dependent
        M[:, 2] = [0, 1.0, 0, 0]
        Q = orthonormalize(M)
        # deficient: the completed column lies outside the span of M
        assert np.allclose(M.T @ Q[:, 2], 0.0, atol=1e-12)
        assert np.allclose(Q.T @ Q, np.eye(3), atol=1e-10)

    def test_rejects_wide(self):
        with pytest.raises(LinalgError):
            orthonormalize(np.zeros((2, 3)))


class TestGaussianMatrix:
    def test_deterministic(self):
        A = gaussian_matrix(6, 4, 123)
        B = gaussian_matrix(6, 4, 123)
        assert np.array_equal(A, B)

    def test_seed_changes_output(self):
        assert not np.array_equal(gaussian_matrix(6, 4, 1), gaussian_matrix(6, 4, 2))

    def test_rows_schedule_independent(self):
        # row r depends only on (seed, r), not on the total row count
        A = gaussian_matrix(3, 5, 77)
        B = gaussian_matrix(9, 5, 77)
        assert np.array_equal(A, B[:3])

    def test_moments(self):
        X = gaussian_matrix(200, 50, 0)
        assert abs(X.mean()) < 0.05
        assert abs(X.std() - 1.0) < 0.05

    def test_rejects_bad_shape(self):
        with pytest.raises(LinalgError):
            gaussian_matrix(0, 3, 1)

    @pytest.mark.parametrize("seed", [0, 5, -1, 2**63 + 7])
    @pytest.mark.parametrize("shape", [(477, 3), (477, 8), (12, 12), (12, 30), (1, 1), (3, 1000)])
    def test_matches_fresh_generator_per_row(self, shape, seed):
        # oracle: a new Philox keyed by (seed, row) and a new Generator per row
        rows, cols = shape
        want = np.empty(shape)
        for r in range(rows):
            key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, r], dtype=np.uint64)
            want[r] = np.random.Generator(np.random.Philox(key=key)).standard_normal(cols)
        assert gaussian_matrix(rows, cols, seed).tobytes() == want.tobytes()


class TestSerialization:
    def test_text_round_trip(self, tmp_path):
        X = np.array([[1.0 / 3.0, -2.5e-17], [1e300, 4.0]])
        p = tmp_path / "x.mat"
        save_matrix_text(p, X)
        assert np.array_equal(load_matrix_text(p), X)

    # the reader refuses what save_matrix_text never writes, so a round trip fails loudly
    def test_text_header_checked(self, tmp_path):
        p = tmp_path / "bad.mat"
        p.write_text("NOT-A-HEADER\n1 1\n0.0\n")
        with pytest.raises(AssertionError):
            load_matrix_text(p)

    def test_text_count_checked(self, tmp_path):
        p = tmp_path / "short.mat"
        p.write_text("CTLAB-MAT v1\n2 2\n0.0 1.0 2.0\n")
        with pytest.raises(AssertionError):
            load_matrix_text(p)
