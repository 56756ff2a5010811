import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctlab.svd import (
    TruncationSpec,
    eckart_young_check,
    svd_full,
    svd_truncate,
    truncate_matrix,
)


def _rand(m, mp, seed):
    return np.random.default_rng(seed).normal(size=(m, mp))


class TestSvdFull:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_matches_lapack_and_reconstructs(self, m, mp, seed):
        X = _rand(m, mp, seed)
        F = svd_full(X)
        ref = np.linalg.svd(X, compute_uv=False)
        scale = max(1.0, ref[0])
        assert np.allclose(F.S, ref, atol=1e-8 * scale)
        assert np.all(np.diff(F.S) <= 1e-12)
        assert np.allclose(F.reconstruct(), X, atol=1e-8 * scale)
        r = F.rank_bound
        assert np.allclose(F.U.T @ F.U, np.eye(r), atol=1e-8)
        assert np.allclose(F.V.T @ F.V, np.eye(r), atol=1e-8)

    def test_low_rank_tail_is_exact_zero(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 3)) @ rng.normal(size=(3, 8))
        F = svd_full(X)
        assert np.all(F.S[3:] == 0.0)
        assert np.allclose(F.reconstruct(), X, atol=1e-10 * F.S[0])

    def test_tall_and_wide_agree(self):
        X = _rand(9, 4, 5)
        assert np.allclose(svd_full(X).S, svd_full(X.T).S, atol=1e-10)

    def test_zero_matrix(self):
        F = svd_full(np.zeros((4, 6)))
        assert np.all(F.S == 0.0)
        assert np.allclose(F.U.T @ F.U, np.eye(4), atol=1e-12)


class TestTruncation:
    def test_keep_top_q_matches_direct(self):
        X = _rand(8, 6, 2)
        U, S, Vt = np.linalg.svd(X, full_matrices=False)
        for q in (1, 3, 6):
            want = (U[:, :q] * S[:q]) @ Vt[:q]
            got = truncate_matrix(X, TruncationSpec(mode="keep_top_q", q=q))
            assert np.allclose(got, want, atol=1e-8 * S[0])

    def test_q_above_rank_is_exact(self):
        X = _rand(5, 7, 3)
        got = truncate_matrix(X, TruncationSpec(mode="keep_top_q", q=40))
        assert np.allclose(got, X, atol=1e-9 * np.abs(X).max())

    def test_discard_pair_error(self):
        # removing s_i, s_{i+1} leaves exactly that much squared error
        X = _rand(7, 7, 4)
        F = svd_full(X)
        got = svd_truncate(F, TruncationSpec(mode="discard_pair", pair_index=2))
        err2 = float(np.sum((X - got) ** 2))
        want = float(F.S[1] ** 2 + F.S[2] ** 2)
        assert abs(err2 - want) < 1e-8 * want

    def test_discard_single_error(self):
        X = _rand(6, 9, 8)
        F = svd_full(X)
        got = svd_truncate(F, TruncationSpec(mode="discard_single", pair_index=1))
        err2 = float(np.sum((X - got) ** 2))
        assert abs(err2 - float(F.S[0] ** 2)) < 1e-8 * float(F.S[0] ** 2)

    def test_validation(self):
        F = svd_full(_rand(4, 4, 0))
        with pytest.raises(ValueError):
            svd_truncate(F, TruncationSpec(mode="keep_top_q", q=0))
        with pytest.raises(ValueError):
            svd_truncate(F, TruncationSpec(mode="discard_pair", pair_index=4))
        with pytest.raises(ValueError):
            svd_truncate(F, TruncationSpec(mode="discard_single", pair_index=5))
        with pytest.raises(ValueError):
            svd_truncate(F, TruncationSpec(mode="banana", q=1))

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_tail_sum_identity(self, m, mp, seed):
        X = _rand(m, mp, seed)
        F = svd_full(X)
        for q in range(1, min(m, mp)):
            Xq = svd_truncate(F, TruncationSpec(mode="keep_top_q", q=q))
            err2 = float(np.sum((X - Xq) ** 2))
            tail = float(np.sum(F.S[q:] ** 2))
            assert abs(err2 - tail) <= 1e-8 * max(tail, 1e-30)


class TestEckartYoung:
    def test_holds_on_random(self):
        for seed in range(5):
            X = _rand(12, 9, seed + 100)
            rep = eckart_young_check(X, q=3, trials=40, seed=seed)
            assert rep.holds
            assert rep.truncated_error <= rep.min_competitor_error + 1e-10

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            eckart_young_check(np.eye(3), q=1, trials=0, seed=0)
        with pytest.raises(ValueError):
            eckart_young_check(np.eye(3), q=4, trials=1, seed=0)
