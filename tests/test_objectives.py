import itertools
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctlab import objectives
from ctlab.graph import spectral_embedding, stage_graph
from ctlab.linalg import gaussian_matrix
from ctlab.objectives import (
    Embedding,
    LinearHead,
    McConfig,
    ce_risk,
    classification_error,
    fit_linear_head,
    infonce_population,
    mean_head,
    spectral_loss,
    train_free_embeddings,
)
from ctlab.objectives import (
    _exact_infonce,
    _gradient,
    _sample_batch,
    _sampled_infonce,
    _table_indices,
)
from ctlab.world import AugmentedSpace, build_augmented_space, generate_world, inflate
from oracles import (
    dense_sampled_infonce,
    full_support_batch,
    infonce_empirical,
    infonce_gradient,
    logaddexp_exact_infonce,
    random_embedding,
    reference_spec,
    reference_transforms,
    reference_world,
    toy_transforms,
    toy_world,
)


def toy_space():
    return build_augmented_space(toy_world(), toy_transforms())


def reference_space():
    w = reference_world()
    return build_augmented_space(w, reference_transforms(w))


def inflated_space(factor=4):
    w = generate_world(replace(reference_spec(), noise_scale=0.05))
    return build_augmented_space(inflate(w, factor, seed=6), reference_transforms(w))


def random_space(n, seed, K=2):
    """Space of n nodes with a sparse random symmetric joint; no payloads."""
    rng = np.random.default_rng(seed)
    A = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    A = A + A.T + np.diag(rng.random(n))
    A /= A.sum()
    return AugmentedSpace(
        payloads=np.zeros((n, 1, 1)),
        labels=np.arange(n) % K,
        cond=np.full((1, n), 1.0 / n),
        marginal=A.sum(axis=1),
        joint=A,
        K=K,
    )


def exact_loss_and_grad(f, space, M):
    F = f.table
    loss, G = _exact_infonce(space, M)(F @ F.T, coef=True)
    return loss, _gradient(F, G, f.normalized)


def per_call_exact_infonce(sims, space, M, coef=False):
    """The exact engine as one function that rebuilds everything per call.

    The reference for the built engine's bits: same exp-space arithmetic on
    fresh arrays, with the pair support and anchor offsets made on every call.
    Returns (loss, C + C^T), like the engine.
    """
    xs, ys = np.nonzero(space.joint)
    w = space.joint[xs, ys]
    p = space.marginal
    n = space.n
    m = sims.max(axis=1)
    E = np.exp(sims - m[:, None])
    s_pos, e_pos = sims[xs, ys], E[xs, ys]
    starts = np.searchsorted(xs, np.arange(n + 1))
    anchors = np.flatnonzero(np.diff(starts))
    C = np.zeros((n, n)) if coef else None
    if M == 1:
        Z = E[xs, :] + e_pos[:, None]
        expect = np.log(Z) @ p
        if coef:
            R = 1.0 / Z
            C[xs, ys] = w * (e_pos * (R @ p) - 1.0)
            seg = np.add.reduceat(w[:, None] * R, starts[anchors], axis=0)
            C[anchors] += p * E[anchors] * seg
    else:
        expect = np.empty(len(xs))
        for x in anchors:
            sel = slice(starts[x], starts[x + 1])
            row = E[x]
            Z = e_pos[sel, None, None] + (row[:, None] + row[None, :])
            expect[sel] = np.log(Z) @ p @ p
            if coef:
                Rp = (1.0 / Z) @ p
                C[x, ys[sel]] = w[sel] * (e_pos[sel] * (Rp @ p) - 1.0)
                C[x, :] += 2.0 * p * row * (w[sel] @ Rp)
    return float(w @ (m[xs] - s_pos + expect)), (C + C.T if coef else None)


def eight_node_space():
    return random_space(8, seed=7)


def zero_marginal_space(node=2):
    """Eight-node space whose node `node` is an anchor but never a negative."""
    space = eight_node_space()
    p = space.marginal.copy()
    p[node] = 0.0
    return replace(space, marginal=p / p.sum())


def unit_sims(n, seed, k=3):
    F = random_embedding(n, k, seed=seed).table
    return F @ F.T


def constant_embedding(n, k=3):
    table = np.zeros((n, k))
    table[:, 0] = 1.0
    return Embedding(table=table, normalized=True)


TOY_SPECTRAL_F = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, -1.0]])


class TestInfoNcePopulation:
    def test_constant_embedding_exact(self):
        # all similarities are 1, so the loss is log(M + 1) identically
        space = toy_space()
        f = constant_embedding(space.n)
        for M in (1, 2):
            val, se, exact = infonce_population(f, space, M)
            assert exact and se == 0.0
            assert abs(val - np.log(M + 1)) < 1e-12

    def test_constant_embedding_mc_degenerate(self):
        # MC path, but every sampled loss equals log(M + 1) so stderr is 0
        space = toy_space()
        f = constant_embedding(space.n)
        val, se, exact = infonce_population(f, space, 5, McConfig(samples=500))
        assert not exact
        assert abs(val - np.log(6)) < 1e-12
        assert se < 1e-12

    def test_exact_matches_brute_force(self):
        # independent oracle: raw triple/quad loops over the 3-node space
        space = toy_space()
        f = random_embedding(space.n, 4, seed=2)
        F = f.table
        p = space.marginal
        want = 0.0
        for x in range(3):
            for y in range(3):
                pw = space.joint[x, y]
                if pw == 0:
                    continue
                for z in range(3):
                    s_pos = F[x] @ F[y]
                    s_neg = F[x] @ F[z]
                    want += pw * p[z] * (
                        np.log(np.exp(s_pos) + np.exp(s_neg)) - s_pos
                    )
        got, se, exact = infonce_population(f, space, 1)
        assert exact
        assert abs(got - want) < 1e-12

    def test_mc_agrees_with_exact(self):
        space = toy_space()
        f = random_embedding(space.n, 3, seed=5)
        exact_val, _, _ = infonce_population(f, space, 1)
        mc_val, se, exact = infonce_population(
            f, space, 1, McConfig(samples=40000, n_max=1)
        )
        assert not exact
        assert se > 0.0
        assert abs(mc_val - exact_val) < 5 * se + 1e-3

    def test_mc_deterministic(self):
        space = toy_space()
        f = random_embedding(space.n, 3, seed=5)
        a = infonce_population(f, space, 5, McConfig(samples=1000, seed=4))
        b = infonce_population(f, space, 5, McConfig(samples=1000, seed=4))
        assert a == b

    def test_m_validated(self):
        with pytest.raises(ValueError):
            infonce_population(constant_embedding(3), toy_space(), 0)


class TestInfoNceEmpirical:
    def test_single_tuple(self):
        f = constant_embedding(3)
        assert abs(infonce_empirical(f, np.array([[0, 0, 1]])) - np.log(2)) < 1e-12

    def test_duplication_invariance(self):
        f = random_embedding(3, 2, seed=1)
        batch = np.array([[0, 1, 2], [2, 1, 0]])
        a = infonce_empirical(f, batch)
        b = infonce_empirical(f, np.concatenate([batch, batch]))
        assert abs(a - b) < 1e-12

    def test_full_support_batch_reproduces_population(self):
        space = toy_space()
        f = random_embedding(space.n, 3, seed=7)
        for M in (1, 2):
            batch, weights = full_support_batch(space, M)
            emp = infonce_empirical(f, batch, weights)
            pop, _, exact = infonce_population(f, space, M)
            assert exact
            assert abs(emp - pop) < 1e-10

    @pytest.mark.parametrize("M, zero_node", [(1, None), (2, None), (2, 1)])
    def test_full_support_batch_oracle(self, M, zero_node):
        # independent oracle: pairs and negative combos from itertools.product;
        # a node of zero marginal mass drops every combo that draws it
        space = toy_space()
        if zero_node is not None:
            p = space.marginal.copy()
            p[zero_node] = 0.0
            space = replace(space, marginal=p)
        p = space.marginal
        rows, want = [], []
        for x, y in itertools.product(range(space.n), repeat=2):
            if space.joint[x, y] == 0.0:
                continue
            for combo in itertools.product(range(space.n), repeat=M):
                cw = 1.0
                for z in combo:
                    cw *= p[z]
                if cw != 0.0:
                    rows.append((x, y) + combo)
                    want.append(space.joint[x, y] * cw)
        batch, weights = full_support_batch(space, M)
        assert batch.dtype == np.intp
        assert batch.shape == (len(rows), 2 + M)
        assert len(batch) == len(rows)
        assert batch.tolist() == [list(r) for r in rows]
        assert np.array_equal(weights, np.array(want))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            infonce_empirical(constant_embedding(3), np.zeros((0, 3), dtype=int))


class TestInfoNceGradient:
    def _fd(self, table, batch, weights, h=1e-6):
        g = np.zeros_like(table)
        for i in range(table.shape[0]):
            for j in range(table.shape[1]):
                tp = table.copy()
                tp[i, j] += h
                tm = table.copy()
                tm[i, j] -= h
                fp = infonce_empirical(Embedding(tp, False), batch, weights)
                fm = infonce_empirical(Embedding(tm, False), batch, weights)
                g[i, j] = (fp - fm) / (2 * h)
        return g

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            n, k, M = 5, 3, 2
            table = rng.normal(size=(n, k))
            batch = np.array([
                [int(rng.integers(n)), int(rng.integers(n))]
                + [int(rng.integers(n)) for _ in range(M)]
                for _ in range(6)
            ])
            f = Embedding(table, normalized=False)
            g = infonce_gradient(f, batch)
            fd = self._fd(table, batch, None, h=1e-5)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(g - fd).max() / scale < 1e-5

    def test_weighted_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        table = rng.normal(size=(4, 2))
        batch = np.array([[0, 1, 2], [3, 2, 1], [1, 0, 3]])
        weights = np.array([0.5, 0.3, 0.2])
        f = Embedding(table, normalized=False)
        g = infonce_gradient(f, batch, weights)
        fd = self._fd(table, batch, weights, h=1e-5)
        assert np.abs(g - fd).max() < 1e-6

    def test_normalized_gradient_is_tangential(self):
        f = random_embedding(5, 3, seed=9)
        batch = np.array([[0, 1, 2, 3], [4, 2, 0, 1]])
        g = infonce_gradient(f, batch)
        radial = np.sum(g * f.table, axis=1)
        assert np.abs(radial).max() < 1e-12
        # and equals the projected Euclidean gradient
        g_raw = infonce_gradient(Embedding(f.table, False), batch)
        proj = g_raw - np.sum(g_raw * f.table, axis=1, keepdims=True) * f.table
        assert np.allclose(g, proj, atol=1e-14)

    @staticmethod
    def _add_at_reference(f, batch, weights):
        # row-by-row scatter of every (anchor, other) term into the rows
        a, others = batch[:, 0], batch[:, 1:]
        F = f.table
        s = np.einsum("bk,bmk->bm", F[a], F[others])
        probs = np.exp(s - s.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        probs[:, 0] -= 1.0
        w = np.full(len(batch), 1.0 / len(batch)) if weights is None else weights / weights.sum()
        grad = np.zeros_like(F)
        for m in range(others.shape[1]):
            coef = (w * probs[:, m])[:, None]
            np.add.at(grad, a, coef * F[others[:, m]])
            np.add.at(grad, others[:, m], coef * F[a])
        if f.normalized:
            grad -= np.sum(grad * F, axis=1, keepdims=True) * F
        return grad

    @pytest.mark.parametrize("M", [1, 3])
    def test_matches_add_at_reference(self, M):
        # 400 rows over 7 nodes: every index repeats many times, and anchors
        # also appear as their own positives and negatives
        rng = np.random.default_rng(11)
        batch = rng.integers(7, size=(400, 2 + M))
        for weights in (None, rng.random(400)):
            for normalized in (True, False):
                f = random_embedding(7, 4, seed=M, normalized=normalized)
                got = infonce_gradient(f, batch, weights)
                want = self._add_at_reference(f, batch, weights)
                assert np.abs(got - want).max() < 1e-15


def spread_sims(n, seed, spread):
    """F F^T of an unnormalized gaussian table, scaled so its widest row spreads `spread`."""
    F = gaussian_matrix(n, 3, seed)
    sims = F @ F.T
    return sims * (spread / np.max(sims.max(axis=1) - sims.min(axis=1)))


class TestExpSpaceAccuracy:
    """The exp-space engine against the np.logaddexp oracle."""

    @staticmethod
    def assert_close(got, want):
        # the engine's G against the oracle's C + C^T, relative to the loss
        # and to the largest coefficient
        (loss, G), (want_loss, want_C) = got, want
        assert abs(loss - want_loss) <= 1e-13 * abs(want_loss)
        assert np.abs(G - (want_C + want_C.T)).max() <= 1e-13 * np.abs(want_C).max()

    @pytest.mark.parametrize("M", [1, 2])
    @pytest.mark.parametrize("spread", [None, 5.0, 20.0, 50.0])
    @pytest.mark.parametrize(
        "make_space", [reference_space, eight_node_space, zero_marginal_space]
    )
    def test_matches_logaddexp_oracle(self, M, spread, make_space):
        # spread None is a unit table (spread at most 2)
        space = make_space()
        engine = _exact_infonce(space, M)
        for seed in (1, 2):
            if spread is None:
                sims = unit_sims(space.n, seed)
            else:
                sims = spread_sims(space.n, seed, spread)
            want = logaddexp_exact_infonce(sims, space, M, coef=True)
            self.assert_close(engine(sims, coef=True), want)

    @pytest.mark.parametrize("M", [1, 2])
    def test_exact_just_inside_the_spread_bound(self, M):
        # every E stays a normal double, so nothing underflows to log 0
        space = eight_node_space()
        sims = spread_sims(space.n, 3, objectives._SPREAD_MAX - 1.0)
        with np.errstate(all="raise"):
            got = _exact_infonce(space, M)(sims, coef=True)
        self.assert_close(got, logaddexp_exact_infonce(sims, space, M, coef=True))

    @pytest.mark.parametrize("M", [1, 2])
    def test_spread_past_the_bound_raises_a_named_error(self, M):
        space = eight_node_space()
        sims = spread_sims(space.n, 3, 750.0)
        with pytest.raises(
            FloatingPointError, match=r"^exact InfoNCE: a similarity row spreads 750 > 700$"
        ):
            _exact_infonce(space, M)(sims)


class TestExactEngine:
    @pytest.mark.parametrize("M, zero_node", [(1, None), (2, None), (2, 4)])
    @pytest.mark.parametrize("normalized", [True, False])
    def test_matches_full_support_oracle(self, M, zero_node, normalized):
        # a node of zero marginal mass is never a negative; the batch drops
        # its combos, the engine weights them by zero
        space = random_space(8, seed=M)
        if zero_node is not None:
            p = space.marginal.copy()
            p[zero_node] = 0.0
            space = replace(space, marginal=p / p.sum())
        f = random_embedding(space.n, 3, seed=6, normalized=normalized)
        batch, weights = full_support_batch(space, M)
        loss, grad = exact_loss_and_grad(f, space, M)
        assert abs(loss - infonce_empirical(f, batch, weights)) < 1e-12
        assert np.abs(grad - infonce_gradient(f, batch, weights)).max() < 1e-12
        assert loss == infonce_population(f, space, M)[0]

    def test_matches_full_support_oracle_on_reference_space(self):
        space = reference_space()
        f = random_embedding(space.n, 3, seed=2)
        batch, weights = full_support_batch(space, 1)
        loss, grad = exact_loss_and_grad(f, space, 1)
        assert abs(loss - infonce_empirical(f, batch, weights)) < 1e-12
        assert np.abs(grad - infonce_gradient(f, batch, weights)).max() < 1e-12

    @pytest.mark.parametrize("M", [1, 2])
    @pytest.mark.parametrize("coef", [False, True])
    @pytest.mark.parametrize(
        "make_space", [reference_space, eight_node_space, zero_marginal_space]
    )
    def test_built_engine_matches_per_call_bits(self, M, coef, make_space):
        space = make_space()
        engine = _exact_infonce(space, M)
        for seed in (1, 2):
            sims = unit_sims(space.n, seed)
            loss, G = engine(sims, coef=coef)
            want_loss, want_G = per_call_exact_infonce(sims, space, M, coef=coef)
            assert loss == want_loss
            if coef:
                assert np.array_equal(G, want_G)
            else:
                assert G is None and want_G is None

    @pytest.mark.parametrize("M", [1, 2])
    def test_engine_reuse_keeps_bits_and_earlier_results(self, M):
        space = reference_space() if M == 1 else eight_node_space()
        engine = _exact_infonce(space, M)
        sims_a, sims_b = unit_sims(space.n, 3), unit_sims(space.n, 4)
        loss_a, G_a = engine(sims_a, coef=True)
        G_a_bits = G_a.copy()
        loss_b, G_b = engine(sims_b, coef=True)
        G_b_bits = G_b.copy()
        again, G_again = engine(sims_a, coef=True)
        engine(sims_b)
        assert again == loss_a and np.array_equal(G_again, G_a_bits)
        assert loss_b != loss_a
        assert np.array_equal(G_a, G_a_bits) and np.array_equal(G_b, G_b_bits)

    def test_built_engine_allocates_under_one_pairs_by_n_array(self):
        space = reference_space()
        engine = _exact_infonce(space, 1)
        sims = unit_sims(space.n, 5)
        one_array = np.count_nonzero(space.joint) * space.n * 8  # 256,608 bytes
        tracemalloc.start()
        try:
            engine(sims, coef=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one_array

    def test_built_m2_engine_allocates_under_one_anchor_block(self):
        space = reference_space()
        engine = _exact_infonce(space, 2)
        sims = unit_sims(space.n, 5)
        most = np.bincount(space.support[0]).max()
        one_block = most * space.n * space.n * 8  # (pairs of one anchor, n, n): 443,232 bytes
        tracemalloc.start()
        try:
            engine(sims, coef=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one_block

    @pytest.mark.parametrize("M", [1, 2])
    def test_matches_finite_differences(self, M):
        space = random_space(6, seed=10 + M)
        table = np.random.default_rng(M).normal(size=(space.n, 3))
        _, grad = exact_loss_and_grad(Embedding(table, False), space, M)
        h = 1e-6
        fd = np.zeros_like(table)
        for i, j in itertools.product(*map(range, table.shape)):
            step = np.zeros_like(table)
            step[i, j] = h
            up = infonce_population(Embedding(table + step, False), space, M)[0]
            down = infonce_population(Embedding(table - step, False), space, M)[0]
            fd[i, j] = (up - down) / (2 * h)
        assert np.abs(grad - fd).max() < 1e-8


def cell_sampler(space, M, samples, seed):
    """The sampler drawing each pair by `rng.choice` over all n^2 cells."""
    rng = np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))
    flat = space.joint.ravel()
    pair_idx = rng.choice(len(flat), size=samples, p=flat / flat.sum())
    ax, px = np.unravel_index(pair_idx, space.joint.shape)
    negs = rng.choice(space.n, size=(samples, M), p=space.marginal)
    return np.column_stack([ax, px, negs])


def support_sampler(space, M, samples, seed):
    """The inverse-CDF sampler over a support recomputed from the joint."""
    rng = np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))
    xs, ys = np.nonzero(space.joint)
    w = space.joint[xs, ys]
    cdf = np.cumsum(w / space.joint.sum())
    cdf /= cdf[-1]
    pair_idx = np.searchsorted(cdf, rng.random(samples), side="right")
    negs = rng.choice(space.n, size=(samples, M), p=space.marginal)
    return np.column_stack([xs[pair_idx], ys[pair_idx], negs])


def row_major_losses(s_pos, s_neg):
    """Per-row InfoNCE losses on (B, 1 + M) rows, stabilized by the row max."""
    stacked = np.concatenate([s_pos[:, None], s_neg], axis=1)
    mx = stacked.max(axis=1)
    return mx + np.log(np.sum(np.exp(stacked - mx[:, None]), axis=1)) - s_pos


class TestSampledKernel:
    def test_sampler_matches_cell_reference(self):
        for space in (reference_space(), inflated_space(8)):
            for M in (1, 2):
                for seed in range(10):
                    got = _sample_batch(space, M, 3000, seed)
                    assert np.array_equal(got, cell_sampler(space, M, 3000, seed))

    def test_sampler_matches_support_recomputed_per_call(self):
        for space in (reference_space(), inflated_space(8)):
            for M, seed in itertools.product((1, 2), range(4)):
                got = _sample_batch(space, M, 3000, seed)
                assert np.array_equal(got, support_sampler(space, M, 3000, seed))

    def test_table_indices_layout(self):
        batch = np.array([[0, 1, 2, 3], [2, 2, 0, 1]])
        flat = _table_indices(batch, 4)
        assert flat.flags.c_contiguous
        assert flat.tolist() == [[1, 10], [2, 8], [3, 9]]

    @pytest.mark.parametrize("M", [1, 2, 3, 7])
    @pytest.mark.parametrize("normalized", [True, False])
    def test_matches_batch_oracle(self, M, normalized):
        for space in (reference_space(), random_space(9, seed=M)):
            batch = _sample_batch(space, M, 2000, seed=M)
            f = random_embedding(space.n, 3, seed=M + 1, normalized=normalized)
            F = f.table
            engine = _sampled_infonce(_table_indices(batch, space.n), space.n)
            losses, G = engine(F @ F.T, coef=True)
            assert abs(np.mean(losses) - infonce_empirical(f, batch)) < 1e-12
            grad = _gradient(F, G, normalized)
            assert np.abs(grad - infonce_gradient(f, batch)).max() < 1e-12

    @pytest.mark.parametrize("M", [1, 2, 3, 7])
    @pytest.mark.parametrize(
        "make_space, samples",
        [
            (reference_space, 2000),
            (lambda: random_space(9, seed=5), 20),
            (lambda: inflated_space(8), 2000),
        ],
    )
    def test_matches_dense_oracle_bits(self, M, make_space, samples):
        space = make_space()
        n = space.n
        flat = _table_indices(_sample_batch(space, M, samples, seed=M), n)
        # the batch hits diagonal cells, off-diagonal cells whose mirror it
        # hits too, and off-diagonal cells whose mirror it misses
        hit = np.zeros((n, n), dtype=bool)
        hit.ravel()[flat.ravel()] = True
        off = hit & ~np.eye(n, dtype=bool)
        assert hit.diagonal().any() and (off & off.T).any() and (off & ~off.T).any()
        engine = _sampled_infonce(flat, n)
        for seed in (1, 2):  # the second call overwrites the first one's G
            sims = unit_sims(n, seed)
            want_losses, want_C = dense_sampled_infonce(sims, flat, coef=True)
            losses, G = engine(sims, coef=True)
            assert losses.tobytes() == want_losses.tobytes()
            assert G.tobytes() == (want_C + want_C.T).tobytes()
            losses, none = engine(sims)
            assert losses.tobytes() == want_losses.tobytes() and none is None

    def test_owned_g_lives_until_the_next_call_with_coef(self):
        space = inflated_space(8)
        flat = _table_indices(_sample_batch(space, 2, 2000, 3), space.n)
        engine = _sampled_infonce(flat, space.n)
        sims_a, sims_b = unit_sims(space.n, 3), unit_sims(space.n, 4)
        _, G_a = engine(sims_a, coef=True)
        G_a_bits = G_a.copy()
        engine(sims_b)  # a call without coef leaves G alone
        assert np.array_equal(G_a, G_a_bits)
        _, G_b = engine(sims_b, coef=True)  # the next call with coef overwrites it
        assert G_b is G_a and not np.array_equal(G_b, G_a_bits)
        assert np.array_equal(engine(sims_a, coef=True)[1], G_a_bits)

    def test_support_is_built_on_the_first_call_with_coef(self, monkeypatch):
        built = []
        build = objectives._cell_support

        def recording(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(objectives, "_cell_support", recording)
        space, cfg = reference_space(), McConfig(n_max=1, samples=2000)
        f = random_embedding(space.n, 3, seed=1)
        for M in (1, 2):
            infonce_population(f, space, M, cfg)
        assert built == []
        train_free_embeddings(space, 3, "infonce", 5, 1.0, seed=0, cfg=cfg)
        assert len(built) == 1

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 5])
    def test_population_matches_row_major_route(self, M):
        # reducing over the leading axis adds the 1 + M terms in the same
        # order as the row-major route for these M, so no bit moves
        cfg = McConfig(samples=4000, seed=M, n_max=1)
        for space in (reference_space(), inflated_space()):
            f = random_embedding(space.n, 3, seed=M)
            sims = f.table @ f.table.T
            batch = _sample_batch(space, M, cfg.samples, cfg.seed)
            a = batch[:, 0]
            losses = row_major_losses(sims[a, batch[:, 1]], sims[a[:, None], batch[:, 2:]])
            want = (
                float(np.mean(losses)),
                float(np.std(losses, ddof=1) / np.sqrt(cfg.samples)),
                False,
            )
            assert infonce_population(f, space, M, cfg) == want


class TestSpectralLoss:
    def test_zero_embedding(self):
        space = toy_space()
        assert spectral_loss(Embedding(np.zeros((3, 2)), False), space) == 0.0

    def test_toy_closed_form_value(self):
        # minimizer value -sum_i (1 - lambda_i)^2 = -(1 + 1/4) on the toy graph
        space = toy_space()
        f = Embedding(TOY_SPECTRAL_F, normalized=False)
        assert abs(spectral_loss(f, space) + 1.25) < 1e-12

    def test_embedding_beats_random(self):
        w = reference_world()
        staged = stage_graph(w, reference_transforms(w))
        space = staged.space
        k = 4
        table = spectral_embedding(staged, k)
        best = spectral_loss(Embedding(table, False), space)
        for seed in range(200):
            f = random_embedding(space.n, k, seed=seed, normalized=False)
            assert best <= spectral_loss(f, space) + 1e-12

    def test_brute_force_oracle(self):
        for space in (toy_space(), random_space(60, 3)):
            rng = np.random.default_rng(4)
            F = rng.normal(size=(space.n, 2))
            p = space.marginal
            want = 0.0
            for x in range(space.n):
                for y in range(space.n):
                    want -= 2.0 * space.joint[x, y] * float(F[x] @ F[y])
                    want += p[x] * p[y] * float(F[x] @ F[y]) ** 2
            got = spectral_loss(Embedding(F, False), space)
            assert abs(got - want) < 1e-12

    def test_gradient_matches_formula(self):
        # -4 joint F + 4 diag(p) F G, each product recomputed from F
        space = inflated_space(8)
        F = gaussian_matrix(space.n, 3, 7)
        pF = space.marginal[:, None] * F
        want = -4.0 * (space.joint @ F) + 4.0 * pF @ (F.T @ pF)
        _, aux = objectives._spectral_terms(F, space)
        assert objectives._spectral_grad(F, space, aux).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("factor", [1, 8])
    def test_training_follows_n_by_n_loop(self, factor, k, seed):
        # the backtracking descent on the loss summed over the n x n joint
        space = reference_space() if factor == 1 else inflated_space(factor)
        steps, step_size = 30, 1.0
        p, J = space.marginal[:, None], space.joint

        def loss(F):
            G = F.T @ (p * F)
            return -2.0 * float(np.sum(J * (F @ F.T))) + float(np.sum(G * G))

        table = 0.5 * gaussian_matrix(space.n, k, seed)
        current, eta = loss(table), step_size
        for _ in range(steps):
            g = -4.0 * (J @ table) + 4.0 * (p * table) @ (table.T @ (p * table))
            for _try in range(40):
                cand = table - eta * g
                cand_loss = loss(cand)
                if cand_loss <= current + 1e-15:
                    table, current = cand, cand_loss
                    eta = min(eta * 1.1, step_size * 10)
                    break
                eta *= 0.5
            else:
                break
        got = train_free_embeddings(space, k, "spectral", steps, step_size, seed=seed)
        assert got.table.tobytes() == table.tobytes()


class TestTraining:
    def test_zero_steps_returns_init(self):
        space = toy_space()
        a = train_free_embeddings(space, 2, "infonce", 0, 0.5, seed=3)
        b = train_free_embeddings(space, 2, "infonce", 0, 0.5, seed=3)
        assert np.array_equal(a.table, b.table)
        assert a.normalized
        a.check()

    def test_infonce_loss_decreases(self):
        space = toy_space()
        seed = 5
        for cfg in (McConfig(), McConfig(n_max=1, samples=500)):
            f0 = train_free_embeddings(space, 2, "infonce", 0, 1.0, seed=seed, cfg=cfg)
            f1 = train_free_embeddings(space, 2, "infonce", 50, 1.0, seed=seed, cfg=cfg)
            if space.n <= cfg.n_max:
                batch, weights = full_support_batch(space, 1)
                l0 = infonce_empirical(f0, batch, weights)
                l1 = infonce_empirical(f1, batch, weights)
            else:
                again = train_free_embeddings(
                    space, 2, "infonce", 50, 1.0, seed=seed, cfg=cfg
                )
                assert np.array_equal(f1.table, again.table)
                exact = train_free_embeddings(space, 2, "infonce", 50, 1.0, seed=seed)
                assert not np.array_equal(f1.table, exact.table)
                # the shared sampler draws the trainer's own batch from this seed
                own = McConfig(n_max=1, samples=500, seed=cfg.seed + seed + 1)
                l0, _, _ = infonce_population(f0, space, 1, own)
                l1, _, _ = infonce_population(f1, space, 1, own)
            assert l1 <= l0 + 1e-12
            f1.check()

    @pytest.mark.parametrize("M", [1, 2])
    def test_exact_loss_non_increasing_over_accepted_steps(self, M):
        # training is deterministic, so s steps give the s-th accepted iterate
        space = reference_space() if M == 1 else random_space(8, seed=3)
        losses = [
            infonce_population(
                train_free_embeddings(space, 3, "infonce", s, 1.0, seed=4, M=M), space, M
            )[0]
            for s in range(12)
        ]
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    @staticmethod
    def record_evaluations(monkeypatch, builder):
        """Bytes of every sims the engines built by objectives.<builder> evaluate."""
        seen = []
        build = getattr(objectives, builder)

        def recording_build(*args, **kwargs):
            engine = build(*args, **kwargs)

            def recording(sims, *args, **kwargs):
                seen.append(sims.tobytes())
                return engine(sims, *args, **kwargs)

            return recording

        monkeypatch.setattr(objectives, builder, recording_build)
        return seen

    def test_exact_path_evaluates_each_table_once(self, monkeypatch):
        # the accepted candidate's evaluation also yields the next gradient
        seen = self.record_evaluations(monkeypatch, "_exact_infonce")
        train_free_embeddings(reference_space(), 3, "infonce", 5, 1.0, seed=0)
        assert len(seen) >= 6
        assert len(set(seen)) == len(seen)

    def test_sampled_path_evaluates_each_table_once(self, monkeypatch):
        # the accepted candidate's evaluation also yields the next gradient
        seen = self.record_evaluations(monkeypatch, "_sampled_infonce")
        cfg = McConfig(n_max=1, samples=2000)
        train_free_embeddings(reference_space(), 3, "infonce", 5, 1.0, seed=0, cfg=cfg)
        assert len(seen) >= 6
        assert len(set(seen)) == len(seen)

    def test_sampled_path_reads_g_before_the_next_evaluation(self, monkeypatch):
        # each G handed out turns NaN when the engine is called again, so a
        # G read after the next evaluation would poison the descent; the
        # large step makes the line search reject candidates
        space, cfg, steps = inflated_space(8), McConfig(samples=2000), 8
        want = train_free_embeddings(space, 3, "infonce", steps, 1000.0, seed=1, cfg=cfg)
        build = objectives._sampled_infonce
        calls = []

        def poisoning_build(*args):
            engine = build(*args)
            handed = []

            def poisoning(sims, coef=False):
                for G in handed:
                    G.fill(np.nan)
                losses, G = engine(sims, coef)
                calls.append(coef)
                handed[:] = [] if G is None else [G.copy()]
                return losses, (handed[0] if handed else None)

            return poisoning

        monkeypatch.setattr(objectives, "_sampled_infonce", poisoning_build)
        got = train_free_embeddings(space, 3, "infonce", steps, 1000.0, seed=1, cfg=cfg)
        assert len(calls) > steps + 1 and all(calls)
        assert got.table.tobytes() == want.table.tobytes()

    def test_sampled_path_follows_batch_oracle(self):
        # the same backtracking descent driven by the public batch functions
        space, k, steps, seed = reference_space(), 3, 20, 2
        cfg = McConfig(n_max=1, samples=3000)
        got = train_free_embeddings(space, k, "infonce", steps, 1.0, seed=seed, cfg=cfg)
        batch = _sample_batch(space, 1, cfg.samples, cfg.seed + seed + 1)
        table = 0.5 * gaussian_matrix(space.n, k, seed)
        table /= np.linalg.norm(table, axis=1, keepdims=True)
        first = current = infonce_empirical(Embedding(table, True), batch)
        eta = 1.0
        for _ in range(steps):
            g = infonce_gradient(Embedding(table, True), batch)
            for _try in range(40):
                cand = table - eta * g
                cand /= np.linalg.norm(cand, axis=1, keepdims=True)
                cand_loss = infonce_empirical(Embedding(cand, True), batch)
                if cand_loss <= current + 1e-15:
                    table, current, eta = cand, cand_loss, min(eta * 1.1, 10.0)
                    break
                eta *= 0.5
            else:
                break
        assert current < first
        assert np.abs(got.table - table).max() < 1e-13

    def test_spectral_training_reaches_closed_form(self):
        space = toy_space()
        f = train_free_embeddings(space, 2, "spectral", 2000, 0.5, seed=1)
        assert abs(spectral_loss(f, space) + 1.25) < 1e-3

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError):
            train_free_embeddings(toy_space(), 2, "hinge", 1, 0.1, seed=0)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            train_free_embeddings(toy_space(), 0, "infonce", 1, 0.1, seed=0)


class TestHeads:
    def test_mean_head_toy(self):
        space = toy_space()
        f = Embedding(TOY_SPECTRAL_F, normalized=False)
        head = mean_head(f, space)
        class_mass = [space.marginal[space.labels == c].sum() for c in range(space.K)]
        assert np.allclose(class_mass, [0.25, 0.75], atol=1e-15)
        assert np.allclose(head.W[:, 0], [1.0, 1.0], atol=1e-12)
        assert np.allclose(head.W[:, 1], [1.0, -1.0 / 3.0], atol=1e-12)

    def test_class_count_comes_from_the_world(self):
        # dropping every node of the top class must not shrink K silently
        space = reference_space()
        top = space.K - 1
        kept = np.flatnonzero(space.labels != top)
        restricted = replace(
            space,
            payloads=space.payloads[kept],
            labels=space.labels[kept],
            marginal=space.marginal[kept] / space.marginal[kept].sum(),
        )
        assert restricted.K == space.K == 3
        f = random_embedding(restricted.n, 3, seed=0)
        with pytest.raises(ValueError, match=f"mean_head: class {top} has zero marginal mass"):
            mean_head(f, restricted)
        assert fit_linear_head([f], restricted, steps=1, step_size=1.0)[0].W.shape == (3, 3)

    def test_zero_head_risk_is_log_k(self):
        space = toy_space()
        f = constant_embedding(space.n, 2)
        head = LinearHead(W=np.zeros((2, 2)))
        assert abs(ce_risk(f, head, space) - np.log(2)) < 1e-12

    def test_ce_risk_hand_value(self):
        # logits (1, 0) on every node
        space = toy_space()
        f = constant_embedding(space.n, 2)
        head = LinearHead(W=np.array([[1.0, 0.0], [0.0, 0.0]]))
        want = 0.25 * np.log1p(np.exp(-1.0)) + 0.75 * np.log1p(np.exp(1.0))
        assert abs(ce_risk(f, head, space) - want) < 1e-12

    def test_fit_zero_steps(self):
        space = toy_space()
        f = Embedding(TOY_SPECTRAL_F, normalized=False)
        (head,) = fit_linear_head([f], space, steps=0, step_size=1.0)
        assert np.array_equal(head.W, np.zeros((2, 2)))

    def test_fit_decreases_risk_and_separates(self):
        space = toy_space()
        f = Embedding(TOY_SPECTRAL_F, normalized=False)
        (head,) = fit_linear_head([f], space, steps=400, step_size=2.0)
        assert ce_risk(f, head, space) < np.log(2) - 0.1
        assert classification_error(f, head, space) == 0.0

    def test_l2_shrinks_head(self):
        space = toy_space()
        f = Embedding(TOY_SPECTRAL_F, normalized=False)
        (small,) = fit_linear_head([f], space, steps=200, step_size=0.5, l2=1.0)
        (big,) = fit_linear_head([f], space, steps=200, step_size=0.5, l2=0.0)
        assert small.frob_norm < big.frob_norm

    def test_classification_tie_breaks_to_class_zero(self):
        space = toy_space()
        f = constant_embedding(space.n, 2)
        head = LinearHead(W=np.zeros((2, 2)))
        # all-zero logits predict class 0 everywhere; only mass with true
        # label != 0 is wrong
        assert abs(classification_error(f, head, space) - 0.75) < 1e-15
        # predicting class 1 everywhere: the error is the label-0 marginal mass
        always_one = LinearHead(W=np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert abs(classification_error(f, always_one, space) - 0.25) < 1e-15


def _fit_alone(F, space, steps, step_size, l2):
    """Reference probe: the per-table descent with a row-wise max and a
    divergence check after every step."""
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


class TestStackedProbe:
    @pytest.mark.parametrize("n", [13, 54, 477])
    @pytest.mark.parametrize("K", [2, 3, 7, 8, 12])
    def test_each_head_is_its_table_fitted_alone(self, K, n):
        # bit-equal, not close: stacking must not change any head.  K >= 8
        # catches a column-wise softmax sum, whose bits differ from numpy's
        space = random_space(n, seed=K * 1000 + n, K=K)
        rng = np.random.default_rng(n + K)
        for k, l2, steps in itertools.product((1, 3, 8), (0.0, 0.5), (0, 1, 300)):
            tables = [rng.normal(size=(n, k)) for _ in range(2)]
            heads = fit_linear_head(
                [Embedding(t, normalized=False) for t in tables], space, steps, 2.0, l2
            )
            assert len(heads) == 2
            for t, head in zip(tables, heads):
                want = _fit_alone(t, space, steps, 2.0, l2)
                assert np.array_equal(head.W, want), (k, l2, steps)
                assert head.frob_norm == float(np.linalg.norm(want)), (k, l2, steps)

    def test_inputs_are_not_mutated(self):
        space = random_space(54, seed=5, K=3)
        before = [space.marginal.copy(), space.labels.copy(), space.joint.copy()]
        tables = [np.random.default_rng(t).normal(size=(54, 3)) for t in range(2)]
        copies = [t.copy() for t in tables]
        fit_linear_head([Embedding(t, False) for t in tables], space, 50, 2.0, 0.5)
        for t, c in zip(tables, copies):
            assert np.array_equal(t, c)
        for a, b in zip((space.marginal, space.labels, space.joint), before):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("K", [3, 8])
    def test_heads_survive_a_later_call(self, K):
        # heads of one call share no buffer a later call writes into
        space = random_space(54, seed=K, K=K)
        rng = np.random.default_rng(K)
        first = fit_linear_head(
            [Embedding(rng.normal(size=(54, 3)), False) for _ in range(2)], space, 40, 2.0
        )
        bits = [h.W.copy() for h in first]
        second = fit_linear_head(
            [Embedding(rng.normal(size=(54, 3)), False) for _ in range(2)], space, 40, 2.0
        )
        for head, want in zip(first, bits):
            assert np.array_equal(head.W, want)
            assert not any(np.shares_memory(head.W, h.W) for h in second)
        assert not np.array_equal(first[0].W, second[0].W)

    @pytest.mark.parametrize("count", [1, 2])
    def test_divergence_raises(self, count):
        # the first step overflows W; the check after the loop must still see it
        space = toy_space()
        tables = [
            Embedding(TOY_SPECTRAL_F * 1e10 * (t + 1), normalized=False) for t in range(count)
        ]
        with pytest.raises(RuntimeError, match="diverged"):
            fit_linear_head(tables, space, steps=20, step_size=1e300)
        with pytest.raises(RuntimeError, match="diverged"), np.errstate(all="ignore"):
            _fit_alone(tables[0].table, space, 20, 1e300, 0.0)


    def test_silenced_overflow_does_not_leak(self):
        # the descent silences its own overflow; with warnings as errors the
        # caller still sees only the divergence error
        tables = [Embedding(TOY_SPECTRAL_F * 1e10, normalized=False)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeError, match="diverged"):
                fit_linear_head(tables, toy_space(), steps=20, step_size=1e300)


class TestAlignmentInequality:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_unit_rows_dominate_inner_products(self, seed):
        # |f(x)^T v| <= ||v|| for unit f(x): the workhorse inequality behind
        # the sandwich terms
        rng = np.random.default_rng(seed)
        f = rng.normal(size=4)
        f /= np.linalg.norm(f)
        v = rng.normal(size=4)
        assert f @ v <= np.linalg.norm(v) + 1e-12
