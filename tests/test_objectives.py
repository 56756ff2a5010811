import itertools
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctlab import objectives
from ctlab.bounds import lse_approx_error
from ctlab.graph import spectral_embedding, stage_graph
from ctlab.linalg import gaussian_matrix
from ctlab.objectives import (
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
    _sample_batch,
    _sampled_infonce,
    _table_indices,
)
from ctlab.world import AugmentedSpace, build_augmented_space, generate_world
from oracles import (
    dense_lse_approx_error,
    dense_sampled_infonce,
    fit_alone,
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
    unit_rows,
)


def toy_space():
    return build_augmented_space(toy_world(), toy_transforms())


def reference_space():
    w = reference_world()
    return build_augmented_space(w, reference_transforms(w))


def inflated_space(factor=4):
    w = generate_world(replace(reference_spec(), noise_scale=0.05))
    return build_augmented_space(generate_world(w.spec, factor, 6), reference_transforms(w))


def random_space(n, seed, K=2):
    """Space of n nodes and (n + 1) // 2 originals with a sparse random cond; no payloads.

    The marginal comes from cond and the original weights as
    `build_augmented_space` forms it, and the joint is their product.  Original i % N_orig keeps node i,
    so every node has marginal mass.
    """
    rng = np.random.default_rng(seed)
    N = (n + 1) // 2
    cond = rng.random((N, n)) * (rng.random((N, n)) < 0.4)
    cond[np.arange(n) % N, np.arange(n)] += rng.random(n)
    cond /= cond.sum(axis=1, keepdims=True)
    weights = rng.random(N)
    weights /= weights.sum()
    return AugmentedSpace(
        payloads=np.zeros((n, 1, 1)),
        labels=np.arange(n) % K,
        cond=cond,
        weights=weights,
        marginal=weights @ cond,
        K=K,
    )


def gradient(F, GT, normalized):
    """An engine's G F, G = C + C^T, C = dL/d(F F^T); its radial part removed for unit rows."""
    if normalized:
        return GT - np.sum(GT * F, axis=1, keepdims=True) * F
    return GT


def exact_loss_and_grad(F, space, M, normalized):
    loss, GT = _exact_infonce(space, M)(F, coef=True)
    return loss, gradient(F, GT, normalized)


def per_call_exact_infonce(T, space, M, coef=False):
    """The exact engine as one function that rebuilds everything per call.

    The reference for the built engine's bits: same exp-space arithmetic on
    fresh arrays from sims = T T^T, with the pair support and anchor offsets
    made on every call.  Returns (loss, (C + C^T) @ T), like the engine.
    """
    xs, ys = np.nonzero(space.joint)
    w = space.joint[xs, ys]
    p = space.marginal
    n = space.n
    sims = T @ T.T
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
    return float(w @ (m[xs] - s_pos + expect)), ((C + C.T) @ T if coef else None)


def eight_node_space():
    return random_space(8, seed=7)


def zero_marginal_space(node=2):
    """Eight-node space whose node `node` is an anchor but never a negative."""
    space = eight_node_space()
    p = space.marginal.copy()
    p[node] = 0.0
    return replace(space, marginal=p / p.sum())


def unit_table(n, seed, k=3):
    return random_embedding(n, k, seed=seed)


def constant_embedding(n, k=3):
    table = np.zeros((n, k))
    table[:, 0] = 1.0
    return table


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
        F = random_embedding(space.n, 4, seed=2)
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
        got, se, exact = infonce_population(F, space, 1)
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
                fp = infonce_empirical(tp, batch, weights)
                fm = infonce_empirical(tm, batch, weights)
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
            g = infonce_gradient(table, batch)
            fd = self._fd(table, batch, None, h=1e-5)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(g - fd).max() / scale < 1e-5

    def test_weighted_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        table = rng.normal(size=(4, 2))
        batch = np.array([[0, 1, 2], [3, 2, 1], [1, 0, 3]])
        weights = np.array([0.5, 0.3, 0.2])
        g = infonce_gradient(table, batch, weights)
        fd = self._fd(table, batch, weights, h=1e-5)
        assert np.abs(g - fd).max() < 1e-6

    def test_normalized_gradient_is_tangential(self):
        f = random_embedding(5, 3, seed=9)
        batch = np.array([[0, 1, 2, 3], [4, 2, 0, 1]])
        g = infonce_gradient(f, batch, tangent=True)
        radial = np.sum(g * f, axis=1)
        assert np.abs(radial).max() < 1e-12
        # and equals the projected Euclidean gradient
        g_raw = infonce_gradient(f, batch)
        proj = g_raw - np.sum(g_raw * f, axis=1, keepdims=True) * f
        assert np.allclose(g, proj, atol=1e-14)

    @staticmethod
    def _add_at_reference(F, batch, weights, tangent):
        # row-by-row scatter of every (anchor, other) term into the rows
        a, others = batch[:, 0], batch[:, 1:]
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
        if tangent:
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
                got = infonce_gradient(f, batch, weights, tangent=normalized)
                want = self._add_at_reference(f, batch, weights, normalized)
                assert np.abs(got - want).max() < 1e-15


def spread_table(n, seed, spread):
    """An unnormalized gaussian table, scaled so the widest row of F F^T spreads `spread`."""
    F = gaussian_matrix(n, 3, seed)
    sims = F @ F.T
    return F * np.sqrt(spread / np.max(sims.max(axis=1) - sims.min(axis=1)))


class TestExpSpaceAccuracy:
    """The exp-space engine against the np.logaddexp oracle."""

    @staticmethod
    def assert_close(T, got, want):
        # the engine's G T against the oracle's (C + C^T) T, relative to the
        # loss and to the largest coefficient times T's largest column sum
        (loss, GT), (want_loss, want_C) = got, want
        assert abs(loss - want_loss) <= 1e-13 * abs(want_loss)
        scale = np.abs(want_C).max() * np.abs(T).sum(axis=0).max()
        assert np.abs(GT - (want_C + want_C.T) @ T).max() <= 1e-13 * scale

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
                T = unit_table(space.n, seed)
            else:
                T = spread_table(space.n, seed, spread)
            want = logaddexp_exact_infonce(T @ T.T, space, M, coef=True)
            self.assert_close(T, engine(T, coef=True), want)

    @pytest.mark.parametrize("M", [1, 2])
    def test_exact_just_inside_the_spread_bound(self, M):
        # every E stays a normal double, so nothing underflows to log 0
        space = eight_node_space()
        T = spread_table(space.n, 3, objectives._SPREAD_MAX - 1.0)
        with np.errstate(all="raise"):
            got = _exact_infonce(space, M)(T, coef=True)
        self.assert_close(T, got, logaddexp_exact_infonce(T @ T.T, space, M, coef=True))

    @pytest.mark.parametrize("M", [1, 2])
    def test_spread_past_the_bound_raises_a_named_error(self, M):
        space = eight_node_space()
        T = spread_table(space.n, 3, 750.0)
        with pytest.raises(
            FloatingPointError, match=r"^exact InfoNCE: a similarity row spreads 750 > 700$"
        ):
            _exact_infonce(space, M)(T)


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
        loss, grad = exact_loss_and_grad(f, space, M, normalized)
        assert abs(loss - infonce_empirical(f, batch, weights)) < 1e-12
        assert np.abs(grad - infonce_gradient(f, batch, weights, tangent=normalized)).max() < 1e-12
        assert loss == infonce_population(f, space, M)[0]

    def test_matches_full_support_oracle_on_reference_space(self):
        space = reference_space()
        f = random_embedding(space.n, 3, seed=2)
        batch, weights = full_support_batch(space, 1)
        loss, grad = exact_loss_and_grad(f, space, 1, True)
        assert abs(loss - infonce_empirical(f, batch, weights)) < 1e-12
        assert np.abs(grad - infonce_gradient(f, batch, weights, tangent=True)).max() < 1e-12

    @pytest.mark.parametrize("M", [1, 2])
    @pytest.mark.parametrize("coef", [False, True])
    @pytest.mark.parametrize(
        "make_space", [reference_space, eight_node_space, zero_marginal_space]
    )
    def test_built_engine_matches_per_call_bits(self, M, coef, make_space):
        space = make_space()
        engine = _exact_infonce(space, M)
        for seed in (1, 2):
            T = unit_table(space.n, seed)
            loss, GT = engine(T, coef=coef)
            want_loss, want_GT = per_call_exact_infonce(T, space, M, coef=coef)
            assert loss == want_loss
            if coef:
                assert GT.tobytes() == want_GT.tobytes()
            else:
                assert GT is None and want_GT is None

    @pytest.mark.parametrize("M", [1, 2])
    def test_engine_reuse_keeps_bits_and_earlier_results(self, M):
        space = reference_space() if M == 1 else eight_node_space()
        engine = _exact_infonce(space, M)
        T_a, T_b = unit_table(space.n, 3), unit_table(space.n, 4)
        loss_a, G_a = engine(T_a, coef=True)
        G_a_bits = G_a.copy()
        loss_b, G_b = engine(T_b, coef=True)
        G_b_bits = G_b.copy()
        again, G_again = engine(T_a, coef=True)
        engine(T_b)
        assert again == loss_a and np.array_equal(G_again, G_a_bits)
        assert loss_b != loss_a
        assert np.array_equal(G_a, G_a_bits) and np.array_equal(G_b, G_b_bits)

    def test_built_engine_allocates_under_one_pairs_by_n_array(self):
        space = reference_space()
        engine = _exact_infonce(space, 1)
        T = unit_table(space.n, 5)
        one_array = np.count_nonzero(space.joint) * space.n * 8  # 256,608 bytes
        tracemalloc.start()
        try:
            engine(T, coef=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one_array

    def test_built_m2_engine_allocates_under_one_anchor_block(self):
        space = reference_space()
        engine = _exact_infonce(space, 2)
        T = unit_table(space.n, 5)
        most = np.bincount(space.support[0]).max()
        one_block = most * space.n * space.n * 8  # (pairs of one anchor, n, n): 443,232 bytes
        tracemalloc.start()
        try:
            engine(T, coef=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one_block

    @pytest.mark.parametrize("M", [1, 2])
    def test_a_node_that_anchors_no_pair_is_refused(self, M):
        # the padded space of test_graph's massless-node test: its last node
        # has no support row, and np.add.reduceat over an empty segment would
        # read the next anchor's row
        space = toy_space()
        padded = replace(
            space,
            payloads=np.concatenate([space.payloads, space.payloads[:1] + 1.0]),
            cond=np.pad(space.cond, ((0, 0), (0, 1))),
        )
        with pytest.raises(ValueError, match=f"node n{space.n:04d} anchors no support pair"):
            _exact_infonce(padded, M)

    @pytest.mark.parametrize("M", [1, 2])
    def test_matches_finite_differences(self, M):
        space = random_space(6, seed=10 + M)
        table = np.random.default_rng(M).normal(size=(space.n, 3))
        _, grad = exact_loss_and_grad(table, space, M, False)
        h = 1e-6
        fd = np.zeros_like(table)
        for i, j in itertools.product(*map(range, table.shape)):
            step = np.zeros_like(table)
            step[i, j] = h
            up = infonce_population(table + step, space, M)[0]
            down = infonce_population(table - step, space, M)[0]
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
            F = random_embedding(space.n, 3, seed=M + 1, normalized=normalized)
            engine = _sampled_infonce(_table_indices(batch, space.n), space.n)
            losses, GT = engine(F, coef=True)
            assert abs(np.mean(losses) - infonce_empirical(F, batch)) < 1e-12
            grad = gradient(F, GT, normalized)
            assert np.abs(grad - infonce_gradient(F, batch, tangent=normalized)).max() < 1e-12

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
        rows = objectives._block_rows(n)
        for seed in (1, 2):
            T = unit_table(n, seed)
            # the dense oracle on the engine's row blocks of T T^T and G
            sims = np.vstack([T[r0 : r0 + rows] @ T.T for r0 in range(0, n, rows)])
            want_losses, want_C = dense_sampled_infonce(sims, flat, coef=True)
            G = want_C + want_C.T
            want_GT = np.vstack([G[r0 : r0 + rows] @ T for r0 in range(0, n, rows)])
            losses, GT = engine(T, coef=True)
            assert losses.tobytes() == want_losses.tobytes()
            assert GT.tobytes() == want_GT.tobytes()
            losses, none = engine(T)
            assert losses.tobytes() == want_losses.tobytes() and none is None

    def test_gt_is_fresh_on_every_call(self):
        space = inflated_space(8)
        flat = _table_indices(_sample_batch(space, 2, 2000, 3), space.n)
        engine = _sampled_infonce(flat, space.n)
        T_a, T_b = unit_table(space.n, 3), unit_table(space.n, 4)
        _, GT_a = engine(T_a, coef=True)
        GT_a_bits = GT_a.copy()
        engine(T_b)
        _, GT_b = engine(T_b, coef=True)
        assert GT_b is not GT_a and np.array_equal(GT_a, GT_a_bits)
        assert not np.array_equal(GT_b, GT_a_bits)
        assert np.array_equal(engine(T_a, coef=True)[1], GT_a_bits)

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
            sims = f @ f.T  # one row block: n < 362
            batch = _sample_batch(space, M, cfg.samples, cfg.seed)
            a = batch[:, 0]
            losses = row_major_losses(sims[a, batch[:, 1]], sims[a[:, None], batch[:, 2:]])
            want = (
                float(np.mean(losses)),
                float(np.std(losses, ddof=1) / np.sqrt(cfg.samples)),
                False,
            )
            assert infonce_population(f, space, M, cfg) == want


def split_in_three(monkeypatch, n):
    """Patch the block constant so F F^T of n rows reads in at least three row blocks."""
    monkeypatch.setattr(objectives, "_BLOCK_CELLS", n // 3 * n)
    assert len(range(0, n, objectives._block_rows(n))) >= 3


BLOCK_SPACES = {"reference": reference_space, "inflated8": lambda: inflated_space(8)}


class TestBlockReader:
    """F F^T read in row blocks, against F @ F.T and the dense per-call oracles.

    A block of some rows is a gemm, whose cells can differ from F @ F.T's
    syrk in the last place; unit rows keep every similarity within [-1, 1],
    so each value below is held to the oracle's within 1e-14 (losses,
    estimates and errors) or 1e-13 relative to |G| |T| (the gradient G T).
    """

    @pytest.mark.parametrize("n", [54, 477])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_one_block_is_the_full_product(self, n, k):
        # reference's bytes rest on numpy sending a full-row slice down
        # F @ F.T's BLAS route
        F = random_embedding(n, k, seed=k)
        (r0, S), = objectives._similarity_blocks(F, n)
        assert r0 == 0 and S.tobytes() == (F @ F.T).tobytes()

    @pytest.mark.parametrize("rows", [1, 100, 273, 477])
    def test_blocks_tile_the_product(self, rows):
        F = random_embedding(477, 3, seed=2)
        blocks = [(r0, S.copy()) for r0, S in objectives._similarity_blocks(F, rows)]
        assert [r0 for r0, _ in blocks] == list(range(0, 477, rows))
        assert np.abs(np.vstack([S for _, S in blocks]) - F @ F.T).max() <= 1e-15

    def test_the_block_constant_sets_the_rows(self):
        assert objectives._block_rows(54) == 2**17 // 54 > 54  # one block
        assert objectives._block_rows(477) == 274  # two blocks
        assert objectives._block_rows(2**18) == 1

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("M", [1, 2])
    @pytest.mark.parametrize("which", sorted(BLOCK_SPACES))
    def test_sampled_engine_matches_dense_oracle(self, monkeypatch, which, M, k):
        space = BLOCK_SPACES[which]()
        n = space.n
        split_in_three(monkeypatch, n)
        flat = _table_indices(_sample_batch(space, M, 2000, seed=M), n)
        T = unit_table(n, 5, k)
        want_losses, want_C = dense_sampled_infonce(T @ T.T, flat, coef=True)
        G = want_C + want_C.T
        losses, GT = _sampled_infonce(flat, n)(T, coef=True)
        assert np.abs(losses - want_losses).max() <= 1e-14
        assert np.abs(GT - G @ T).max() <= 1e-13 * (np.abs(G) @ np.abs(T)).max()

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("M", [1, 2])
    @pytest.mark.parametrize("which", sorted(BLOCK_SPACES))
    def test_population_and_lse_match_dense_oracles(self, monkeypatch, which, M, k):
        space = BLOCK_SPACES[which]()
        split_in_three(monkeypatch, space.n)
        cfg = McConfig(samples=4000, seed=M, n_max=1)
        F = unit_table(space.n, 7, k)
        flat = _table_indices(_sample_batch(space, M, cfg.samples, cfg.seed), space.n)
        losses, _ = dense_sampled_infonce(F @ F.T, flat)
        mean, se, exact = infonce_population(F, space, M, cfg)
        assert not exact
        assert abs(mean - np.mean(losses)) <= 1e-14
        assert abs(se - np.std(losses, ddof=1) / np.sqrt(cfg.samples)) <= 1e-14
        got = lse_approx_error(F, space, M, 8, 3)
        want = dense_lse_approx_error(F @ F.T, space, M, 8, 3)
        assert np.abs(np.subtract(got, want)).max() <= 1e-14

    @pytest.mark.parametrize("M", [1, 2, 9])
    def test_one_block_lse_keeps_dense_bits(self, M):
        # n <= 362 reads F F^T in one block, so nothing moves there; the
        # replicates' (n, M) negatives, gathered as one stack, reduce row by row
        for space in (reference_space(), inflated_space(4)):
            F = unit_table(space.n, 4)
            want = dense_lse_approx_error(F @ F.T, space, M, 8, 3)
            assert lse_approx_error(F, space, M, 8, 3) == want

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("M", [1, 2])
    def test_exact_engine_keeps_per_call_bits(self, monkeypatch, M, k):
        # the exact engine forms T T^T in its own buffer, whatever the block constant
        space = reference_space()
        split_in_three(monkeypatch, space.n)
        T = unit_table(space.n, 9, k)
        loss, GT = _exact_infonce(space, M)(T, coef=True)
        want_loss, want_GT = per_call_exact_infonce(T, space, M, coef=True)
        assert loss == want_loss and GT.tobytes() == want_GT.tobytes()


class TestSimilarityMemory:
    """On the 8x inflated space (n = 477, two row blocks) no reader of F F^T forms it.

    tracemalloc's peak bounds every single allocation, so a peak under
    n^2 * 8 bytes shows that none is an n x n table of doubles.  Batches of
    2000 samples keep the batch's own arrays (each under n^2 * 8 bytes at
    any size) from filling that budget.
    """

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def space(self):
        space = inflated_space(8)
        space.support, space.pair_cdf, space.marginal_cdf  # cached, as a run does
        return space

    @pytest.mark.parametrize("M", [1, 2])
    def test_monte_carlo_descent(self, space, M):
        cfg = McConfig(samples=2000)
        peak = self.peak(lambda: train_free_embeddings(space, 3, "infonce", 5, 1.0, 0, M, cfg))
        assert peak < space.n * space.n * 8

    @pytest.mark.parametrize("M", [1, 2])
    def test_population_estimate_and_lse_error(self, space, M):
        F = unit_table(space.n, 1)
        assert self.peak(lambda: infonce_population(F, space, M, McConfig(samples=2000))) < (
            space.n * space.n * 8
        )
        assert self.peak(lambda: lse_approx_error(F, space, M, 8, 0)) < space.n * space.n * 8


class JointlessSpace(AugmentedSpace):
    """An AugmentedSpace whose joint fails when read."""

    def __getattribute__(self, name):
        if name == "joint":
            raise AssertionError("joint read")
        return super().__getattribute__(name)


class TestSpectralLoss:
    def test_zero_embedding(self):
        space = toy_space()
        assert spectral_loss(np.zeros((3, 2)), space) == 0.0

    def test_toy_closed_form_value(self):
        # minimizer value -sum_i (1 - lambda_i)^2 = -(1 + 1/4) on the toy graph
        space = toy_space()
        f = TOY_SPECTRAL_F
        assert abs(spectral_loss(f, space) + 1.25) < 1e-12

    def test_embedding_beats_random(self):
        w = reference_world()
        staged = stage_graph(w, reference_transforms(w))
        space = staged.space
        k = 4
        table = spectral_embedding(staged, k)
        best = spectral_loss(table, space)
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
            got = spectral_loss(F, space)
            assert abs(got - want) < 1e-12

    def test_gradient_matches_formula(self):
        # -4 cond^T diag(w) cond F + 4 diag(p) F G, each product recomputed
        # from F; the dense -4 joint F gives it to 1e-15 of its largest entry
        space = inflated_space(8)
        F = gaussian_matrix(space.n, 3, 7)
        pF = space.marginal[:, None] * F
        negative = 4.0 * pF @ (F.T @ pF)
        want = -4.0 * (space.cond.T @ (space.weights[:, None] * (space.cond @ F))) + negative
        _, grad = objectives._spectral_terms(F, space)
        assert grad.tobytes() == want.tobytes()
        dense = -4.0 * (space.joint @ F) + negative
        assert np.max(np.abs(grad - dense)) <= 1e-15 * np.max(np.abs(dense))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("factor", [1, 8])
    def test_training_follows_n_by_n_loop(self, factor, k, seed):
        # the backtracking descent written out: bit for bit on the products
        # through cond, and to 1e-11 on the loss summed over the n x n joint
        # (its rounding drifts the tables apart, by 3.4e-12 at most here)
        space = reference_space() if factor == 1 else inflated_space(factor)
        steps, step_size = 30, 1.0
        p, J = space.marginal[:, None], space.joint
        C, w = space.cond, space.weights[:, None]

        def factored(F):
            H, G = C @ F, F.T @ (p * F)
            loss = -2.0 * float(np.sum(H * (w * H))) + float(np.sum(G * G))
            return loss, -4.0 * (C.T @ (w * H)) + 4.0 * (p * F) @ G

        def dense(F):
            G = F.T @ (p * F)
            loss = -2.0 * float(np.sum(J * (F @ F.T))) + float(np.sum(G * G))
            return loss, -4.0 * (J @ F) + 4.0 * (p * F) @ G

        def descend(terms):
            table = 0.5 * gaussian_matrix(space.n, k, seed)
            (current, g), eta = terms(table), step_size
            for _ in range(steps):
                for _try in range(40):
                    cand = table - eta * g
                    cand_loss, cand_g = terms(cand)
                    if cand_loss <= current + 1e-15:
                        table, current, g = cand, cand_loss, cand_g
                        eta = min(eta * 1.1, step_size * 10)
                        break
                    eta *= 0.5
                else:
                    break
            return table

        got = train_free_embeddings(space, k, "spectral", steps, step_size, seed=seed)
        assert got.tobytes() == descend(factored).tobytes()
        assert np.max(np.abs(got - descend(dense))) <= 1e-11

    def test_spectral_path_reads_no_joint(self):
        # the loss and the descent read the joint through cond and weights only
        for space in (reference_space(), inflated_space(8)):
            jointless = JointlessSpace(**{f.name: getattr(space, f.name) for f in fields(space)})
            f = gaussian_matrix(space.n, 3, 7)
            assert spectral_loss(f, jointless) == spectral_loss(f, space)
            got = train_free_embeddings(jointless, 3, "spectral", 30, 1.0, seed=0)
            want = train_free_embeddings(space, 3, "spectral", 30, 1.0, seed=0)
            assert got.tobytes() == want.tobytes()


class TestTraining:
    def test_zero_steps_returns_init(self):
        space = toy_space()
        a = train_free_embeddings(space, 2, "infonce", 0, 0.5, seed=3)
        b = train_free_embeddings(space, 2, "infonce", 0, 0.5, seed=3)
        assert np.array_equal(a, b)
        assert unit_rows(a)

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
                assert np.array_equal(f1, again)
                exact = train_free_embeddings(space, 2, "infonce", 50, 1.0, seed=seed)
                assert not np.array_equal(f1, exact)
                # the shared sampler draws the trainer's own batch from this seed
                own = McConfig(n_max=1, samples=500, seed=cfg.seed + seed + 1)
                l0, _, _ = infonce_population(f0, space, 1, own)
                l1, _, _ = infonce_population(f1, space, 1, own)
            assert l1 <= l0 + 1e-12
            assert unit_rows(f1)

    @pytest.mark.parametrize("M", [1, 2])
    def test_exact_loss_non_increasing_over_accepted_steps(self, M):
        # training is deterministic, so s steps give the s-th accepted iterate
        space = reference_space() if M == 1 else random_space(8, seed=3)
        losses = [
            infonce_population(
                train_free_embeddings(space, 3, "infonce", s, 1.0, seed=4, M=M),
                space,
                M,
            )[0]
            for s in range(12)
        ]
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    @staticmethod
    def record_evaluations(monkeypatch, builder):
        """Bytes of every table the engines built by objectives.<builder> evaluate."""
        seen = []
        build = getattr(objectives, builder)

        def recording_build(*args, **kwargs):
            engine = build(*args, **kwargs)

            def recording(T, *args, **kwargs):
                seen.append(T.tobytes())
                return engine(T, *args, **kwargs)

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

    @pytest.mark.parametrize("factor, n_max, builder", [
        (1, 60, "_exact_infonce"), (1, 1, "_sampled_infonce"), (8, 60, "_sampled_infonce"),
    ])
    def test_k1_descent_evaluates_once_and_returns_its_init(self, monkeypatch, factor, n_max,
                                                             builder):
        # unit rows at k = 1 are +-1: no tangent space, so the gradient is zero
        space = reference_space() if factor == 1 else inflated_space(factor)
        cfg = McConfig(n_max=n_max, samples=2000)
        init = train_free_embeddings(space, 1, "infonce", 0, 1.0, seed=2, cfg=cfg)
        seen = self.record_evaluations(monkeypatch, builder)
        got = train_free_embeddings(space, 1, "infonce", 30, 1.0, seed=2, cfg=cfg)
        assert len(seen) == 1
        assert got.tobytes() == init.tobytes()

    @pytest.mark.parametrize("steps", [1, 5])
    @pytest.mark.parametrize("state", ["raise", "warn", "ignore"])
    @pytest.mark.parametrize("loss", ["infonce", "spectral"])
    def test_overflowing_step_diverges_in_every_error_state(self, loss, state, steps):
        # a row norm that overflows would retract the row to zeros, whose
        # gradient is zero: the descent would stop there and return them
        with warnings.catch_warnings(), np.errstate(all=state):
            warnings.simplefilter("error")
            with pytest.raises(objectives.DivergenceError, match="loss diverged"):
                train_free_embeddings(toy_space(), 2, loss, steps, 1e300, seed=0)

    def test_sampled_path_reads_g_before_the_next_evaluation(self, monkeypatch):
        # each G T handed out turns NaN when the engine is called again, so a
        # G T read after the next evaluation would poison the descent; the
        # trainer turns G T into its gradient within the evaluation that made
        # it.  The large step makes the line search reject candidates
        space, cfg, steps = inflated_space(8), McConfig(samples=2000), 8
        want = train_free_embeddings(space, 3, "infonce", steps, 1000.0, seed=1, cfg=cfg)
        build = objectives._sampled_infonce
        calls = []

        def poisoning_build(*args):
            engine = build(*args)
            handed = []

            def poisoning(T, coef=False):
                for GT in handed:
                    GT.fill(np.nan)
                losses, GT = engine(T, coef)
                calls.append(coef)
                handed[:] = [] if GT is None else [GT.copy()]
                return losses, (handed[0] if handed else None)

            return poisoning

        monkeypatch.setattr(objectives, "_sampled_infonce", poisoning_build)
        got = train_free_embeddings(space, 3, "infonce", steps, 1000.0, seed=1, cfg=cfg)
        assert len(calls) > steps + 1 and all(calls)
        assert got.tobytes() == want.tobytes()

    def test_sampled_path_follows_batch_oracle(self):
        # the same backtracking descent driven by the public batch functions
        space, k, steps, seed = reference_space(), 3, 20, 2
        cfg = McConfig(n_max=1, samples=3000)
        got = train_free_embeddings(space, k, "infonce", steps, 1.0, seed=seed, cfg=cfg)
        batch = _sample_batch(space, 1, cfg.samples, cfg.seed + seed + 1)
        table = 0.5 * gaussian_matrix(space.n, k, seed)
        table /= np.linalg.norm(table, axis=1, keepdims=True)
        first = current = infonce_empirical(table, batch)
        eta = 1.0
        for _ in range(steps):
            g = infonce_gradient(table, batch, tangent=True)
            for _try in range(40):
                cand = table - eta * g
                cand /= np.linalg.norm(cand, axis=1, keepdims=True)
                cand_loss = infonce_empirical(cand, batch)
                if cand_loss <= current + 1e-15:
                    table, current, eta = cand, cand_loss, min(eta * 1.1, 10.0)
                    break
                eta *= 0.5
            else:
                break
        assert current < first
        assert np.abs(got - table).max() < 1e-13

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
        f = TOY_SPECTRAL_F
        head = mean_head(f, space)
        class_mass = [space.marginal[space.labels == c].sum() for c in range(space.K)]
        assert np.allclose(class_mass, [0.25, 0.75], atol=1e-15)
        assert np.allclose(head[:, 0], [1.0, 1.0], atol=1e-12)
        assert np.allclose(head[:, 1], [1.0, -1.0 / 3.0], atol=1e-12)

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
        assert fit_linear_head([f], restricted, steps=1, step_size=1.0)[0].shape == (3, 3)

    def test_zero_head_risk_is_log_k(self):
        space = toy_space()
        f = constant_embedding(space.n, 2)
        head = np.zeros((2, 2))
        assert abs(ce_risk(f, head, space) - np.log(2)) < 1e-12

    def test_ce_risk_hand_value(self):
        # logits (1, 0) on every node
        space = toy_space()
        f = constant_embedding(space.n, 2)
        head = np.array([[1.0, 0.0], [0.0, 0.0]])
        want = 0.25 * np.log1p(np.exp(-1.0)) + 0.75 * np.log1p(np.exp(1.0))
        assert abs(ce_risk(f, head, space) - want) < 1e-12

    def test_fit_zero_steps(self):
        space = toy_space()
        f = TOY_SPECTRAL_F
        (head,) = fit_linear_head([f], space, steps=0, step_size=1.0)
        assert np.array_equal(head, np.zeros((2, 2)))

    def test_fit_decreases_risk_and_separates(self):
        space = toy_space()
        f = TOY_SPECTRAL_F
        (head,) = fit_linear_head([f], space, steps=400, step_size=2.0)
        assert ce_risk(f, head, space) < np.log(2) - 0.1
        assert classification_error(f, head, space) == 0.0

    def test_l2_shrinks_head(self):
        space = toy_space()
        f = TOY_SPECTRAL_F
        (small,) = fit_linear_head([f], space, steps=200, step_size=0.5, l2=1.0)
        (big,) = fit_linear_head([f], space, steps=200, step_size=0.5, l2=0.0)
        assert np.linalg.norm(small) < np.linalg.norm(big)

    def test_classification_tie_breaks_to_class_zero(self):
        space = toy_space()
        f = constant_embedding(space.n, 2)
        head = np.zeros((2, 2))
        # all-zero logits predict class 0 everywhere; only mass with true
        # label != 0 is wrong
        assert abs(classification_error(f, head, space) - 0.75) < 1e-15
        # predicting class 1 everywhere: the error is the label-0 marginal mass
        always_one = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert abs(classification_error(f, always_one, space) - 0.25) < 1e-15


class TestStackedProbe:
    @pytest.mark.parametrize("n", [13, 54, 477])
    @pytest.mark.parametrize("K", [2, 3, 7, 8, 12])
    def test_each_head_is_its_table_fitted_alone(self, K, n):
        # the class-major descent folds its constants, so it holds the plain
        # per-table descent to 1e-12 of the head's size, and 0 steps to zeros
        space = random_space(n, seed=K * 1000 + n, K=K)
        rng = np.random.default_rng(n + K)
        for k, l2, steps in itertools.product((1, 3, 8), (0.0, 0.5), (0, 1, 300)):
            tables = [rng.normal(size=(n, k)) for _ in range(2)]
            heads = fit_linear_head(
                [t for t in tables], space, steps, 2.0, l2
            )
            assert len(heads) == 2
            for t, head in zip(tables, heads):
                want = fit_alone(t, space, steps, 2.0, l2)
                assert head.shape == want.shape == (k, K) and head.flags.c_contiguous
                if steps == 0:
                    assert np.array_equal(head, np.zeros((k, K))), (k, l2)
                    continue
                err = np.max(np.abs(head - want))
                assert err <= 1e-12 * np.max(np.abs(want)), (k, l2, steps, err)

    @pytest.mark.parametrize("n", [13, 54, 477])
    @pytest.mark.parametrize("K", [2, 3, 8, 12])
    def test_stacking_changes_no_head(self, K, n):
        # bit-equal, not close: every head of a 2- or 3-table call is the
        # head of the call on that table alone
        space = random_space(n, seed=K * 1000 + n + 1, K=K)
        rng = np.random.default_rng(n * K)
        for k, l2, count in itertools.product((1, 3, 8), (0.0, 0.5), (2, 3)):
            fs = [rng.normal(size=(n, k)) for _ in range(count)]
            heads = fit_linear_head(fs, space, 300, 2.0, l2)
            for f, head in zip(fs, heads):
                (alone,) = fit_linear_head([f], space, 300, 2.0, l2)
                assert np.array_equal(head, alone), (k, l2, count)
                assert np.linalg.norm(head) == np.linalg.norm(alone)

    def test_inputs_are_not_mutated(self):
        space = random_space(54, seed=5, K=3)
        before = [space.marginal.copy(), space.labels.copy(), space.joint.copy()]
        tables = [np.random.default_rng(t).normal(size=(54, 3)) for t in range(2)]
        copies = [t.copy() for t in tables]
        fit_linear_head([t for t in tables], space, 50, 2.0, 0.5)
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
            [rng.normal(size=(54, 3)) for _ in range(2)], space, 40, 2.0
        )
        bits = [h.copy() for h in first]
        second = fit_linear_head(
            [rng.normal(size=(54, 3)) for _ in range(2)], space, 40, 2.0
        )
        for head, want in zip(first, bits):
            assert np.array_equal(head, want)
            assert not any(np.shares_memory(head, h) for h in second)
        assert not np.array_equal(first[0], second[0])

    @pytest.mark.parametrize("count", [1, 2])
    def test_divergence_raises(self, count):
        # the first step overflows W; the check after the loop must still see it
        space = toy_space()
        tables = [
            TOY_SPECTRAL_F * 1e10 * (t + 1) for t in range(count)
        ]
        with pytest.raises(RuntimeError, match="diverged"):
            fit_linear_head(tables, space, steps=20, step_size=1e300)
        with pytest.raises(RuntimeError, match="diverged"), np.errstate(all="ignore"):
            fit_alone(tables[0], space, 20, 1e300, 0.0)


    def test_silenced_overflow_does_not_leak(self):
        # the descent silences its own overflow; with warnings as errors the
        # caller still sees only the divergence error
        tables = [TOY_SPECTRAL_F * 1e10]
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
