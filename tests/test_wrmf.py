import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenerec import wrmf
from scenerec.catalog import SimilarityGraph, UserVector
from scenerec.persist import ModelMismatchError
from scenerec.wrmf import (
    FactorModel,
    WrmfConfig,
    fold_in_user,
    half_sweep,
    load_factor_model,
    objective,
    rank_candidates,
    save_factor_model,
    solve_row,
    train_wrmf,
)


def graph_from_lists(rows):
    return SimilarityGraph.from_rows([sorted(r) for r in rows])


def random_graph(rng, n, density=0.15):
    rows = []
    for i in range(n):
        row = [j for j in range(n) if j != i and rng.random() < density]
        rows.append(row)
    return graph_from_lists(rows)


def dense_objective(x, y, dense_p, lam, alpha):
    """Straight evaluation of the weighted objective on dense arrays."""
    scores = x @ y.T
    conf = 1.0 + alpha * dense_p
    return float((conf * (dense_p - scores) ** 2).sum() + lam * ((x**2).sum() + (y**2).sum()))


TWO_CLIQUES = graph_from_lists(
    [
        [1, 2],
        [0, 2],
        [0, 1],
        [4, 5],
        [3, 5],
        [3, 4],
    ]
)


class TestObjective:
    def test_zero_factors_empty_graph(self):
        graph = graph_from_lists([[], []])
        model = FactorModel(np.zeros((2, 3)), np.zeros((2, 3)), WrmfConfig(k=3))
        assert objective(model, graph) == 0.0

    def test_zero_factors_counts_confidence_per_edge(self):
        graph = TWO_CLIQUES
        model = FactorModel(np.zeros((6, 2)), np.zeros((6, 2)), WrmfConfig(k=2, alpha=15.0))
        assert objective(model, graph) == pytest.approx(16.0 * graph.edge_count)

    def test_perfect_rank_k_fit_with_zero_lam(self):
        graph = graph_from_lists([[1], [0]])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        y = np.eye(2)
        model = FactorModel(x, y, WrmfConfig(k=2, lam=0.0, alpha=15.0))
        assert objective(model, graph) == pytest.approx(0.0)

    def test_matches_dense_oracle_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 15))
            graph = random_graph(rng, n, 0.3)
            x = rng.standard_normal((n, 4))
            y = rng.standard_normal((n, 4))
            model = FactorModel(x, y, WrmfConfig(k=4, lam=0.3, alpha=7.0))
            expected = dense_objective(x, y, graph.to_dense(), 0.3, 7.0)
            assert objective(model, graph) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        model = FactorModel(np.zeros((2, 2)), np.zeros((2, 2)), WrmfConfig(k=2))
        with pytest.raises(ValueError):
            objective(model, graph_from_lists([[], [], []]))


class TestTraining:
    def test_all_zero_graph_drives_factors_to_zero(self):
        graph = graph_from_lists([[], [], []])
        model = train_wrmf(graph, WrmfConfig(k=2, lam=0.5, sweeps=2, seed=1))
        assert np.abs(model.row_factors).max() == 0.0
        assert np.abs(model.col_factors).max() == 0.0
        assert model.objective_trace[-1] == pytest.approx(0.0)

    def test_two_cliques_score_intra_above_cross(self):
        model = train_wrmf(TWO_CLIQUES, WrmfConfig(k=2, lam=0.1, alpha=15.0, sweeps=20, seed=3))
        scores = model.row_factors @ model.col_factors.T
        intra = [scores[i, j] for i in range(6) for j in range(6) if i != j and (i < 3) == (j < 3)]
        cross = [scores[i, j] for i in range(6) for j in range(6) if (i < 3) != (j < 3)]
        assert min(intra) > max(cross)

    def test_als_reaches_local_optimum_on_small_instance(self):
        """scipy started from the ALS solution cannot materially improve the
        objective, and ALS beats random restarts."""
        from scipy.optimize import minimize

        graph = TWO_CLIQUES
        # alternating minimization zigzags on this symmetric instance, so it
        # needs many (cheap) sweeps to settle at the optimum
        config = WrmfConfig(k=2, lam=0.1, alpha=15.0, sweeps=1000, seed=5)
        model = train_wrmf(graph, config)
        dense_p = graph.to_dense()
        n, k = 6, 2

        def flat_obj(theta):
            x = theta[: n * k].reshape(n, k)
            y = theta[n * k :].reshape(n, k)
            return dense_objective(x, y, dense_p, config.lam, config.alpha)

        als_value = objective(model, graph)
        start = np.concatenate([model.row_factors.ravel(), model.col_factors.ravel()])
        polished = minimize(flat_obj, start, method="L-BFGS-B", options={"maxiter": 500})
        assert als_value <= polished.fun + 1e-6

        rng = np.random.default_rng(0)
        random_best = min(
            minimize(flat_obj, rng.standard_normal(2 * n * k), method="L-BFGS-B", options={"maxiter": 500}).fun
            for _ in range(3)
        )
        assert als_value <= random_best + 1e-6

    def test_objective_non_increasing_across_half_sweeps(self):
        rng = np.random.default_rng(11)
        graph = random_graph(rng, 50, 0.1)
        model = train_wrmf(graph, WrmfConfig(k=6, lam=0.2, alpha=15.0, sweeps=8, seed=2))
        trace = model.objective_trace
        assert len(trace) == 1 + 2 * 8
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-9 * abs(a)

    def test_rising_objective_is_an_error(self):
        # alpha = 1e308 overflows the solves while the factors stay finite;
        # the objective then rises from one half-sweep to the next
        graph = graph_from_lists([[1], [0], [3], [2]])
        with pytest.raises(FloatingPointError, match="objective rose .* in sweep 0"):
            train_wrmf(graph, WrmfConfig(k=2, alpha=1e308, sweeps=3))

    def test_row_update_is_stationary_point(self):
        rng = np.random.default_rng(21)
        graph = random_graph(rng, 20, 0.2)
        config = WrmfConfig(k=4, lam=0.3, alpha=10.0, sweeps=3, seed=4)
        model = train_wrmf(graph, config)
        x = model.row_factors.copy()
        y = model.col_factors
        half_sweep(graph, x, y, config.lam, config.alpha)
        # gradient wrt row i: 2[(Y^T C_i Y + lam I) x_i - Y^T C_i p_i]
        for i in range(graph.n):
            obs = graph.row(i)
            p = np.zeros(graph.n)
            p[obs] = 1.0
            conf = 1.0 + config.alpha * p
            a = y.T @ (conf[:, None] * y) + config.lam * np.eye(config.k)
            b = y.T @ (conf * p)
            grad = 2.0 * (a @ x[i] - b)
            assert np.linalg.norm(grad) <= 1e-8 * max(1.0, np.linalg.norm(b))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        graph = random_graph(rng, 25, 0.2)
        config = WrmfConfig(k=5, sweeps=4, seed=77)
        a = train_wrmf(graph, config)
        b = train_wrmf(graph, config)
        assert np.array_equal(a.row_factors, b.row_factors)
        assert np.array_equal(a.col_factors, b.col_factors)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            train_wrmf(graph_from_lists([]), WrmfConfig(k=2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WrmfConfig(k=0)
        with pytest.raises(ValueError):
            WrmfConfig(lam=-0.1)
        with pytest.raises(ValueError):
            WrmfConfig(sweeps=0)
        for field in ("lam", "alpha"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match="finite"):
                    WrmfConfig(**{field: bad})


class TestFoldIn:
    def test_identity_factors_closed_form(self):
        # Y = I (k = n = 3), alpha 15, lam 0.1, single seed j=1:
        # u_j = (1 + alpha) / (1 + alpha + lam) = 16/16.1, others 0
        y = np.eye(3)
        model = FactorModel(np.zeros((3, 3)), y, WrmfConfig(k=3, lam=0.1, alpha=15.0))
        user = UserVector(np.asarray([1], dtype=np.int64), 3)
        u = fold_in_user(model, user)
        assert u[1] == pytest.approx(16.0 / 16.1, rel=1e-12)
        assert u[0] == pytest.approx(0.0, abs=1e-15)
        assert u[2] == pytest.approx(0.0, abs=1e-15)

    def test_empty_seed_rejected(self):
        model = FactorModel(np.zeros((3, 2)), np.zeros((3, 2)), WrmfConfig(k=2))
        with pytest.raises(ValueError, match="seed"):
            fold_in_user(model, UserVector(np.asarray([], dtype=np.int64), 3))

    def test_fold_in_equals_row_update_code_path(self):
        rng = np.random.default_rng(31)
        graph = random_graph(rng, 15, 0.25)
        config = WrmfConfig(k=4, lam=0.2, alpha=15.0, sweeps=3, seed=9)
        model = train_wrmf(graph, config)
        x = model.row_factors.copy()
        half_sweep(graph, x, model.col_factors, config.lam, config.alpha)
        for i in range(graph.n):
            obs = graph.row(i)
            if obs.size == 0:
                continue
            user = UserVector(obs, graph.n)
            assert np.allclose(fold_in_user(model, user), x[i], rtol=1e-12, atol=1e-14)

    def test_matches_dense_ridge_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            n = int(rng.integers(2, 21))
            k = int(rng.integers(1, 6))
            y = rng.standard_normal((n, k))
            model = FactorModel(np.zeros((n, k)), y, WrmfConfig(k=k, lam=0.4, alpha=15.0))
            size = int(rng.integers(1, n + 1))
            seeds = np.sort(rng.choice(n, size=size, replace=False)).astype(np.int64)
            user = UserVector(seeds, n)
            p = user.to_dense()
            conf = np.diag(1.0 + 15.0 * p)
            expected = np.linalg.solve(y.T @ conf @ y + 0.4 * np.eye(k), y.T @ conf @ p)
            assert np.abs(fold_in_user(model, user) - expected).max() < 1e-10


class TestRanking:
    def test_matching_candidate_ranks_first(self):
        y = np.eye(3)
        model = FactorModel(np.zeros((3, 3)), y, WrmfConfig(k=3))
        scores = rank_candidates(model, y[2], [0, 1, 2])
        assert int(np.argmax(scores)) == 2 and scores[2] == pytest.approx(1.0)

    def test_matches_brute_force_dot_products(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((3, 4))
        user = rng.standard_normal(4)
        model = FactorModel(np.zeros((3, 4)), y, WrmfConfig(k=4))
        scores = rank_candidates(model, user, [2, 0, 1])
        np.testing.assert_allclose(scores, [y[2] @ user, y[0] @ user, y[1] @ user], rtol=1e-12)

    def test_eighty_candidates_match_independent_scoring(self):
        rng = np.random.default_rng(17)
        y = rng.standard_normal((100, 8))
        user = rng.standard_normal(8)
        model = FactorModel(np.zeros((100, 8)), y, WrmfConfig(k=8))
        candidates = rng.permutation(100)[:80]
        scores = rank_candidates(model, user, candidates)
        by_hand = [sum(float(y[c, d]) * float(user[d]) for d in range(8)) for c in candidates]
        np.testing.assert_allclose(scores, by_hand, rtol=1e-12, atol=1e-12)

    @given(st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_ranking_is_permutation_with_finite_scores(self, seed):
        rng = np.random.default_rng(seed)
        model = FactorModel(np.zeros((8, 3)), rng.standard_normal((8, 3)), WrmfConfig(k=3))
        candidates = rng.permutation(8)[:5]
        user = rng.standard_normal(3)
        scores = rank_candidates(model, user, candidates)
        assert scores.shape == (5,) and np.isfinite(scores).all()
        np.testing.assert_allclose(scores, [model.col_factors[c] @ user for c in candidates], rtol=1e-12, atol=1e-15)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        graph = TWO_CLIQUES
        model = train_wrmf(graph, WrmfConfig(k=2, sweeps=2, seed=1), index_hash="abc123")
        path = tmp_path / "model.npz"
        save_factor_model(model, path)
        loaded = load_factor_model(path, expected_index_hash="abc123")
        assert np.array_equal(loaded.row_factors, model.row_factors)
        assert np.array_equal(loaded.col_factors, model.col_factors)
        assert loaded.config == model.config
        assert loaded.objective_trace == model.objective_trace

    def test_hash_mismatch_rejected(self, tmp_path):
        model = train_wrmf(TWO_CLIQUES, WrmfConfig(k=2, sweeps=1, seed=1), index_hash="abc")
        path = tmp_path / "model.npz"
        save_factor_model(model, path)
        with pytest.raises(ModelMismatchError):
            load_factor_model(path, expected_index_hash="other")


def mixed_degree_rows(rng, n, k):
    """Rows of every kind ``half_sweep`` tells apart: degree 0, degree 1,
    several rows of each degree in 2..k-1, and degree >= k."""
    degrees = np.concatenate([[0, 0, 0, 1, 1], rng.integers(2, k, n - 11), rng.integers(k, 2 * k, 6)])
    rng.shuffle(degrees)
    return tuple(
        np.sort(rng.choice(np.delete(np.arange(n), i), size=int(d), replace=False)).astype(np.int64)
        for i, d in enumerate(degrees)
    )


class TestHalfSweep:
    @pytest.mark.parametrize("lam, alpha", [(0.1, 15.0), (0.3, 0.0), (0.0, 15.0)])
    @pytest.mark.parametrize("block_bytes", [None, 4000])
    def test_matches_per_row_solve_reference(self, lam, alpha, block_bytes, monkeypatch):
        if block_bytes is not None:
            # small blocks split each degree group into several stacked solves
            monkeypatch.setattr(wrmf, "BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(17)
        n, k = 60, 8
        rows = mixed_degree_rows(rng, n, k)
        other = rng.standard_normal((n, k))
        this = rng.standard_normal((n, k))
        gram_reg = other.T @ other + lam * np.eye(k)
        expected = np.stack([solve_row(obs, other, gram_reg, alpha) for obs in rows])
        half_sweep(SimilarityGraph.from_rows(rows), this, other, lam, alpha)
        np.testing.assert_allclose(this, expected, rtol=1e-10, atol=1e-12)
        assert all(not this[i].any() for i, obs in enumerate(rows) if obs.size == 0)

    def test_alpha_zero_trains_monotone(self):
        rng = np.random.default_rng(5)
        graph = SimilarityGraph.from_rows(mixed_degree_rows(rng, 40, 6))
        trace = train_wrmf(graph, WrmfConfig(k=6, lam=0.3, alpha=0.0, sweeps=4, seed=1)).objective_trace
        assert all(np.isfinite(trace))
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-9 * abs(a)


class TestSolveRow:
    def test_unobserved_row_is_exact_zero(self):
        y = np.random.default_rng(1).standard_normal((5, 3))
        gram = y.T @ y + 0.1 * np.eye(3)
        assert np.array_equal(solve_row(np.asarray([], dtype=np.int64), y, gram, 15.0), np.zeros(3))
