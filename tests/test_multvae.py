import numpy as np
import pytest

from scenerec.catalog import SimilarityGraph, UserVector
from scenerec.multvae import (
    ADAM_BLOCK,
    PARAM_NAMES,
    TrainingDiverged,
    VaeConfig,
    adam_step,
    init_model,
    input_dropout,
    load_vae_model,
    loss_and_gradients,
    predict,
    rank_candidates_vae,
    rows_to_dense,
    save_vae_model,
    train_multvae,
)
from scenerec.persist import ModelMismatchError


def graph_from_lists(rows):
    return SimilarityGraph.from_rows([sorted(r) for r in rows])


def two_cliques_graph():
    rows = [[j for j in range(5) if j != i] for i in range(5)]
    rows += [[j for j in range(5, 10) if j != i] for i in range(5, 10)]
    return graph_from_lists(rows)


def tiny_model(seed=0, n=6, hidden=5, bottleneck=3, dropout=0.2, kl_weight=0.0):
    config = VaeConfig(n_items=n, hidden=hidden, bottleneck=bottleneck, dropout=dropout, kl_weight=kl_weight, seed=seed)
    return init_model(config, np.random.default_rng(seed))


def finite_difference_grad(model, batch, noise_seed, name, index, h=1e-5):
    param = getattr(model, name)
    original = param[index]
    param[index] = original + h
    loss_plus, _ = loss_and_gradients(model, batch, np.random.default_rng(noise_seed))
    param[index] = original - h
    loss_minus, _ = loss_and_gradients(model, batch, np.random.default_rng(noise_seed))
    param[index] = original
    return (loss_plus - loss_minus) / (2.0 * h)


def assert_gradients_match(model, batch, noise_seed, rel_tol=1e-4):
    _, grads = loss_and_gradients(model, batch, np.random.default_rng(noise_seed))
    for name in PARAM_NAMES:
        analytic = grads[name]
        for index in np.ndindex(analytic.shape):
            numeric = finite_difference_grad(model, batch, noise_seed, name, index)
            scale = max(abs(analytic[index]), abs(numeric), 1e-6)
            assert abs(analytic[index] - numeric) / scale < rel_tol, f"{name}{index}"


def dense_loss_and_gradients(model, batch, rng):
    """Reference forward and backward pass with the encoder products over
    every input column, dense (``x_drop @ w_enc`` and ``x_drop.T @ g``)."""
    cfg = model.config
    b, beta = batch.shape[0], cfg.kl_weight
    x_drop = input_dropout(batch, cfg.dropout, rng)
    h_enc = np.tanh(x_drop @ model.w_enc + model.b_enc)
    mu = h_enc @ model.w_mu + model.b_mu
    logvar = h_enc @ model.w_logvar + model.b_logvar
    sigma = np.exp(0.5 * logvar)
    eps = rng.standard_normal(mu.shape)
    z = mu + sigma * eps
    h_dec = np.tanh(z @ model.w_dec + model.b_dec)
    resid = h_dec @ model.w_out + model.b_out - batch
    kl = np.mean(-0.5 * np.sum(1.0 + logvar - np.square(mu) - np.exp(logvar), axis=1))
    loss = float(np.mean(np.square(resid))) + beta * float(kl)
    g_out = 2.0 * resid / resid.size
    g_h_dec = g_out @ model.w_out.T
    g_a_dec = g_h_dec * (1.0 - np.square(h_dec))
    g_z = g_a_dec @ model.w_dec.T
    g_mu = g_z + (beta / b) * mu
    g_logvar = g_z * eps * 0.5 * sigma + (beta / b) * 0.5 * (np.exp(logvar) - 1.0)
    g_h_enc = g_mu @ model.w_mu.T + g_logvar @ model.w_logvar.T
    g_a_enc = g_h_enc * (1.0 - np.square(h_enc))
    grads = {
        "w_enc": x_drop.T @ g_a_enc,
        "b_enc": g_a_enc.sum(axis=0),
        "w_mu": h_enc.T @ g_mu,
        "b_mu": g_mu.sum(axis=0),
        "w_logvar": h_enc.T @ g_logvar,
        "b_logvar": g_logvar.sum(axis=0),
        "w_dec": z.T @ g_a_dec,
        "b_dec": g_a_dec.sum(axis=0),
        "w_out": h_dec.T @ g_out,
        "b_out": g_out.sum(axis=0),
    }
    return loss, grads


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        model = tiny_model(seed=5, dropout=0.2, kl_weight=0.7)
        batch = (rng.random((3, 6)) < 0.4).astype(float)
        assert_gradients_match(model, batch, noise_seed=123)

    def test_zero_rows_zero_weights_zero_gradients(self):
        for beta in (0.0, 2.5):
            config = VaeConfig(n_items=4, hidden=3, bottleneck=2, dropout=0.0, kl_weight=beta, seed=0)
            model = init_model(config, np.random.default_rng(0))
            for name in PARAM_NAMES:
                getattr(model, name)[...] = 0.0
            loss, grads = loss_and_gradients(model, np.zeros((2, 4)), np.random.default_rng(1))
            assert loss == 0.0
            assert all(np.abs(g).max() == 0.0 for g in grads.values())

    def test_kl_term_disabled_at_beta_zero(self):
        rng = np.random.default_rng(9)
        batch = (rng.random((4, 6)) < 0.5).astype(float)
        base = tiny_model(seed=2, dropout=0.0, kl_weight=0.0)
        weighted = tiny_model(seed=2, dropout=0.0, kl_weight=1.5)
        loss0, _ = loss_and_gradients(base, batch, np.random.default_rng(7))
        loss1, _ = loss_and_gradients(weighted, batch, np.random.default_rng(7))
        # independent KL evaluation from a test-side forward pass
        h = np.tanh(batch @ base.w_enc + base.b_enc)
        mu = h @ base.w_mu + base.b_mu
        logvar = h @ base.w_logvar + base.b_logvar
        kl = np.mean(-0.5 * np.sum(1.0 + logvar - mu**2 - np.exp(logvar), axis=1))
        assert loss1 - loss0 == pytest.approx(1.5 * kl, rel=1e-10)

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_restricted_encoder_matches_dense_reference(self, dropout):
        rng = np.random.default_rng(11)
        model = tiny_model(seed=3, n=12, hidden=7, bottleneck=3, dropout=dropout, kl_weight=0.7)
        batch = (rng.random((5, 12)) < 0.4).astype(float)
        batch[2] = 0.0
        batch[:, 7] = 0.0
        loss, grads = loss_and_gradients(model, batch, np.random.default_rng(123))
        ref_loss, ref_grads = dense_loss_and_gradients(model, batch, np.random.default_rng(123))
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
        for name in PARAM_NAMES:
            np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-12, atol=0, err_msg=name)
        # the same rng seed replays the dropout mask of the first draw
        unused = ~input_dropout(batch, dropout, np.random.default_rng(123)).any(axis=0)
        assert unused[7] and np.all(grads["w_enc"][unused] == 0.0)

    def test_empty_batch_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            loss_and_gradients(model, np.zeros((0, 6)), np.random.default_rng(0))

    def test_dimension_mismatch_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            loss_and_gradients(model, np.zeros((2, 7)), np.random.default_rng(0))

    def test_fixed_rng_makes_loss_deterministic(self):
        model = tiny_model(dropout=0.2)
        batch = np.eye(6)[:3]
        loss_a, grads_a = loss_and_gradients(model, batch, np.random.default_rng(42))
        loss_b, grads_b = loss_and_gradients(model, batch, np.random.default_rng(42))
        assert loss_a == loss_b
        assert all(np.array_equal(grads_a[n], grads_b[n]) for n in PARAM_NAMES)


class TestDropout:
    def test_disabled_at_zero(self):
        x = np.ones((4, 5))
        assert input_dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_survivors_scaled(self):
        x = np.ones((200, 50))
        out = input_dropout(x, 0.2, np.random.default_rng(1))
        kept = out[out != 0]
        assert np.allclose(kept, 1.25)

    def test_zero_rate_near_probability(self):
        x = np.ones(20000)
        out = input_dropout(x, 0.2, np.random.default_rng(2))
        rate = float((out == 0).mean())
        assert abs(rate - 0.2) < 0.02


class TestAdam:
    def test_matches_hand_computed_single_parameter_steps(self):
        p = np.array([1.0])
        m = np.zeros(1)
        v = np.zeros(1)
        p, m, v = adam_step(p, np.array([0.5]), m, v, t=1, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        assert p[0] == pytest.approx(0.900000002, abs=1e-12)
        assert m[0] == pytest.approx(0.05)
        assert v[0] == pytest.approx(0.00025)
        p, m, v = adam_step(p, np.array([0.3]), m, v, t=2, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        assert p[0] == pytest.approx(0.8042509867088761, abs=1e-12)
        assert m[0] == pytest.approx(0.075)
        assert v[0] == pytest.approx(0.00033975)

    def test_in_place_update_matches_textbook_formula(self):
        rng = np.random.default_rng(8)
        lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-8
        param, m, v = rng.standard_normal((6, 5)), np.zeros((6, 5)), np.zeros((6, 5))
        ref_p, ref_m, ref_v = param.copy(), m.copy(), v.copy()
        for t in range(1, 51):
            grad = rng.standard_normal((6, 5))
            ref_m = beta1 * ref_m + (1.0 - beta1) * grad
            ref_v = beta2 * ref_v + (1.0 - beta2) * np.square(grad)
            m_hat = ref_m / (1.0 - beta1**t)
            v_hat = ref_v / (1.0 - beta2**t)
            ref_p = ref_p - lr * m_hat / (np.sqrt(v_hat) + eps)
            out = adam_step(param, grad, m, v, t, lr, beta1, beta2, eps)
            assert out[0] is param and out[1] is m and out[2] is v
        np.testing.assert_allclose(param, ref_p, rtol=1e-12, atol=0)
        np.testing.assert_allclose(m, ref_m, rtol=1e-12, atol=0)
        np.testing.assert_allclose(v, ref_v, rtol=1e-12, atol=0)


def unblocked_adam_step(param, grad, m, v, t, lr, beta1, beta2, eps):
    """The in-place sequence of ``adam_step``, each pass over whole arrays."""
    correction2 = np.sqrt(1.0 - beta2**t)
    step = lr * correction2 / (1.0 - beta1**t)
    m *= beta1
    v *= beta2
    grad *= 1.0 - beta1
    m += grad
    np.square(grad, out=grad)
    grad *= (1.0 - beta2) / (1.0 - beta1) ** 2
    v += grad
    np.sqrt(v, out=grad)
    grad += eps * correction2
    np.divide(m, grad, out=grad)
    grad *= step
    param -= grad


class TestAdamBlocks:
    @pytest.mark.parametrize(
        "shape, transposed",
        [
            ((1000, 100), False),  # several blocks of 327 rows and a ragged last block
            ((2 * ADAM_BLOCK + 123,), False),  # 1-d, longer than one block
            ((3, ADAM_BLOCK + 5), False),  # one row is longer than a block
            ((300, 250), True),  # a transposed view, not contiguous
        ],
    )
    def test_blocked_update_equals_unblocked(self, shape, transposed):
        rng = np.random.default_rng(4)
        arrays = [rng.standard_normal(shape), np.zeros(shape), np.zeros(shape)]
        if transposed:
            arrays = [a.T for a in arrays]
            assert not arrays[0].flags.c_contiguous
        param, m, v = arrays
        base = param.base
        ref_p, ref_m, ref_v = param.copy(), m.copy(), v.copy()
        for t in range(1, 4):
            grad = rng.standard_normal(param.shape)
            unblocked_adam_step(ref_p, grad.copy(), ref_m, ref_v, t, 1e-3, 0.9, 0.999, 1e-8)
            out = adam_step(param, grad, m, v, t, 1e-3, 0.9, 0.999, 1e-8)
            assert out[0] is param and out[1] is m and out[2] is v
        assert np.array_equal(param, ref_p) and np.array_equal(m, ref_m) and np.array_equal(v, ref_v)
        if transposed:
            assert np.array_equal(base.T, ref_p)


class TestTraining:
    def test_two_cliques_learn_block_structure(self):
        graph = two_cliques_graph()
        config = VaeConfig(
            n_items=10, hidden=16, bottleneck=4, dropout=0.2, batch_size=5, epochs=200, learning_rate=1e-2, seed=0
        )
        model, trace = train_multvae(graph, config)
        assert len(trace.train_loss) == 200
        assert trace.train_loss[-1] < trace.train_loss[0]
        scores = np.vstack([predict(model, UserVector(graph.row(i), 10)) for i in range(10)])
        intra = [scores[i, j] for i in range(10) for j in range(10) if i != j and (i < 5) == (j < 5)]
        cross = [scores[i, j] for i in range(10) for j in range(10) if (i < 5) != (j < 5)]
        assert min(intra) > max(cross)

    def test_single_artist_memorization(self):
        graph = graph_from_lists([[]])
        config = VaeConfig(
            n_items=1, hidden=4, bottleneck=2, dropout=0.0, batch_size=1, epochs=400, learning_rate=1e-2, seed=1
        )
        _, trace = train_multvae(graph, config)
        assert trace.train_loss[-1] < 1e-3

    def test_update_steps_per_epoch(self):
        n = 1000
        graph = graph_from_lists([[(i + 1) % n] for i in range(n)])
        config = VaeConfig(n_items=n, hidden=8, bottleneck=4, batch_size=250, epochs=1, seed=0)
        _, trace = train_multvae(graph, config)
        assert trace.updates == 4

    def test_divergence_reports_epoch(self):
        graph = graph_from_lists([[1], [0], [3], [2]])
        config = VaeConfig(
            n_items=4, hidden=4, bottleneck=2, dropout=0.0, batch_size=1, epochs=5,
            learning_rate=1000.0, kl_weight=1.0, seed=0,
        )
        with pytest.raises(TrainingDiverged) as excinfo:
            train_multvae(graph, config)
        assert excinfo.value.epoch == 0

    def test_deterministic_given_seed(self):
        graph = two_cliques_graph()
        config = VaeConfig(n_items=10, hidden=6, bottleneck=2, batch_size=5, epochs=5, seed=9)
        a, _ = train_multvae(graph, config)
        b, _ = train_multvae(graph, config)
        assert all(np.array_equal(getattr(a, n), getattr(b, n)) for n in PARAM_NAMES)

    def test_graph_size_must_match_config(self):
        graph = two_cliques_graph()
        with pytest.raises(ValueError):
            train_multvae(graph, VaeConfig(n_items=9, hidden=4, bottleneck=2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VaeConfig(n_items=5, dropout=1.0)
        with pytest.raises(ValueError):
            VaeConfig(n_items=5, bottleneck=0)
        with pytest.raises(ValueError):
            VaeConfig(n_items=5, batch_size=0)
        with pytest.raises(ValueError):
            VaeConfig(n_items=5, kl_weight=-0.5)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="kl_weight"):
                VaeConfig(n_items=5, kl_weight=bad)
        for bad in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate"):
                VaeConfig(n_items=5, learning_rate=bad)


class TestPredict:
    def test_zero_parameters_give_zero_scores(self):
        model = tiny_model(n=6)
        for name in PARAM_NAMES:
            getattr(model, name)[...] = 0.0
        user = UserVector(np.asarray([0, 3], dtype=np.int64), 6)
        assert np.array_equal(predict(model, user), np.zeros(6))

    def test_inference_is_pure(self):
        model = tiny_model(n=6, dropout=0.5)
        user = UserVector(np.asarray([1], dtype=np.int64), 6)
        a = predict(model, user)
        b = predict(model, user)
        assert np.array_equal(a, b)

    def test_restricted_encoder_matches_dense_reference(self):
        model = tiny_model(seed=6, n=12, hidden=7, bottleneck=3)
        user = UserVector(np.asarray([0, 4, 9], dtype=np.int64), 12)
        x = user.to_dense()
        h_enc = np.tanh(x @ model.w_enc + model.b_enc)
        mu = h_enc @ model.w_mu + model.b_mu
        expected = np.tanh(mu @ model.w_dec + model.b_dec) @ model.w_out + model.b_out
        np.testing.assert_allclose(predict(model, user), expected, rtol=1e-12, atol=0)

    def test_dimension_mismatch(self):
        model = tiny_model(n=6)
        with pytest.raises(ValueError):
            predict(model, UserVector(np.asarray([0], dtype=np.int64), 7))

    def test_trained_cliques_rank_own_clique_on_top(self):
        graph = two_cliques_graph()
        config = VaeConfig(
            n_items=10, hidden=16, bottleneck=4, dropout=0.2, batch_size=5, epochs=200, learning_rate=1e-2, seed=0
        )
        model, _ = train_multvae(graph, config)
        scores = predict(model, UserVector(np.arange(5, dtype=np.int64), 10))
        assert set(np.argsort(-scores)[:5]) == {0, 1, 2, 3, 4}


class TestRanking:
    @pytest.fixture
    def setup(self):
        model = tiny_model(seed=4, n=6)
        user = UserVector(np.asarray([0], dtype=np.int64), 6)
        return model, user

    def test_input_order_is_irrelevant(self, setup):
        model, user = setup
        first = rank_candidates_vae(model, user, [1, 4, 2])
        second = rank_candidates_vae(model, user, [2, 1, 4])
        np.testing.assert_array_equal(second, first[[2, 0, 1]])

    def test_singleton(self, setup):
        model, user = setup
        scores = rank_candidates_vae(model, user, [3])
        assert scores.shape == (1,) and scores[0] == predict(model, user)[3]

    def test_matches_brute_force_sort_of_predict(self, setup):
        model, user = setup
        candidates = [5, 0, 3, 1]
        scores = predict(model, user)
        np.testing.assert_array_equal(rank_candidates_vae(model, user, candidates), [scores[c] for c in candidates])


class TestSerialization:
    def test_round_trip(self, tmp_path):
        graph = two_cliques_graph()
        config = VaeConfig(n_items=10, hidden=6, bottleneck=2, batch_size=5, epochs=3, seed=2)
        model, _ = train_multvae(graph, config, index_hash="deadbeef")
        path = tmp_path / "vae.npz"
        save_vae_model(model, path)
        loaded = load_vae_model(path, expected_index_hash="deadbeef")
        assert loaded.config == model.config
        assert all(np.array_equal(getattr(loaded, n), getattr(model, n)) for n in PARAM_NAMES)

    def test_hash_mismatch_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "vae.npz"
        save_vae_model(model, path)
        with pytest.raises(ModelMismatchError):
            load_vae_model(path, expected_index_hash="nope")


class TestRowsToDense:
    def test_rows_marked(self):
        graph = graph_from_lists([[1, 2], [0], []])
        dense = rows_to_dense(graph, [0, 2])
        assert np.array_equal(dense, np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
