import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenerec import multvae
from scenerec.catalog import UserVector
from scenerec.multvae import (
    ADAM_BLOCK,
    PARAM_NAMES,
    TrainTrace,
    VaeConfig,
    adam_step,
    init_model,
    input_dropout,
    load_vae_model,
    loss_and_gradients,
    output_rows,
    predict,
    rank_candidates_vae,
    rows_to_dense,
    save_vae_model,
    train_multvae,
)
from scenerec.persist import ModelMismatchError
from scenerec.synth import SynthConfig, generate_catalog
from tests.conftest import dense_user, float64_copy, graph_from_lists


def two_cliques_graph():
    rows = [[j for j in range(5) if j != i] for i in range(5)]
    rows += [[j for j in range(5, 10) if j != i] for i in range(5, 10)]
    return graph_from_lists(rows)


def tiny_model(seed=0, n=6, hidden=5, bottleneck=3, dropout=0.2, kl_weight=0.0):
    config = VaeConfig(n_items=n, hidden=hidden, bottleneck=bottleneck, dropout=dropout, kl_weight=kl_weight, seed=seed)
    return init_model(config, np.random.default_rng(seed))


def coords(batch):
    """A dense binary batch as ``loss_and_gradients`` takes it: the
    coordinates of its ones and its shape."""
    rows, cols = np.nonzero(batch)
    return rows, cols, batch.shape


def gradients(model, batch, rng):
    """``loss_and_gradients`` on a dense binary batch, with the row-sparse
    ``w_enc`` gradient written into a zero-filled full-size array."""
    loss, grads, enc_rows = loss_and_gradients(model, *coords(batch), rng)
    g_w_enc = np.zeros_like(model.w_enc)
    g_w_enc[enc_rows] = grads["w_enc"]
    return loss, {**grads, "w_enc": g_w_enc}


def dropped(x, p, rng):
    """``input_dropout`` of an all-binary array, written back densely."""
    rows, cols, shape = coords(np.atleast_2d(x))
    kept_rows, kept_cols, value = input_dropout(rows, cols, shape, p, rng)
    out = np.zeros(shape)
    out[kept_rows, kept_cols] = value
    return out.reshape(x.shape)


def dense_dropout(x, p, rng):
    """Input dropout on a dense batch: one uniform per cell."""
    if p == 0.0:
        return x
    keep = rng.random(x.shape) >= p
    return x * keep / (1.0 - p)


def finite_difference_grad(model, batch, noise_seed, name, index, h=1e-5):
    param = getattr(model, name)
    original = param[index]
    param[index] = original + h
    loss_plus, *_ = loss_and_gradients(model, *coords(batch), np.random.default_rng(noise_seed))
    param[index] = original - h
    loss_minus, *_ = loss_and_gradients(model, *coords(batch), np.random.default_rng(noise_seed))
    param[index] = original
    return (loss_plus - loss_minus) / (2.0 * h)


def assert_gradients_match(model, batch, noise_seed, rel_tol=1e-4):
    _, grads = gradients(model, batch, np.random.default_rng(noise_seed))
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
    x_drop = dense_dropout(batch, cfg.dropout, rng)
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


def reference_loss_and_gradients(model, batch, rng):
    """The training step on a dense batch in the model's dtype: dense
    dropout, ``x_drop[:, used]`` and a zero-filled full-size ``w_enc``
    gradient, with the same BLAS calls as ``loss_and_gradients``."""
    cfg = model.config
    b = batch.shape[0]
    beta = cfg.kl_weight
    x_drop = dense_dropout(batch, cfg.dropout, rng)
    used = np.flatnonzero(x_drop.any(axis=0))
    x_used = x_drop[:, used]
    h_enc = np.tanh(x_used @ model.w_enc[used] + model.b_enc)
    mu = h_enc @ model.w_mu + model.b_mu
    logvar = h_enc @ model.w_logvar + model.b_logvar
    sigma = np.exp(0.5 * logvar)
    eps = rng.standard_normal(mu.shape).astype(mu.dtype)
    z = mu + sigma * eps
    h_dec = np.tanh(z @ model.w_dec + model.b_dec)
    resid = h_dec @ model.w_out
    resid += model.b_out
    resid -= batch
    loss = float(np.mean(np.square(resid)))
    loss += beta * float(np.mean(-0.5 * np.sum(1.0 + logvar - np.square(mu) - np.exp(logvar), axis=1)))
    g_out = resid
    g_out *= 2.0
    g_out /= resid.size
    g_a_dec = (g_out @ model.w_out.T) * (1.0 - np.square(h_dec))
    g_z = g_a_dec @ model.w_dec.T
    g_mu = g_z + (beta / b) * mu
    g_logvar = g_z * eps * 0.5 * sigma + (beta / b) * 0.5 * (np.exp(logvar) - 1.0)
    g_a_enc = (g_mu @ model.w_mu.T + g_logvar @ model.w_logvar.T) * (1.0 - np.square(h_enc))
    g_w_enc = np.zeros_like(model.w_enc)
    g_w_enc[used] = x_used.T @ g_a_enc
    grads = {
        "w_enc": g_w_enc,
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


def reference_train(graph, config):
    """``train_multvae``'s loop over float32 dense batches (``rows_to_dense``)
    with ``reference_loss_and_gradients`` and a dense ``adam_step`` call for
    every parameter."""
    rng = np.random.default_rng(config.seed)
    model = init_model(config, rng)
    adam_m = {name: np.zeros_like(p) for name, p in model.params().items()}
    adam_v = {name: np.zeros_like(p) for name, p in model.params().items()}
    train_losses, updates = [], 0
    for _ in range(config.epochs):
        order = rng.permutation(graph.n)
        epoch_loss = 0.0
        for start in range(0, graph.n, config.batch_size):
            chunk = order[start : start + config.batch_size]
            batch = rows_to_dense(graph, chunk).astype(np.float32)
            loss, grads = reference_loss_and_gradients(model, batch, rng)
            updates += 1
            for name, param in model.params().items():
                adam_step(
                    param, grads[name], adam_m[name], adam_v[name], updates,
                    config.learning_rate, config.adam_beta1, config.adam_beta2, config.adam_eps,
                )
            epoch_loss += loss * len(chunk)
        train_losses.append(epoch_loss / graph.n)
    return model, TrainTrace(tuple(train_losses), updates)


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        model = float64_copy(tiny_model(seed=5, dropout=0.2, kl_weight=0.7))
        batch = (rng.random((3, 6)) < 0.4).astype(float)
        assert_gradients_match(model, batch, noise_seed=123)

    def test_zero_rows_zero_weights_zero_gradients(self):
        for beta in (0.0, 2.5):
            config = VaeConfig(n_items=4, hidden=3, bottleneck=2, dropout=0.0, kl_weight=beta, seed=0)
            model = init_model(config, np.random.default_rng(0))
            for name in PARAM_NAMES:
                getattr(model, name)[...] = 0.0
            loss, grads = gradients(model, np.zeros((2, 4)), np.random.default_rng(1))
            assert loss == 0.0
            assert all(np.abs(g).max() == 0.0 for g in grads.values())

    def test_kl_term_disabled_at_beta_zero(self):
        rng = np.random.default_rng(9)
        batch = (rng.random((4, 6)) < 0.5).astype(float)
        base = float64_copy(tiny_model(seed=2, dropout=0.0, kl_weight=0.0))
        weighted = float64_copy(tiny_model(seed=2, dropout=0.0, kl_weight=1.5))
        loss0, _ = gradients(base, batch, np.random.default_rng(7))
        loss1, _ = gradients(weighted, batch, np.random.default_rng(7))
        # independent KL evaluation from a test-side forward pass
        h = np.tanh(batch @ base.w_enc + base.b_enc)
        mu = h @ base.w_mu + base.b_mu
        logvar = h @ base.w_logvar + base.b_logvar
        kl = np.mean(-0.5 * np.sum(1.0 + logvar - mu**2 - np.exp(logvar), axis=1))
        assert loss1 - loss0 == pytest.approx(1.5 * kl, rel=1e-10)

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_restricted_encoder_matches_dense_reference(self, dropout):
        rng = np.random.default_rng(11)
        model = float64_copy(tiny_model(seed=3, n=12, hidden=7, bottleneck=3, dropout=dropout, kl_weight=0.7))
        batch = (rng.random((5, 12)) < 0.4).astype(float)
        batch[2] = 0.0
        batch[:, 7] = 0.0
        loss, grads = gradients(model, batch, np.random.default_rng(123))
        ref_loss, ref_grads = dense_loss_and_gradients(model, batch, np.random.default_rng(123))
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
        for name in PARAM_NAMES:
            np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-12, atol=0, err_msg=name)
        # the same rng seed replays the dropout mask of the first draw
        unused = ~dropped(batch, dropout, np.random.default_rng(123)).any(axis=0)
        assert unused[7] and np.all(grads["w_enc"][unused] == 0.0)

    def test_empty_batch_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            loss_and_gradients(model, *coords(np.zeros((0, 6))), np.random.default_rng(0))

    def test_dimension_mismatch_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            loss_and_gradients(model, *coords(np.zeros((2, 7))), np.random.default_rng(0))

    def test_fixed_rng_makes_loss_deterministic(self):
        model = tiny_model(dropout=0.2)
        batch = np.eye(6)[:3]
        loss_a, grads_a = gradients(model, batch, np.random.default_rng(42))
        loss_b, grads_b = gradients(model, batch, np.random.default_rng(42))
        assert loss_a == loss_b
        assert all(np.array_equal(grads_a[n], grads_b[n]) for n in PARAM_NAMES)


class TestDropout:
    def test_disabled_at_zero(self):
        rows, cols, shape = coords(np.ones((4, 5)))
        rng = np.random.default_rng(0)
        kept_rows, kept_cols, value = input_dropout(rows, cols, shape, 0.0, rng)
        assert kept_rows is rows and kept_cols is cols and value == 1.0
        # nothing is drawn
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_survivors_scaled(self):
        x = np.ones((200, 50))
        out = dropped(x, 0.2, np.random.default_rng(1))
        kept = out[out != 0]
        assert np.allclose(kept, 1.25)

    def test_zero_rate_near_probability(self):
        x = np.ones(20000)
        out = dropped(x, 0.2, np.random.default_rng(2))
        rate = float((out == 0).mean())
        assert abs(rate - 0.2) < 0.02

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5])
    def test_equals_dense_dropout_and_leaves_the_same_rng_state(self, p):
        batch = (np.random.default_rng(3).random((7, 30)) < 0.3).astype(float)
        batch[4] = 0.0
        rng, dense_rng = np.random.default_rng(9), np.random.default_rng(9)
        assert np.array_equal(dropped(batch, p, rng), dense_dropout(batch, p, dense_rng))
        assert rng.random() == dense_rng.random()


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
    """The in-place sequence of ``adam_step``, each pass over whole arrays,
    with Python-float scalars so that float32 arrays stay float32."""
    correction2 = math.sqrt(1.0 - beta2**t)
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


class TestRowSparseAdam:
    # (400, 600) cuts into blocks of 109, 109, 109 and 73 rows
    @pytest.mark.parametrize(
        "shape, rows",
        [
            ((400, 600), [0, 3, 399]),  # the first and last blocks; the middle two have no rows
            ((400, 600), [108, 109, 217, 218]),  # rows on both sides of a block boundary
            ((400, 600), []),
            ((400, 600), list(range(400))),
            ((3, ADAM_BLOCK + 5), [1]),  # one row is longer than a block
            ((5,), [0, 4]),
        ],
    )
    def test_equals_dense_call_on_zero_filled_gradient(self, shape, rows):
        rows = np.asarray(rows, dtype=np.int64)
        for dtype in (np.float64, np.float32):
            rng = np.random.default_rng(6)
            param, m, v = rng.standard_normal(shape).astype(dtype), np.zeros(shape, dtype), np.zeros(shape, dtype)
            ref_p, ref_m, ref_v = param.copy(), m.copy(), v.copy()
            for t in range(1, 4):
                grad = rng.standard_normal((rows.size, *shape[1:])).astype(dtype)
                dense = np.zeros(shape, dtype)
                dense[rows] = grad
                adam_step(ref_p, dense, ref_m, ref_v, t, 1e-3, 0.9, 0.999, 1e-8)
                out = adam_step(param, grad, m, v, t, 1e-3, 0.9, 0.999, 1e-8, rows=rows)
                assert out[0] is param and out[1] is m and out[2] is v
            assert np.array_equal(param, ref_p) and np.array_equal(m, ref_m) and np.array_equal(v, ref_v), dtype
            # momentum from earlier steps moves rows that have no gradient now
            if 0 < rows.size < shape[0]:
                other = np.setdiff1d(np.arange(shape[0]), rows)[0]
                assert np.any(m[other] == 0.0)


class TestAdamBlocks:
    @pytest.mark.parametrize(
        "shape, transposed",
        [
            ((2000, 100), False),  # several blocks of 655 rows and a ragged last block
            ((2 * ADAM_BLOCK + 123,), False),  # 1-d, longer than one block
            ((3, ADAM_BLOCK + 5), False),  # one row is longer than a block
            ((300, 250), True),  # a transposed view, not contiguous
        ],
    )
    def test_blocked_update_equals_unblocked(self, shape, transposed):
        for dtype in (np.float64, np.float32):
            rng = np.random.default_rng(4)
            arrays = [rng.standard_normal(shape).astype(dtype), np.zeros(shape, dtype), np.zeros(shape, dtype)]
            if transposed:
                arrays = [a.T for a in arrays]
                assert not arrays[0].flags.c_contiguous
            param, m, v = arrays
            base = param.base
            ref_p, ref_m, ref_v = param.copy(), m.copy(), v.copy()
            for t in range(1, 4):
                grad = rng.standard_normal(param.shape).astype(dtype)
                unblocked_adam_step(ref_p, grad.copy(), ref_m, ref_v, t, 1e-3, 0.9, 0.999, 1e-8)
                out = adam_step(param, grad, m, v, t, 1e-3, 0.9, 0.999, 1e-8)
                assert out[0] is param and out[1] is m and out[2] is v
            assert np.array_equal(param, ref_p) and np.array_equal(m, ref_m) and np.array_equal(v, ref_v), dtype
            if transposed:
                assert np.array_equal(base.T, ref_p)


class TestLockstep:
    @pytest.mark.parametrize("n, dropout, kl_weight", [(450, 0.2, 0.0), (650, 0.0, 0.7)])
    def test_weights_and_losses_equal_the_dense_step_bit_for_bit(self, n, dropout, kl_weight):
        graph = generate_catalog(SynthConfig(artist_count=n, seed=5)).graph
        # batches of 100 leave a partial last batch of 50
        config = VaeConfig(n_items=n, batch_size=100, epochs=2, dropout=dropout, kl_weight=kl_weight, seed=4)
        model, trace = train_multvae(graph, config)
        ref_model, ref_trace = reference_train(graph, config)
        for name in PARAM_NAMES:
            assert np.array_equal(getattr(model, name), getattr(ref_model, name)), name
        assert trace == ref_trace and trace.updates == 2 * -(-n // 100)


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

    def test_init_draws_weights_in_param_order(self):
        config = VaeConfig(n_items=7, hidden=5, bottleneck=3)
        model = init_model(config, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        for name, param in model.params().items():
            if name.startswith("w_"):
                expected = (rng.standard_normal(param.shape) / np.sqrt(param.shape[0])).astype(np.float32)
                assert param.dtype == np.float32 and np.array_equal(param, expected), name
            else:
                assert param.dtype == np.float32 and not param.any(), name

    def test_divergence_reports_epoch(self):
        graph = graph_from_lists([[1], [0], [3], [2]])
        config = VaeConfig(
            n_items=4, hidden=4, bottleneck=2, dropout=0.0, batch_size=1, epochs=5,
            learning_rate=1000.0, kl_weight=1.0, seed=0,
        )
        with pytest.raises(FloatingPointError, match="^non-finite training loss at epoch 0$"):
            train_multvae(graph, config)

    def test_deterministic_given_seed(self):
        graph = two_cliques_graph()
        config = VaeConfig(n_items=10, hidden=6, bottleneck=2, batch_size=5, epochs=5, seed=9)
        a, _ = train_multvae(graph, config)
        b, _ = train_multvae(graph, config)
        assert all(np.array_equal(getattr(a, n), getattr(b, n)) for n in PARAM_NAMES)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="cannot train on an empty graph"):
            train_multvae(graph_from_lists([]), VaeConfig(n_items=1, hidden=4, bottleneck=2))

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
        with pytest.raises(ValueError, match="epochs must be >= 0"):
            VaeConfig(n_items=5, epochs=-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            VaeConfig(n_items=5, seed=-1)
        with pytest.raises(ValueError):
            VaeConfig(n_items=5, kl_weight=-0.5)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="kl_weight"):
                VaeConfig(n_items=5, kl_weight=bad)
        for bad in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate"):
                VaeConfig(n_items=5, learning_rate=bad)


class TestPrecision:
    def test_training_and_scoring_stay_float32(self, monkeypatch):
        # a default-dtype np.zeros or np.ones anywhere on the path would
        # turn some array float64 from there on
        adam_dtypes = set()
        real_adam_step = multvae.adam_step

        def recording_adam_step(param, grad, m, v, *args, **kwargs):
            adam_dtypes.add((param.dtype, grad.dtype, m.dtype, v.dtype))
            return real_adam_step(param, grad, m, v, *args, **kwargs)

        monkeypatch.setattr(multvae, "adam_step", recording_adam_step)
        graph = two_cliques_graph()
        config = VaeConfig(n_items=10, hidden=6, bottleneck=2, batch_size=5, epochs=2, kl_weight=0.5, seed=3)
        model, trace = train_multvae(graph, config)
        float32 = np.dtype(np.float32)
        assert trace.updates == 4 and adam_dtypes == {(float32,) * 4}
        assert all(getattr(model, n).dtype == float32 for n in PARAM_NAMES)
        _, grads, _ = loss_and_gradients(model, *coords(np.eye(10)[:4]), np.random.default_rng(0))
        assert all(grads[n].dtype == float32 for n in PARAM_NAMES)
        user = UserVector(np.asarray([1, 6], dtype=np.int64), 10)
        assert rank_candidates_vae(model, user, [0, 7, 3], output_rows(model)).dtype == float32
        assert predict(model, user).dtype == float32

    def test_float32_step_draws_the_float64_stream(self):
        # the noise is drawn in float64 and cast: a float32 draw would change
        # the rng stream and every later batch order and mask
        model = tiny_model(seed=1, dropout=0.2, kl_weight=0.5)
        rows, cols, shape = coords(np.eye(6)[:4])
        rng32, rng64, drawn = (np.random.default_rng(12) for _ in range(3))
        loss_and_gradients(model, rows, cols, shape, rng32)
        loss_and_gradients(float64_copy(model), rows, cols, shape, rng64)
        drawn.random(shape)
        drawn.standard_normal((shape[0], model.config.bottleneck))
        assert rng32.bit_generator.state == rng64.bit_generator.state == drawn.bit_generator.state


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
        model = float64_copy(tiny_model(seed=6, n=12, hidden=7, bottleneck=3))
        user = UserVector(np.asarray([0, 4, 9], dtype=np.int64), 12)
        x = dense_user(user)
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


@lru_cache(maxsize=None)
def default_width_model():
    """An untrained model at the default hidden width, where a BLAS product
    over a subset of output columns need not match the full one."""
    model = tiny_model(seed=8, n=300, hidden=600, bottleneck=20)
    return model, output_rows(model)


class TestRanking:
    @pytest.fixture
    def setup(self):
        model = tiny_model(seed=4, n=6)
        user = UserVector(np.asarray([0], dtype=np.int64), 6)
        return model, user, output_rows(model)

    def test_input_order_is_irrelevant(self, setup):
        model, user, rows = setup
        first = rank_candidates_vae(model, user, [1, 4, 2], rows)
        second = rank_candidates_vae(model, user, [2, 1, 4], rows)
        np.testing.assert_array_equal(second, first[[2, 0, 1]])

    def test_singleton(self, setup):
        model, user, rows = setup
        scores = rank_candidates_vae(model, user, [3], rows)
        assert scores.shape == (1,) and scores[0] == predict(model, user)[3]

    def test_matches_brute_force_sort_of_predict(self, setup):
        model, user, rows = setup
        candidates = [5, 0, 3, 1]
        scores = predict(model, user)
        np.testing.assert_array_equal(rank_candidates_vae(model, user, candidates, rows), [scores[c] for c in candidates])

    def test_output_rows_are_a_candidate_major_copy(self, setup):
        model, _, rows = setup
        assert rows.flags.c_contiguous and np.array_equal(rows, model.w_out.T)
        assert not np.shares_memory(rows, model.w_out)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_score_depends_on_the_candidate_only(self, data):
        # exact, not approximate: a candidate's score must not change with
        # the order of the list or with which other candidates it holds
        model, rows = default_width_model()
        n = model.config.n_items
        items = st.integers(0, n - 1)
        user = UserVector(np.asarray(sorted(data.draw(st.sets(items, min_size=1, max_size=20))), dtype=np.int64), n)
        candidates = data.draw(st.lists(items, min_size=1, max_size=80, unique=True))
        shuffled = data.draw(st.permutations(candidates))
        others = data.draw(st.lists(st.sampled_from(candidates), unique=True))
        full = predict(model, user)
        for listed in (candidates, shuffled, others):
            np.testing.assert_array_equal(rank_candidates_vae(model, user, listed, rows), full[listed])


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
        assert all(getattr(loaded, n).dtype == np.float32 for n in PARAM_NAMES)

    def test_float64_file_loads_and_scores_as_before(self, tmp_path):
        model = float64_copy(tiny_model(seed=6, n=12, hidden=7, bottleneck=3))
        path = tmp_path / "vae64.npz"
        save_vae_model(model, path)
        loaded = load_vae_model(path)
        assert all(getattr(loaded, n).dtype == np.float64 for n in PARAM_NAMES)
        user = UserVector(np.asarray([0, 4, 9], dtype=np.int64), 12)
        candidates = [11, 2, 5, 0]
        # the float64 scoring expression, seed vector included, that
        # float64 files were scored with before training moved to float32
        h_enc = np.tanh(np.ones(3) @ model.w_enc[user.indices] + model.b_enc)
        h_dec = np.tanh((h_enc @ model.w_mu + model.b_mu) @ model.w_dec + model.b_dec)
        expected = (np.ascontiguousarray(model.w_out.T)[candidates] * h_dec).sum(axis=1) + model.b_out[candidates]
        scores = rank_candidates_vae(loaded, user, candidates, output_rows(loaded))
        assert scores.dtype == np.float64 and np.array_equal(scores, expected)

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

    def test_coordinates_are_the_ones_of_the_dense_rows(self):
        graph = graph_from_lists([[1, 2], [0], [], [0, 1, 2, 4], [3]])
        indices = np.array([3, 2, 0, 4, 3])
        rows, cols = graph.edges(indices)
        assert np.array_equal(np.stack(np.nonzero(rows_to_dense(graph, indices))), np.stack([rows, cols]))
        empty_rows, empty_cols = graph.edges(np.array([2], dtype=np.int64))
        assert empty_rows.size == 0 and empty_cols.size == 0
