"""Autoencoder recommender over similarity rows.

Each artist's binary similar-list row is one training example. The encoder
MLP (one tanh hidden layer) maps a row to a stochastic bottleneck: a mean
and log-variance head with reparameterized sampling during training. The
decoder MLP (one tanh hidden layer, linear output) maps the latent back to
scores over all artists. Training minimizes mean squared reconstruction
error plus ``kl_weight`` times the KL divergence of the latent from a
standard normal; the default weight of zero leaves a denoising autoencoder
driven purely by input dropout. Optimization is mini-batch Adam with
gradients written out by hand (no autograd), which keeps the whole model a
deterministic function of its seed.

The encoder multiplies only the input columns that are nonzero in some row
of the batch (a similarity row has ~20 among thousands), and the ``w_enc``
gradient is zero outside those rows. Adam keeps dense moments and applies
its elementwise passes in cache-sized blocks. Neither changes the
arithmetic beyond summation order, and the rng stream is the same as with
dense products.

Inference never samples and never drops inputs: the latent is the encoder
mean, so the same user vector always produces the same scores;
``evaluation.run_experiment`` ranks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from scenerec.catalog import SimilarityGraph, UserVector
from scenerec.persist import load_model, save_model

# each parameter's axes, named by the VaeConfig fields that size them
PARAM_SHAPES: dict[str, tuple[str, ...]] = {
    "w_enc": ("n_items", "hidden"),
    "b_enc": ("hidden",),
    "w_mu": ("hidden", "bottleneck"),
    "b_mu": ("bottleneck",),
    "w_logvar": ("hidden", "bottleneck"),
    "b_logvar": ("bottleneck",),
    "w_dec": ("bottleneck", "hidden"),
    "b_dec": ("hidden",),
    "w_out": ("hidden", "n_items"),
    "b_out": ("n_items",),
}
PARAM_NAMES = tuple(PARAM_SHAPES)

# Elements per block of an Adam update: the four arrays of one block, 1 MiB
# in float64, stay in L2 across the update's twelve elementwise passes.
ADAM_BLOCK = 1 << 15


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"non-finite training loss at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class VaeConfig:
    n_items: int
    hidden: int = 600
    bottleneck: int = 200
    dropout: float = 0.2
    batch_size: int = 250
    epochs: int = 100
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    kl_weight: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_items < 1 or self.hidden < 1 or self.bottleneck < 1:
            raise ValueError("n_items, hidden and bottleneck must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0.0 <= self.kl_weight < math.inf:
            raise ValueError("kl_weight must be finite and >= 0")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")


@dataclass(frozen=True, eq=False)
class VaeModel:
    w_enc: np.ndarray
    b_enc: np.ndarray
    w_mu: np.ndarray
    b_mu: np.ndarray
    w_logvar: np.ndarray
    b_logvar: np.ndarray
    w_dec: np.ndarray
    b_dec: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    config: VaeConfig
    index_hash: str = ""

    def params(self) -> dict[str, np.ndarray]:
        """Live parameter arrays, in a fixed order; mutating them mutates
        the model (used by the trainer and by gradient checks)."""
        return {name: getattr(self, name) for name in PARAM_NAMES}


@dataclass(frozen=True)
class TrainTrace:
    train_loss: tuple[float, ...]
    updates: int = 0


def init_model(config: VaeConfig, rng: np.random.Generator, index_hash: str = "") -> VaeModel:
    n, h, d = config.n_items, config.hidden, config.bottleneck

    def layer(fan_in: int, fan_out: int) -> np.ndarray:
        return rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)

    return VaeModel(
        w_enc=layer(n, h),
        b_enc=np.zeros(h),
        w_mu=layer(h, d),
        b_mu=np.zeros(d),
        w_logvar=layer(h, d),
        b_logvar=np.zeros(d),
        w_dec=layer(d, h),
        b_dec=np.zeros(h),
        w_out=layer(h, n),
        b_out=np.zeros(n),
        config=config,
        index_hash=index_hash,
    )


def _encode(model: VaeModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Encoder hidden layer and latent mean for input rows ``x`` (one row or
    a batch), plus ``used``, the columns nonzero in some row, and
    ``x[..., used]``; only those columns enter the product."""
    used = np.flatnonzero(np.atleast_2d(x).any(axis=0))
    x_used = x[..., used]
    h_enc = np.tanh(x_used @ model.w_enc[used] + model.b_enc)
    return h_enc, h_enc @ model.w_mu + model.b_mu, used, x_used


def _decode(model: VaeModel, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decoder hidden layer and output scores for latents ``z``."""
    h_dec = np.tanh(z @ model.w_dec + model.b_dec)
    recon = h_dec @ model.w_out
    recon += model.b_out
    return h_dec, recon


def input_dropout(x: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Zero each coordinate independently with probability p; survivors are
    scaled by 1/(1-p) so inference needs no rescaling."""
    if p == 0.0:
        return x
    keep = rng.random(x.shape) >= p
    return x * keep / (1.0 - p)


def loss_and_gradients(
    model: VaeModel, batch: np.ndarray, rng: np.random.Generator
) -> tuple[float, dict[str, np.ndarray]]:
    """Training-mode loss and exact backpropagated gradients for one batch
    of dense rows. All noise (dropout mask, latent sample) comes from
    ``rng``, so the pair (loss, gradients) is a deterministic function of
    the model, the batch, and the rng state."""
    if batch.ndim != 2 or batch.shape[0] == 0:
        raise ValueError("batch must be a nonempty 2-d array of rows")
    if batch.shape[1] != model.config.n_items:
        raise ValueError(f"batch rows have {batch.shape[1]} items, model expects {model.config.n_items}")
    cfg = model.config
    b = batch.shape[0]
    beta = cfg.kl_weight

    x_drop = input_dropout(batch, cfg.dropout, rng)
    h_enc, mu, used, x_used = _encode(model, x_drop)
    logvar = h_enc @ model.w_logvar + model.b_logvar
    sigma = np.exp(0.5 * logvar)
    eps = rng.standard_normal(mu.shape)
    z = mu + sigma * eps
    h_dec, recon = _decode(model, z)

    resid = recon
    resid -= batch
    rec_loss = float(np.mean(np.square(resid)))
    kl_loss = float(np.mean(-0.5 * np.sum(1.0 + logvar - np.square(mu) - np.exp(logvar), axis=1)))
    loss = rec_loss + beta * kl_loss

    g_out = resid
    g_out *= 2.0
    g_out /= resid.size
    g_h_dec = g_out @ model.w_out.T
    g_a_dec = g_h_dec * (1.0 - np.square(h_dec))
    g_z = g_a_dec @ model.w_dec.T
    g_mu = g_z + (beta / b) * mu
    g_logvar = g_z * eps * 0.5 * sigma + (beta / b) * 0.5 * (np.exp(logvar) - 1.0)
    g_h_enc = g_mu @ model.w_mu.T + g_logvar @ model.w_logvar.T
    g_a_enc = g_h_enc * (1.0 - np.square(h_enc))

    # unused columns had zero input, so their w_enc gradient rows are zero
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


def _blocks(shape: tuple[int, ...]) -> Iterator[tuple]:
    """Index tuples that cut an array of ``shape`` into basic-slice views of
    at most ADAM_BLOCK elements: runs of whole rows along axis 0, or, when
    one row is larger, each row cut the same way."""
    row_size = math.prod(shape[1:])
    if row_size > ADAM_BLOCK:
        for i in range(shape[0]):
            for rest in _blocks(shape[1:]):
                yield (i, *rest)
        return
    rows = ADAM_BLOCK // max(row_size, 1)
    for start in range(0, shape[0], rows):
        yield (slice(start, start + rows),)


def adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bias-corrected Adam update, applied in place to ``param``, ``m``
    and ``v``, which are returned; t counts updates starting at 1.

    Both bias corrections fold into one scalar step size and one scaled eps:
    lr * m_hat / (sqrt(v_hat) + eps) equals step * m / (sqrt(v) + eps_hat)
    with step = lr * sqrt(1 - beta2^t) / (1 - beta1^t) and
    eps_hat = eps * sqrt(1 - beta2^t). ``grad`` serves as the scratch buffer,
    so it is overwritten. The elementwise passes run block by block (see
    ``_blocks``), so each block's arrays stay in cache between passes; every
    element sees the same operations, so the result does not depend on the
    blocking."""
    correction2 = np.sqrt(1.0 - beta2**t)
    step = lr * correction2 / (1.0 - beta1**t)
    for block in _blocks(param.shape):
        p, g, mb, vb = param[block], grad[block], m[block], v[block]
        mb *= beta1
        vb *= beta2
        g *= 1.0 - beta1
        mb += g
        np.square(g, out=g)
        g *= (1.0 - beta2) / (1.0 - beta1) ** 2
        vb += g
        np.sqrt(vb, out=g)
        g += eps * correction2
        np.divide(mb, g, out=g)
        g *= step
        p -= g
    return param, m, v


def rows_to_dense(graph: SimilarityGraph, indices: Sequence[int]) -> np.ndarray:
    dense = np.zeros((len(indices), graph.n))
    for pos, i in enumerate(indices):
        dense[pos, graph.row(i)] = 1.0
    return dense


def train_multvae(graph: SimilarityGraph, config: VaeConfig, *, index_hash: str = "") -> tuple[VaeModel, TrainTrace]:
    """Train on every similarity row for ``config.epochs`` epochs of
    mini-batch Adam, each epoch visiting the rows in a fresh seeded order.
    Returns the model and its trace: the mean training loss per epoch and
    the number of Adam updates. Raises TrainingDiverged, naming the epoch,
    when a batch loss is not finite."""
    if graph.n == 0:
        raise ValueError("cannot train on an empty graph")
    if config.n_items != graph.n:
        raise ValueError(f"config.n_items={config.n_items} but graph has {graph.n} artists")

    rng = np.random.default_rng(config.seed)
    model = init_model(config, rng, index_hash)
    adam_m = {name: np.zeros_like(p) for name, p in model.params().items()}
    adam_v = {name: np.zeros_like(p) for name, p in model.params().items()}

    train_losses: list[float] = []
    updates = 0
    for epoch in range(config.epochs):
        order = rng.permutation(graph.n)
        epoch_loss = 0.0
        for start in range(0, graph.n, config.batch_size):
            chunk = order[start : start + config.batch_size]
            batch = rows_to_dense(graph, chunk)
            # divergence surfaces as a non-finite loss and is raised below;
            # the overflow warnings on the way there are just noise
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = loss_and_gradients(model, batch, rng)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch)
            updates += 1
            for name, param in model.params().items():
                adam_step(
                    param,
                    grads[name],
                    adam_m[name],
                    adam_v[name],
                    updates,
                    config.learning_rate,
                    config.adam_beta1,
                    config.adam_beta2,
                    config.adam_eps,
                )
            epoch_loss += loss * len(chunk)
        train_losses.append(epoch_loss / graph.n)
    return model, TrainTrace(tuple(train_losses), updates)


def predict(model: VaeModel, user: UserVector) -> np.ndarray:
    """Deterministic scores over all artists for a seed-indicator vector:
    dropout disabled, latent fixed at the encoder mean."""
    if user.n != model.config.n_items:
        raise ValueError(f"user vector has dimension {user.n} but model expects {model.config.n_items}")
    _, mu, _, _ = _encode(model, user.to_dense())
    return _decode(model, mu)[1]


def rank_candidates_vae(model: VaeModel, user: UserVector, candidates: Sequence[int]) -> np.ndarray:
    """``predict`` scores of the candidate artist indices, in candidate order.
    It does not sort; the name is kept for the tracer's ``multvae.rank`` span."""
    return predict(model, user)[candidates]


def save_vae_model(model: VaeModel, path: str | Path) -> None:
    save_model(path, model.config, model.index_hash, model.params())


def load_vae_model(path: str | Path, expected_index_hash: str | None = None) -> VaeModel:
    config, index_hash, arrays = load_model(path, "multvae", VaeConfig, PARAM_SHAPES, expected_index_hash)
    return VaeModel(config=config, index_hash=index_hash, **arrays)
