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

A batch reaches the training step as the coordinates of its ones, which
``SimilarityGraph.edges`` gathers, never as a dense (batch, n_items) matrix. The
dropout draw is one uniform per batch cell, the rng stream of dense
dropout, and it is read only at the ones. The encoder multiplies only the
input columns that survive in some row of the batch (a similarity row has
~20 among thousands), the reconstruction target is subtracted at the ones
only, and the ``w_enc`` gradient holds only those columns' rows. Adam takes
that row-sparse gradient: it decays every moment, adds the gradient at its
rows only, and applies its elementwise passes to cache-sized runs of whole
rows. Every element sees the same floating-point operations, in the same
order, as in training on dense matrices, so the trained weights equal that
training's bit for bit.

The parameters are float32, the precision of the Mult-VAE reference
implementation, and every later array follows their dtype: the batch
values, the latent noise, the Adam moments and scratch, and the scoring
path's seed vector and output rows. Random draws stay float64 and are cast,
so the rng stream does not depend on the dtype. A float64 model, such as a
gradient check's or one loaded from an older float64 file, runs the same
code in float64.

Inference never samples and never drops inputs: the latent is the encoder
mean, so the same user vector always produces the same scores;
``evaluation.run_experiment`` ranks them. It decodes candidate rows only:
a candidate's score reads its own row of ``output_rows(model)``, a
candidate-major copy of ``w_out``, and sums it against the decoder's hidden
layer row by row. A score therefore does not depend on which other
candidates are scored or in what order, and ``predict``, the same sum over
every row, agrees with it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

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

# Elements per run of whole rows in an Adam update: the four arrays of one
# run, 1 MiB in float32, stay in L2 across the update's twelve elementwise
# passes. A row longer than this is a run by itself.
ADAM_BLOCK = 1 << 16


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
    """float32 weights, drawn standard normal in float64 in ``PARAM_SHAPES``
    order, scaled by 1/sqrt(fan-in) and cast; float32 biases zero."""
    params = {}
    for name, axes in PARAM_SHAPES.items():
        shape = tuple(getattr(config, axis) for axis in axes)
        param = rng.standard_normal(shape) / np.sqrt(shape[0]) if len(shape) == 2 else np.zeros(shape)
        params[name] = param.astype(np.float32)
    return VaeModel(config=config, index_hash=index_hash, **params)


def _encode(model: VaeModel, used: np.ndarray, x_used: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encoder hidden layer and latent mean for input rows (one row or a
    batch) whose nonzero columns all lie in ``used``; ``x_used`` holds the
    rows' values at those columns, and only they enter the product."""
    h_enc = np.tanh(x_used @ model.w_enc[used] + model.b_enc)
    return h_enc, h_enc @ model.w_mu + model.b_mu


def _decode(model: VaeModel, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decoder hidden layer and output scores for latents ``z``."""
    h_dec = np.tanh(z @ model.w_dec + model.b_dec)
    recon = h_dec @ model.w_out
    recon += model.b_out
    return h_dec, recon


def input_dropout(
    rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int], p: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, float]:
    """Zero each coordinate of a binary batch of ``shape`` whose ones sit at
    (``rows``, ``cols``) independently with probability p: one uniform is
    drawn per batch cell, none when p is 0. Returns the surviving ones'
    coordinates and their common value, 1/(1-p), so inference needs no
    rescaling."""
    if p == 0.0:
        return rows, cols, 1.0
    keep = rng.random(shape)[rows, cols] >= p
    return rows[keep], cols[keep], 1.0 / (1.0 - p)


def loss_and_gradients(
    model: VaeModel, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int], rng: np.random.Generator
) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """Training-mode loss and exact backpropagated gradients for one binary
    batch of ``shape`` (rows, n_items) with ones at (``rows``, ``cols``),
    plus ``used``, the sorted input columns that survive dropout in some
    row: the ``w_enc`` gradient holds only those rows, and its other rows
    are zero. All noise (dropout mask, latent sample) comes from ``rng``, so
    the result is a deterministic function of the model, the batch, and the
    rng state. Every array, the gradients too, has the parameters' dtype."""
    b, n = shape
    if b < 1:
        raise ValueError("batch must have at least one row")
    if n != model.config.n_items:
        raise ValueError(f"batch rows have {n} items, model expects {model.config.n_items}")
    cfg = model.config
    beta = cfg.kl_weight

    kept_rows, kept_cols, value = input_dropout(rows, cols, shape, cfg.dropout, rng)
    used, kept_pos = np.unique(kept_cols, return_inverse=True)
    x_used = np.zeros((b, used.size), model.w_enc.dtype)
    x_used[kept_rows, kept_pos] = value
    h_enc, mu = _encode(model, used, x_used)
    logvar = h_enc @ model.w_logvar + model.b_logvar
    sigma = np.exp(0.5 * logvar)
    eps = rng.standard_normal(mu.shape).astype(mu.dtype)
    z = mu + sigma * eps
    h_dec, recon = _decode(model, z)

    resid = recon
    resid[rows, cols] -= 1.0
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

    # columns outside ``used`` had zero input, so their w_enc gradient rows
    # are zero and are left out
    grads = {
        "w_enc": x_used.T @ g_a_enc,
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
    return loss, grads, used


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
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bias-corrected Adam update, applied in place to ``param``, ``m``
    and ``v``, which are returned; t counts updates starting at 1. When
    ``rows`` (sorted, unique indices along axis 0) is given, ``grad`` holds
    only those rows and every other row's gradient is zero.

    Both bias corrections fold into one scalar step size and one scaled eps:
    lr * m_hat / (sqrt(v_hat) + eps) equals step * m / (sqrt(v) + eps_hat)
    with step = lr * sqrt(1 - beta2^t) / (1 - beta1^t) and
    eps_hat = eps * sqrt(1 - beta2^t); these scalars are Python floats, so
    every pass runs in the arrays' dtype. ``grad`` serves as the scratch
    buffer, so it is overwritten. The elementwise passes run on runs of
    whole rows along axis 0, as many as fit in ADAM_BLOCK elements (one row
    when a row is larger), so each run's arrays stay in cache between
    passes; every element sees the same operations, so the result does not
    depend on the runs. With ``rows``, the gradient terms are added at those
    rows only; adding a zero gradient leaves a moment unchanged, so the
    result equals the dense call's on the zero-filled gradient, bit for bit."""
    correction2 = math.sqrt(1.0 - beta2**t)
    step = lr * correction2 / (1.0 - beta1**t)
    run = max(1, ADAM_BLOCK // math.prod(param.shape[1:]))
    scratch = None if rows is None else np.empty((run, *param.shape[1:]), param.dtype)
    for start in range(0, param.shape[0], run):
        p, mb, vb = param[start : start + run], m[start : start + run], v[start : start + run]
        if rows is None:
            at, g = ..., grad[start : start + run]
            out = g
        else:
            lo, hi = np.searchsorted(rows, (start, start + run))
            at, g = rows[lo:hi] - start, grad[lo:hi]
            out = scratch[: mb.shape[0]]
        mb *= beta1
        vb *= beta2
        g *= 1.0 - beta1
        mb[at] += g
        np.square(g, out=g)
        g *= (1.0 - beta2) / (1.0 - beta1) ** 2
        vb[at] += g
        np.sqrt(vb, out=out)
        out += eps * correction2
        np.divide(mb, out, out=out)
        out *= step
        p -= out
    return param, m, v


def rows_to_dense(graph: SimilarityGraph, indices: Sequence[int]) -> np.ndarray:
    dense = np.zeros((len(indices), graph.n))
    dense[graph.edges(indices)] = 1.0
    return dense


def train_multvae(graph: SimilarityGraph, config: VaeConfig, *, index_hash: str = "") -> tuple[VaeModel, TrainTrace]:
    """Train on every similarity row for ``config.epochs`` epochs of
    mini-batch Adam, each epoch visiting the rows in a fresh seeded order.
    Returns the model and its trace: the mean training loss per epoch and
    the number of Adam updates. Raises FloatingPointError, naming the
    epoch, when a batch loss is not finite."""
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
            rows, cols = graph.edges(chunk)
            # divergence surfaces as a non-finite loss and is raised below;
            # the overflow warnings on the way there are just noise
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads, enc_rows = loss_and_gradients(model, rows, cols, (len(chunk), graph.n), rng)
            if not np.isfinite(loss):
                raise FloatingPointError(f"non-finite training loss at epoch {epoch}")
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
                    rows=enc_rows if name == "w_enc" else None,
                )
            epoch_loss += loss * len(chunk)
        train_losses.append(epoch_loss / graph.n)
    return model, TrainTrace(tuple(train_losses), updates)


def output_rows(model: VaeModel) -> np.ndarray:
    """``w_out`` as a C-contiguous (n_items, hidden) copy, one row per
    artist: the layout candidate scoring reads. A caller scoring many users
    builds it once; the model does not keep it."""
    return np.ascontiguousarray(model.w_out.T)


def rank_candidates_vae(
    model: VaeModel, user: UserVector, candidates: Sequence[int] | slice, rows: np.ndarray
) -> np.ndarray:
    """Deterministic scores of the candidate artist indices, in candidate
    order, for a seed-indicator vector: dropout disabled, latent fixed at
    the encoder mean, each output read from the candidate's own row of
    ``rows`` (``output_rows(model)``). It does not sort; the name is kept
    for the tracer's ``multvae.rank`` span."""
    if user.n != model.config.n_items:
        raise ValueError(f"user vector has dimension {user.n} but model expects {model.config.n_items}")
    _, mu = _encode(model, user.indices, np.ones(user.indices.size, model.w_enc.dtype))
    h_dec = np.tanh(mu @ model.w_dec + model.b_dec)
    return (rows[candidates] * h_dec).sum(axis=1) + model.b_out[candidates]


def predict(model: VaeModel, user: UserVector) -> np.ndarray:
    """``rank_candidates_vae`` scores of every artist, in index order."""
    return rank_candidates_vae(model, user, slice(None), output_rows(model))


def save_vae_model(model: VaeModel, path: str | Path) -> None:
    save_model(path, model.config, model.index_hash, model.params())


def load_vae_model(path: str | Path, expected_index_hash: str | None = None) -> VaeModel:
    config, index_hash, arrays = load_model(path, "multvae", VaeConfig, PARAM_SHAPES, expected_index_hash)
    return VaeModel(config=config, index_hash=index_hash, **arrays)
