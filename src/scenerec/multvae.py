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

Inference never samples and never drops inputs: the latent is the encoder
mean, so the same user vector always produces the same scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from scenerec.catalog import Catalog, SimilarityGraph, UserVector
from scenerec.persist import load_model, save_model

EARLY_STOP_PATIENCE = 10
EARLY_STOP_MIN_DELTA = 1e-6

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
        if self.kl_weight < 0:
            raise ValueError("kl_weight must be >= 0")


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
    val_loss: tuple[float, ...] = ()
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
    h_enc = np.tanh(x_drop @ model.w_enc + model.b_enc)
    mu = h_enc @ model.w_mu + model.b_mu
    logvar = h_enc @ model.w_logvar + model.b_logvar
    sigma = np.exp(0.5 * logvar)
    eps = rng.standard_normal(mu.shape)
    z = mu + sigma * eps
    h_dec = np.tanh(z @ model.w_dec + model.b_dec)
    recon = h_dec @ model.w_out + model.b_out

    resid = recon - batch
    rec_loss = float(np.mean(np.square(resid)))
    kl_loss = float(np.mean(-0.5 * np.sum(1.0 + logvar - np.square(mu) - np.exp(logvar), axis=1)))
    loss = rec_loss + beta * kl_loss

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
    so it is overwritten."""
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
    return param, m, v


def rows_to_dense(graph: SimilarityGraph, indices: Sequence[int]) -> np.ndarray:
    dense = np.zeros((len(indices), graph.n))
    for pos, i in enumerate(indices):
        dense[pos, graph.row(i)] = 1.0
    return dense


def _deterministic_loss(model: VaeModel, rows: np.ndarray) -> float:
    """Loss with inference-mode forward (no dropout, latent = mean); used
    for validation."""
    h_enc = np.tanh(rows @ model.w_enc + model.b_enc)
    mu = h_enc @ model.w_mu + model.b_mu
    logvar = h_enc @ model.w_logvar + model.b_logvar
    h_dec = np.tanh(mu @ model.w_dec + model.b_dec)
    recon = h_dec @ model.w_out + model.b_out
    rec = float(np.mean(np.square(recon - rows)))
    kl = float(np.mean(-0.5 * np.sum(1.0 + logvar - np.square(mu) - np.exp(logvar), axis=1)))
    return rec + model.config.kl_weight * kl


def train_multvae(
    graph: SimilarityGraph,
    config: VaeConfig,
    *,
    holdout: Sequence[int] = (),
    index_hash: str = "",
) -> tuple[VaeModel, TrainTrace]:
    """Train on every similarity row not in ``holdout``. Returns the model
    and a per-epoch loss trace; when a holdout is given, validation loss is
    tracked and training stops early once it stagnates."""
    if graph.n == 0:
        raise ValueError("cannot train on an empty graph")
    if config.n_items != graph.n:
        raise ValueError(f"config.n_items={config.n_items} but graph has {graph.n} artists")
    holdout_set = set(int(i) for i in holdout)
    train_rows = [i for i in range(graph.n) if i not in holdout_set]
    if not train_rows:
        raise ValueError("holdout leaves no rows to train on")

    rng = np.random.default_rng(config.seed)
    model = init_model(config, rng, index_hash)
    adam_m = {name: np.zeros_like(p) for name, p in model.params().items()}
    adam_v = {name: np.zeros_like(p) for name, p in model.params().items()}
    val_rows = rows_to_dense(graph, sorted(holdout_set)) if holdout_set else None

    train_losses: list[float] = []
    val_losses: list[float] = []
    updates = 0
    best_val = np.inf
    stale = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_rows))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            chunk = [train_rows[i] for i in order[start : start + config.batch_size]]
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
        train_losses.append(epoch_loss / len(train_rows))
        if val_rows is not None:
            val = _deterministic_loss(model, val_rows)
            val_losses.append(val)
            if val < best_val - EARLY_STOP_MIN_DELTA:
                best_val = val
                stale = 0
            else:
                stale += 1
                if stale >= EARLY_STOP_PATIENCE:
                    break
    return model, TrainTrace(tuple(train_losses), tuple(val_losses), updates)


def predict(model: VaeModel, user: UserVector) -> np.ndarray:
    """Deterministic scores over all artists for a seed-indicator vector:
    dropout disabled, latent fixed at the encoder mean."""
    if user.n != model.config.n_items:
        raise ValueError(f"user vector has dimension {user.n} but model expects {model.config.n_items}")
    x = user.to_dense()
    h_enc = np.tanh(x @ model.w_enc + model.b_enc)
    mu = h_enc @ model.w_mu + model.b_mu
    h_dec = np.tanh(mu @ model.w_dec + model.b_dec)
    return h_dec @ model.w_out + model.b_out


def rank_candidates_vae(
    model: VaeModel, user: UserVector, candidates: Sequence[str], catalog: Catalog
) -> list[tuple[str, float]]:
    """Rank candidate ids by their predicted scores, descending; ties break
    by ascending id."""
    if not candidates:
        raise ValueError("candidates must be nonempty")
    scores = predict(model, user)
    scored = []
    for cid in candidates:
        if cid not in catalog.index:
            raise ValueError(f"unknown candidate id {cid!r}")
        scored.append((cid, float(scores[catalog.index[cid]])))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored


def save_vae_model(model: VaeModel, path: str | Path) -> None:
    save_model(path, model.config, model.index_hash, model.params())


def load_vae_model(path: str | Path, expected_index_hash: str | None = None) -> VaeModel:
    config, index_hash, arrays = load_model(path, "multvae", VaeConfig, PARAM_SHAPES, expected_index_hash)
    return VaeModel(config=config, index_hash=index_hash, **arrays)
