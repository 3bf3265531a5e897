"""Confidence-weighted matrix factorization trained by alternating least squares.

The binary similarity matrix P is factored as X Y^T with every cell carrying
a confidence weight: c = 1 + alpha on observed cells and 1 elsewhere. The
objective is

    sum_ij c_ij (p_ij - x_i . y_j)^2  +  lam * (||X||_F^2 + ||Y||_F^2)

Each half-sweep solves the exact ridge-regression closed form for every row
of one factor while the other is held fixed, so the objective can never
increase. Row i with observed columns ``obs`` (r of them) solves

    (G + alpha M^T M) x = (1 + alpha) M^T 1,   G = Y^T Y + lam I,  M = Y[obs]

G is formed once per half-sweep. Because r is usually far below k, the
half-sweep also forms W = Y G^-1 once and applies the Woodbury identity,
which turns each k x k system into an r x r one:

    x = (1 + alpha) W[obs]^T (I + alpha K)^-1 1,   K = W[obs] M^T

(the alpha-scaled form, so alpha = 0 needs no special case). Rows of equal
degree are stacked into blocks whose temporaries stay under ``BLOCK_BYTES``
and each block is one batched solve. Rows with no observations get exact
zeros. The direct k x k solve (``solve_row``) still runs for rows with
r >= k, where it is the smaller system, and for the whole half-sweep when
lam = 0, where G may be singular. Both paths are exact to rounding.

A user is a sparse indicator vector over artists; ``fold_in_user`` embeds it
with the direct closed form, and candidates are scored by dot product
against their column factors; ``evaluation.run_experiment`` ranks the scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from scenerec.catalog import SimilarityGraph, UserVector
from scenerec.persist import load_model, save_model

# Upper bound on the temporaries of one stacked block of equal-degree rows,
# in the Woodbury half-sweep and in the objective.
BLOCK_BYTES = 16 * 2**20
# Relative rounding slack allowed in the objective's half-sweep decrease;
# a larger rise means the solves have lost precision.
OBJECTIVE_RISE_TOL = 1e-9


@dataclass(frozen=True)
class WrmfConfig:
    k: int = 128
    lam: float = 0.1
    alpha: float = 15.0
    sweeps: int = 15
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (0.0 <= self.lam < math.inf and 0.0 <= self.alpha < math.inf):
            raise ValueError("lam and alpha must be finite and >= 0")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")


@dataclass(frozen=True, eq=False)
class FactorModel:
    """Trained factors: ``row_factors[i]`` embeds artist i's similar-list
    row, ``col_factors[j]`` embeds artist j as a target. ``objective_trace``
    holds the objective at initialization and after every half-sweep."""

    row_factors: np.ndarray
    col_factors: np.ndarray
    config: WrmfConfig
    index_hash: str = ""
    objective_trace: tuple[float, ...] = ()

    @property
    def n(self) -> int:
        return self.row_factors.shape[0]

    @cached_property
    def gram_reg(self) -> np.ndarray:
        """Y^T Y + lam I over the column factors Y: the user-independent part
        of every fold-in system, formed once per model."""
        y = self.col_factors
        return y.T @ y + self.config.lam * np.eye(self.config.k)


def solve_row(obs: np.ndarray, other: np.ndarray, gram_reg: np.ndarray, alpha: float) -> np.ndarray:
    """Exact minimizer of the weighted ridge problem for one row:
    (other^T C other + lam I) x = other^T C p, where C is 1 + alpha on the
    observed entries and 1 elsewhere, and p is the binary indicator of
    ``obs``. ``gram_reg`` must be other^T other + lam I."""
    if obs.size == 0:
        return np.zeros(other.shape[1])
    m = other[obs]
    a = gram_reg + alpha * (m.T @ m)
    b = (1.0 + alpha) * m.sum(axis=0)
    return np.linalg.solve(a, b)


def _equal_degree_blocks(
    graph: SimilarityGraph, degrees: np.ndarray, selected: np.ndarray, row_bytes: Callable[[int], int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(block, obs)`` for the ``selected`` rows of ``graph``, grouped
    by degree r: ``block`` holds row indices, ``obs`` their observed indices
    as a (len(block), r) array. A block holds at most
    BLOCK_BYTES // row_bytes(r) rows, so the caller's per-row temporaries
    stay under BLOCK_BYTES."""
    for r in np.unique(degrees[selected]):
        group = np.flatnonzero(selected & (degrees == r))
        step = max(1, BLOCK_BYTES // row_bytes(r))
        for start in range(0, group.size, step):
            block = group[start : start + step]
            yield block, graph.indices[graph.indptr[block, None] + np.arange(r)]


def half_sweep(graph: SimilarityGraph, this: np.ndarray, other: np.ndarray, lam: float, alpha: float) -> None:
    """Update every row of ``this`` in place against fixed ``other``, row i
    observing ``graph.row(i)``: the stacked Woodbury solve for rows with
    0 < degree < k when lam > 0, the direct ``solve_row`` for the rest (see
    the module docstring)."""
    k = other.shape[1]
    gram_reg = other.T @ other + lam * np.eye(k)
    degrees = np.diff(graph.indptr)
    this[degrees == 0] = 0.0
    stacked = (degrees > 0) & (degrees < k) & (lam > 0)
    if stacked.any():
        w = np.linalg.solve(gram_reg, other.T).T
        for block, obs in _equal_degree_blocks(graph, degrees, stacked, lambda r: 8 * (2 * r * k + 3 * r * r + k)):
            r = obs.shape[1]
            w_obs = w[obs]
            kmat = np.eye(r) + alpha * (w_obs @ other[obs].transpose(0, 2, 1))
            u = np.linalg.solve(kmat, np.ones((block.size, r, 1)))
            this[block] = (1.0 + alpha) * (u.transpose(0, 2, 1) @ w_obs)[:, 0]
    for i in np.flatnonzero((degrees > 0) & ~stacked):
        this[i] = solve_row(graph.row(i), other, gram_reg, alpha)


def _objective_value(x: np.ndarray, y: np.ndarray, graph: SimilarityGraph, lam: float, alpha: float) -> float:
    # sum over all cells of s_ij^2 equals tr((X^T X)(Y^T Y)), which for two
    # symmetric matrices is the sum of their elementwise product; observed
    # cells then swap their s^2 term for (1 + alpha)(1 - s)^2.
    xtx, yty = x.T @ x, y.T @ y
    total_sq = float(np.sum(xtx * yty))
    k = x.shape[1]
    degrees = np.diff(graph.indptr)
    observed = 0.0
    for block, obs in _equal_degree_blocks(graph, degrees, degrees > 0, lambda r: 8 * (r * k + 3 * r)):
        s = (y[obs] @ x[block, :, None])[..., 0]
        observed += float(((1.0 + alpha) * np.square(1.0 - s) - np.square(s)).sum())
    return total_sq + observed + lam * float(np.trace(xtx) + np.trace(yty))


def objective(model: FactorModel, graph: SimilarityGraph) -> float:
    """Exact weighted squared error plus regularization for the model on the
    given graph."""
    if graph.n != model.n:
        raise ValueError(f"graph has {graph.n} artists but model has {model.n}")
    return _objective_value(model.row_factors, model.col_factors, graph, model.config.lam, model.config.alpha)


def train_wrmf(graph: SimilarityGraph, config: WrmfConfig, *, index_hash: str = "") -> FactorModel:
    """Run ALS: factors start as seeded noise scaled by 1/sqrt(k), then each
    sweep updates all rows of X and then all rows of Y with the closed-form
    solve. Deterministic for a given seed and graph."""
    n = graph.n
    if n == 0:
        raise ValueError("cannot train on an empty graph")
    rng = np.random.default_rng(config.seed)
    scale = 1.0 / np.sqrt(config.k)
    x = rng.standard_normal((n, config.k)) * scale
    y = rng.standard_normal((n, config.k)) * scale
    transposed = graph.transpose()
    # divergence surfaces as non-finite factors or a rising objective and is
    # raised below; the overflow warnings on the way there are just noise
    with np.errstate(over="ignore", invalid="ignore"):
        trace = [_objective_value(x, y, graph, config.lam, config.alpha)]
        for sweep in range(config.sweeps):
            half_sweep(graph, x, y, config.lam, config.alpha)
            trace.append(_objective_value(x, y, graph, config.lam, config.alpha))
            half_sweep(transposed, y, x, config.lam, config.alpha)
            trace.append(_objective_value(x, y, graph, config.lam, config.alpha))
            if not (np.isfinite(x).all() and np.isfinite(y).all()):
                raise FloatingPointError(f"non-finite factors after sweep {sweep} (ill-conditioned; raise lam)")
            for before, after in zip(trace[-3:-1], trace[-2:]):
                if after - before > OBJECTIVE_RISE_TOL * abs(before):
                    raise FloatingPointError(
                        f"objective rose from {before:.6g} to {after:.6g} in sweep {sweep} "
                        "(ill-conditioned; lower alpha or raise lam)"
                    )
    return FactorModel(x, y, config, index_hash, tuple(trace))


def fold_in_user(model: FactorModel, user: UserVector) -> np.ndarray:
    """Embed a seed-indicator vector into the factor space via the same
    closed-form ridge solve used for row updates."""
    if user.indices.size == 0:
        raise ValueError("fold-in requires at least one seed artist")
    if user.n != model.n:
        raise ValueError(f"user vector has dimension {user.n} but model has {model.n}")
    return solve_row(user.indices, model.col_factors, model.gram_reg, model.config.alpha)


def rank_candidates(model: FactorModel, user_vec: np.ndarray, candidates: Sequence[int]) -> np.ndarray:
    """Dot products of the candidates' column factors (artist indices) with
    the user embedding, in candidate order. It does not sort; the name is
    kept for the benchmark tracer's ``wrmf.rank`` span."""
    return model.col_factors[candidates] @ user_vec


def save_factor_model(model: FactorModel, path: str | Path) -> None:
    arrays = {
        "row_factors": model.row_factors,
        "col_factors": model.col_factors,
        "objective_trace": np.asarray(model.objective_trace),
    }
    save_model(path, model.config, model.index_hash, arrays)


def load_factor_model(path: str | Path, expected_index_hash: str | None = None) -> FactorModel:
    shapes = {"row_factors": ("artists", "k"), "col_factors": ("artists", "k"), "objective_trace": ("half_sweeps",)}
    config, index_hash, arrays = load_model(path, "wrmf", WrmfConfig, shapes, expected_index_hash)
    trace = tuple(float(v) for v in arrays["objective_trace"])
    return FactorModel(arrays["row_factors"], arrays["col_factors"], config, index_hash, trace)
