"""Simulated-user benchmark: popularity-binned ranking trials scored by AUC.

One trial simulates a music scene and a listener: 8 scene genres are drawn
from a 20-genre pool, candidates are obscure-to-popular artists of those
genres inside a fixed popularity range, and the listener's seeds are
mainstream artists from 2 of the scene genres. A candidate is relevant when
it carries at least one of the listener's seed genres. Every algorithm
scores the same trial (paired design); ``run_experiment`` ranks each
algorithm's scores in one place, descending with ties to the smaller id,
and per-bin AUC means with standard errors land in a CSV report.

Per-trial randomness comes from a stream derived from (master seed, bin
index, trial index), so a trial's draw does not depend on the trials run
before it, on the trial count or on the chosen algorithms, and a run
reproduces bit for bit.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from scenerec.catalog import COMMON_GENRES, Catalog, UserVector, artists_in_range, top_popular_in_genre
from scenerec import multvae, wrmf

logger = logging.getLogger(__name__)

DEFAULT_BINS: tuple[tuple[int, int], ...] = tuple((lo, lo + 4) for lo in range(0, 80, 5))
TOP_POPULAR_POOL = 100
MAX_TRIAL_RESAMPLES = 25
REPORT_COLUMNS = ("algorithm", "bin_lo", "bin_hi", "n_trials", "mean_auc", "stderr")

# A scorer maps a trial (and a private rng stream) to one finite score per
# candidate, in ``trial.candidate_ids`` order; ``run_experiment`` ranks them,
# ties to the smaller id. Model-backed scorers must not read the labels.
RankFn = Callable[["Trial", np.random.Generator], np.ndarray]


class TrialSamplingError(RuntimeError):
    """The sampled scene cannot produce a scoreable trial (e.g. a seed genre
    with no popular artists, or candidates all of one relevance class)."""


@dataclass(frozen=True)
class Trial:
    bin_lo: int
    bin_hi: int
    scene_genres: tuple[str, ...]
    seed_genres: tuple[str, ...]
    seed_ids: tuple[str, ...]
    candidate_ids: tuple[str, ...]
    labels: tuple[bool, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    bins: tuple[tuple[int, int], ...] = DEFAULT_BINS
    trials_per_bin: int = 100
    scene_genre_count: int = 8
    seed_genre_count: int = 2
    candidates_per_genre: int = 10
    seeds_per_genre: int = 10
    genre_pool: tuple[str, ...] = COMMON_GENRES
    master_seed: int = 0

    def __post_init__(self) -> None:
        if not self.seed_genre_count <= self.scene_genre_count <= len(self.genre_pool):
            raise ValueError("need seed_genre_count <= scene_genre_count <= len(genre_pool)")
        if self.trials_per_bin < 1:
            raise ValueError("trials_per_bin must be >= 1")
        for lo, hi in self.bins:
            if not (0 <= lo <= hi <= 100):
                raise ValueError(f"invalid popularity bin [{lo}, {hi}]")


@dataclass(frozen=True)
class BinResult:
    algorithm: str
    bin_lo: int
    bin_hi: int
    n_trials: int
    mean_auc: float | None
    stderr: float | None
    trial_aucs: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[BinResult, ...]
    resamples_per_bin: tuple[int, ...]
    failed_trials_per_bin: tuple[int, ...]

    def row(self, algorithm: str, bin_lo: int) -> BinResult:
        for r in self.rows:
            if r.algorithm == algorithm and r.bin_lo == bin_lo:
                return r
        raise KeyError((algorithm, bin_lo))


def sample_trial(
    catalog: Catalog, config: ExperimentConfig, bin_range: tuple[int, int], rng: np.random.Generator
) -> Trial:
    """Draw one trial uniformly: scene genres from the pool, seed genres
    from the scene, seeds from each seed genre's top-100 popularity list,
    candidates from each scene genre restricted to the popularity bin. A
    genre short on in-range artists contributes what it has; seed artists
    are excluded from the candidate pool. Raises TrialSamplingError when no
    scoreable trial exists for this draw."""
    lo, hi = bin_range
    pool = config.genre_pool
    scene_idx = rng.choice(len(pool), size=config.scene_genre_count, replace=False)
    scene_genres = tuple(pool[i] for i in scene_idx)
    seed_idx = rng.choice(config.scene_genre_count, size=config.seed_genre_count, replace=False)
    seed_genres = tuple(scene_genres[i] for i in seed_idx)

    seed_ids: list[str] = []
    seen_seeds: set[str] = set()
    for genre in seed_genres:
        top = top_popular_in_genre(catalog, genre, TOP_POPULAR_POOL)
        if not top:
            raise TrialSamplingError(f"seed genre {genre!r} has no artists in the catalog")
        take = min(config.seeds_per_genre, len(top))
        for i in rng.choice(len(top), size=take, replace=False):
            if top[i] not in seen_seeds:
                seen_seeds.add(top[i])
                seed_ids.append(top[i])

    candidate_ids: list[str] = []
    chosen: set[str] = set(seen_seeds)
    for genre in scene_genres:
        in_range = artists_in_range(catalog, genre, lo, hi)
        eligible = [aid for aid in in_range if aid not in chosen]
        take = min(config.candidates_per_genre, len(eligible))
        if take == 0:
            continue
        for i in rng.choice(len(eligible), size=take, replace=False):
            chosen.add(eligible[i])
            candidate_ids.append(eligible[i])

    seed_genre_set = set(seed_genres)
    labels = tuple(
        any(g in seed_genre_set for g in catalog.artists[catalog.index[cid]].genres) for cid in candidate_ids
    )
    if not any(labels) or all(labels):
        raise TrialSamplingError(
            f"bin [{lo}, {hi}]: candidates are all of one relevance class ({len(candidate_ids)} candidates)"
        )
    return Trial(lo, hi, scene_genres, seed_genres, tuple(seed_ids), tuple(candidate_ids), labels)


def auc(ranked_labels: Sequence[bool | int]) -> float:
    """AUC of a ranking given its relevance labels in ranked order: the
    fraction of (relevant, non-relevant) pairs where the relevant item comes
    first. ``run_experiment`` has already broken score ties by id, so the
    order is taken as final."""
    n_rel = sum(1 for v in ranked_labels if v)
    n_non = len(ranked_labels) - n_rel
    if n_rel == 0 or n_non == 0:
        raise ValueError("AUC needs at least one relevant and one non-relevant item")
    correct = 0
    rel_seen = 0
    for label in ranked_labels:
        if label:
            rel_seen += 1
        else:
            correct += rel_seen
    return correct / (n_rel * n_non)


def oracle_scorer(trial: Trial, rng: np.random.Generator) -> np.ndarray:
    """Reads the labels: relevant candidates first. Upper-bound reference."""
    return np.asarray(trial.labels, dtype=float)


def random_scorer(trial: Trial, rng: np.random.Generator) -> np.ndarray:
    """Uniform shuffle; its expected AUC of 0.5 calibrates the harness."""
    return -np.argsort(rng.permutation(len(trial.candidate_ids)))


def make_wrmf_scorer(model: wrmf.FactorModel, catalog: Catalog) -> RankFn:
    def score(trial: Trial, rng: np.random.Generator) -> np.ndarray:
        vec = wrmf.fold_in_user(model, UserVector.from_ids(catalog, trial.seed_ids))
        return wrmf.rank_candidates(model, vec, [catalog.index[cid] for cid in trial.candidate_ids])

    return score


def make_vae_scorer(model: multvae.VaeModel, catalog: Catalog) -> RankFn:
    def score(trial: Trial, rng: np.random.Generator) -> np.ndarray:
        user = UserVector.from_ids(catalog, trial.seed_ids)
        return multvae.rank_candidates_vae(model, user, [catalog.index[cid] for cid in trial.candidate_ids])

    return score


def _trial_stream(master_seed: int, bin_idx: int, trial_idx: int) -> np.random.Generator:
    return np.random.default_rng([master_seed, bin_idx, trial_idx])


def _algo_stream(master_seed: int, bin_idx: int, trial_idx: int, algo_idx: int) -> np.random.Generator:
    return np.random.default_rng([master_seed, bin_idx, trial_idx, algo_idx])


def run_experiment(catalog: Catalog, scorers: Mapping[str, RankFn], config: ExperimentConfig) -> ExperimentReport:
    """Score every algorithm on the identical trial sequence for each
    popularity bin. Trials that cannot be sampled are counted and excluded
    from n; a bin where nothing is sampleable ends up with n_trials = 0.
    Each scorer's scores are ranked descending, ties to the smaller
    candidate id, before the AUC is taken. Report rows and each scorer's
    rng stream follow the order of ``scorers``."""
    selected = list(scorers.items())
    if not selected:
        raise ValueError("no scorers to run")

    per_bin_aucs: dict[tuple[str, int], list[tuple[int, float]]] = {
        (name, b): [] for name, _ in selected for b in range(len(config.bins))
    }
    resamples = [0] * len(config.bins)
    failed = [0] * len(config.bins)
    for b, bin_range in enumerate(config.bins):
        for t in range(config.trials_per_bin):
            rng = _trial_stream(config.master_seed, b, t)
            for _ in range(MAX_TRIAL_RESAMPLES):
                try:
                    trial = sample_trial(catalog, config, bin_range, rng)
                    break
                except TrialSamplingError:
                    resamples[b] += 1
            else:
                failed[b] += 1
                continue
            for algo_idx, (name, score) in enumerate(selected):
                scores = np.asarray(score(trial, _algo_stream(config.master_seed, b, t, algo_idx)), dtype=float)
                if scores.shape != (len(trial.candidate_ids),) or not np.isfinite(scores).all():
                    raise ValueError(f"scorer {name!r} must return one finite score per candidate")
                ranked = sorted(zip((-scores).tolist(), trial.candidate_ids, trial.labels))
                per_bin_aucs[(name, b)].append((t, auc([label for _, _, label in ranked])))

    rows: list[BinResult] = []
    for name, _ in selected:
        for b, (lo, hi) in enumerate(config.bins):
            values = per_bin_aucs[(name, b)]
            if values:
                arr = np.asarray([v for _, v in values])
                mean = float(arr.mean())
                stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
            else:
                mean = stderr = None
            rows.append(BinResult(name, lo, hi, len(values), mean, stderr, tuple(values)))
    for b, count in enumerate(failed):
        if count:
            logger.warning("bin %s: %d of %d trials could not be sampled", config.bins[b], count, config.trials_per_bin)
    return ExperimentReport(tuple(rows), tuple(resamples), tuple(failed))


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(value)


def write_report_csv(report: ExperimentReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in report.rows:
            writer.writerow([r.algorithm, r.bin_lo, r.bin_hi, r.n_trials, _fmt(r.mean_auc), _fmt(r.stderr)])


def write_trials_csv(report: ExperimentReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "bin_lo", "bin_hi", "trial", "auc"])
        for r in report.rows:
            for trial_idx, value in r.trial_aucs:
                writer.writerow([r.algorithm, r.bin_lo, r.bin_hi, trial_idx, repr(value)])


def write_plot_data_csv(report: ExperimentReport, path: str | Path) -> None:
    """Plot-ready rows: bin midpoint, mean AUC, standard error."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "bin_mid", "mean_auc", "stderr"])
        for r in report.rows:
            writer.writerow([r.algorithm, (r.bin_lo + r.bin_hi) / 2.0, _fmt(r.mean_auc), _fmt(r.stderr)])
