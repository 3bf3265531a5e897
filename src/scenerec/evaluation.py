"""Simulated-user benchmark: popularity-binned ranking trials scored by AUC.

One trial simulates a music scene and a listener: 8 scene genres are drawn
from a 20-genre pool, candidates are obscure-to-popular artists of those
genres inside a fixed popularity range, and the listener's seeds are
mainstream artists from 2 of the scene genres. A candidate is relevant when
it carries at least one of the listener's seed genres. Every algorithm
scores the same trial (paired design). The rank rule lives in
``run_experiment`` alone: one ``np.lexsort`` per scorer-trial, descending
score with ties to the smaller id. ``auc`` counts the pairs of that order,
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
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from scenerec.catalog import COMMON_GENRES, Catalog, UserVector, artists_in_range, top_popular_in_genre
from scenerec import multvae, wrmf

logger = logging.getLogger(__name__)

DEFAULT_BINS: tuple[tuple[int, int], ...] = tuple((lo, lo + 4) for lo in range(0, 80, 5))
# the trial protocol; scene genres come from COMMON_GENRES
SCENE_GENRE_COUNT = 8
SEED_GENRE_COUNT = 2
SEEDS_PER_GENRE = 10
CANDIDATES_PER_GENRE = 10
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
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.trials_per_bin < 1:
            raise ValueError("trials_per_bin must be >= 1")
        seen = set()
        for lo, hi in self.bins:
            if not (0 <= lo <= hi <= 100):
                raise ValueError(f"invalid popularity bin [{lo}, {hi}]")
            # a repeated bin would be run twice, and ``ExperimentReport.row``
            # would find only its first rows
            if (lo, hi) in seen:
                raise ValueError(f"popularity bin [{lo}, {hi}] given more than once")
            seen.add((lo, hi))


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

    def row(self, algorithm: str, bin_range: tuple[int, int]) -> BinResult:
        """The row of ``algorithm`` on the bin ``(bin_lo, bin_hi)``; bins
        may share a lower bound."""
        for r in self.rows:
            if r.algorithm == algorithm and (r.bin_lo, r.bin_hi) == bin_range:
                return r
        raise KeyError((algorithm, bin_range))


def sample_trial(catalog: Catalog, bin_range: tuple[int, int], rng: np.random.Generator) -> Trial:
    """Draw one trial uniformly: scene genres from the pool, seed genres
    from the scene, seeds from each seed genre's top-100 popularity list,
    candidates from each scene genre restricted to the popularity bin. A
    genre short on in-range artists contributes what it has; seed artists
    are excluded from the candidate pool. Raises TrialSamplingError when no
    scoreable trial exists for this draw."""
    lo, hi = bin_range
    scene_idx = rng.choice(len(COMMON_GENRES), size=SCENE_GENRE_COUNT, replace=False)
    scene_genres = tuple(COMMON_GENRES[i] for i in scene_idx)
    seed_idx = rng.choice(SCENE_GENRE_COUNT, size=SEED_GENRE_COUNT, replace=False)
    seed_genres = tuple(scene_genres[i] for i in seed_idx)

    # seeds and candidates are artist indices until the Trial is built;
    # ``chosen`` marks the artists already in the trial
    chosen = np.zeros(catalog.n, dtype=bool)
    seeds: list[int] = []
    for genre in seed_genres:
        top = top_popular_in_genre(catalog, genre, TOP_POPULAR_POOL)
        if top.size == 0:
            raise TrialSamplingError(f"seed genre {genre!r} has no artists in the catalog")
        picked = top[rng.choice(top.size, size=min(SEEDS_PER_GENRE, top.size), replace=False)]
        picked = picked[~chosen[picked]]
        chosen[picked] = True
        seeds.extend(picked.tolist())

    candidates: list[int] = []
    for genre in scene_genres:
        in_range = artists_in_range(catalog, genre, lo, hi)
        eligible = in_range[~chosen[in_range]]
        if eligible.size == 0:
            continue
        picked = eligible[rng.choice(eligible.size, size=min(CANDIDATES_PER_GENRE, eligible.size), replace=False)]
        chosen[picked] = True
        candidates.extend(picked.tolist())

    # relevant: a member of some seed genre
    seed_genre_members = np.concatenate([catalog.genre_ranking[g].indices for g in seed_genres])
    labels = tuple(np.isin(candidates, seed_genre_members).tolist())
    if not any(labels) or all(labels):
        raise TrialSamplingError(
            f"bin [{lo}, {hi}]: candidates are all of one relevance class ({len(candidates)} candidates)"
        )
    ids = catalog.ids
    return Trial(
        lo, hi, scene_genres, seed_genres, tuple(ids[i] for i in seeds), tuple(ids[i] for i in candidates), labels
    )


def auc(ranked_labels: Sequence[bool | int]) -> float:
    """AUC of a ranking given its relevance labels in ranked order: the
    fraction of (relevant, non-relevant) pairs where the relevant item comes
    first. The rank rule, ties to the smaller id, is ``run_experiment``'s
    lexsort, so the order is taken as final."""
    ranked = np.asarray(ranked_labels, dtype=bool)
    n_rel = int(np.count_nonzero(ranked))
    n_non = ranked.size - n_rel
    if n_rel == 0 or n_non == 0:
        raise ValueError("AUC needs at least one relevant and one non-relevant item")
    # each non-relevant item closes a pair with every relevant item above it
    correct = int(np.cumsum(ranked)[~ranked].sum())
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
        return wrmf.rank_candidates(model, vec, catalog.indices_of(trial.candidate_ids))

    return score


def make_vae_scorer(model: multvae.VaeModel, catalog: Catalog) -> RankFn:
    # the scorer, not the model, holds the output-row copy, so it is freed
    # with the scorer
    rows = multvae.output_rows(model)

    def score(trial: Trial, rng: np.random.Generator) -> np.ndarray:
        user = UserVector.from_ids(catalog, trial.seed_ids)
        return multvae.rank_candidates_vae(model, user, catalog.indices_of(trial.candidate_ids), rows)

    return score


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
            rng = np.random.default_rng([config.master_seed, b, t])
            for _ in range(MAX_TRIAL_RESAMPLES):
                try:
                    trial = sample_trial(catalog, bin_range, rng)
                    break
                except TrialSamplingError:
                    resamples[b] += 1
            else:
                failed[b] += 1
                continue
            # ids sort in catalog index order, so the smaller index is the
            # smaller id
            idx = catalog.indices_of(trial.candidate_ids)
            labels = np.array(trial.labels)
            for algo_idx, (name, score) in enumerate(selected):
                algo_rng = np.random.default_rng([config.master_seed, b, t, algo_idx])
                scores = np.asarray(score(trial, algo_rng), dtype=float)
                if scores.shape != idx.shape or not np.isfinite(scores).all():
                    raise ValueError(f"scorer {name!r} must return one finite score per candidate")
                per_bin_aucs[(name, b)].append((t, auc(labels[np.lexsort((idx, -scores))])))

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


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_report_csv(report: ExperimentReport, path: str | Path) -> None:
    rows = ([r.algorithm, r.bin_lo, r.bin_hi, r.n_trials, _fmt(r.mean_auc), _fmt(r.stderr)] for r in report.rows)
    _write_csv(path, REPORT_COLUMNS, rows)


def write_trials_csv(report: ExperimentReport, path: str | Path) -> None:
    rows = ([r.algorithm, r.bin_lo, r.bin_hi, t, repr(value)] for r in report.rows for t, value in r.trial_aucs)
    _write_csv(path, ("algorithm", "bin_lo", "bin_hi", "trial", "auc"), rows)


def write_plot_data_csv(report: ExperimentReport, path: str | Path) -> None:
    """Plot-ready rows: bin midpoint, mean AUC, standard error."""
    rows = ([r.algorithm, (r.bin_lo + r.bin_hi) / 2.0, _fmt(r.mean_auc), _fmt(r.stderr)] for r in report.rows)
    _write_csv(path, ("algorithm", "bin_mid", "mean_auc", "stderr"), rows)
