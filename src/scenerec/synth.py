"""Snowball crawling of a loaded catalog, and synthetic catalog generation.

The crawler stands in for expanding a music platform's similar-artist API
from seed artists: it walks a catalog's similarity graph breadth-first from
a seed set until it hits a fetch limit, and keeps the sub-catalog it reached.
The generator fabricates a whole catalog with long-tail popularity and
genre-clustered similar lists, so experiments can run at desk scale without
any external service.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from scenerec.catalog import COMMON_GENRES, Artist, Catalog, SimilarityGraph, load_catalog

# Similar-list targets are drawn with weight (1 + popularity) ** BIAS, so
# popular artists collect far more incoming edges than obscure ones. That
# skew is the structural trait the popularity-bin benchmark probes.
POPULARITY_BIAS_EXPONENT = 2.0


class CrawlError(RuntimeError):
    """A seed artist is not in the crawled catalog."""


class FixtureProvider(Catalog):
    """The catalog in a fixture file, ready to crawl. It is a plain loaded
    catalog; the name stays because perfbench's ``catalog-50k`` workload
    builds one and times its ``__init__`` as ``synth.fixture``."""

    def __init__(self, path: str | Path):
        loaded = load_catalog(path)
        object.__setattr__(self, "artists", loaded.artists)
        object.__setattr__(self, "graph", loaded.graph)


def snowball_crawl(catalog: Catalog, seeds: Sequence[str], limit: int) -> Catalog:
    """Breadth-first expansion from ``seeds``: fetch each frontier artist,
    enqueue its not yet seen similar artists in id order, stop once
    ``limit`` artists are fetched or the frontier empties.

    A seed that would be fetched but is not in ``catalog`` is a CrawlError.
    Similar lists in the result are restricted to fetched artists, so the
    catalog invariants hold no matter where the crawl stopped.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    # the queue is also the fetch order, so the fetched artists are its
    # first ``limit`` entries
    queue_ids = list(dict.fromkeys(seeds))[:limit]
    missing = [s for s in queue_ids if s not in catalog.index]
    if missing:
        raise CrawlError(f"seed artist {missing[0]!r} not in catalog")
    queue = [catalog.index[s] for s in queue_ids]
    seen = np.zeros(catalog.n, dtype=bool)
    seen[queue] = True
    head = 0
    while head < len(queue) < limit:
        row = catalog.graph.row(queue[head])
        head += 1
        new = row[~seen[row]]
        seen[new] = True
        queue.extend(new.tolist())
    keep = sorted(queue[:limit])
    remap = np.full(catalog.n, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    # the remap keeps each row sorted; unfetched targets map to -1
    rows = [remap[catalog.graph.row(i)] for i in keep]
    graph = SimilarityGraph.from_rows([row[row >= 0] for row in rows])
    return Catalog(tuple(catalog.artists[i] for i in keep), graph)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic catalog generator.

    ``popularity_exponent`` is the decay rate of the discrete power law over
    popularity 0..100 (0.7 puts the median near 17 so the catalog mimics a
    pool of mostly obscure artists). ``intra_genre_prob`` and
    ``cross_genre_prob`` weight same-genre vs other targets when sampling
    similar lists; keeping the first much larger yields genre clusters.
    """

    seed: int
    artist_count: int = 5000
    genre_count: int = 20
    popularity_exponent: float = 0.7
    intra_genre_prob: float = 0.9
    cross_genre_prob: float = 0.05
    similar_per_artist: int = 20

    def __post_init__(self) -> None:
        if self.artist_count < 0 or self.genre_count < 0:
            raise ValueError("counts must be >= 0")
        if not (0.0 <= self.intra_genre_prob <= 1.0 and 0.0 <= self.cross_genre_prob <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.similar_per_artist < 1:
            raise ValueError("similar_per_artist must be >= 1")
        if not np.isfinite(self.popularity_exponent):
            raise ValueError(f"popularity_exponent must be finite, got {self.popularity_exponent}")


def genre_names(count: int) -> tuple[str, ...]:
    """The common 20 tags first, then generated names for any excess."""
    names = list(COMMON_GENRES[:count])
    names += [f"genre-{i}" for i in range(len(names) + 1, count + 1)]
    return tuple(names)


def _weighted_sample_excluding(
    rng: np.random.Generator, cum: np.ndarray, n_positive: int, exclude: int, k: int
) -> np.ndarray:
    """Draw k distinct indices != ``exclude`` proportional to the weights
    behind the cumulative sum ``cum`` (successive sampling without
    replacement, realized by inverse-CDF draws with duplicate rejection).
    Zero-weight indices are never drawn; if fewer than k positive-weight
    candidates exist, all of them are returned."""
    excludable = 1 if exclude >= 0 and cum[exclude] > (cum[exclude - 1] if exclude > 0 else 0.0) else 0
    if n_positive - excludable <= k:
        deltas = np.diff(cum, prepend=0.0)
        picks = np.flatnonzero(deltas > 0)
        return picks[picks != exclude]
    total = cum[-1]
    chosen: list[int] = []
    seen: set[int] = {exclude}
    while len(chosen) < k:
        draws = np.searchsorted(cum, rng.random(2 * k) * total, side="right")
        for j in draws:
            if j not in seen:
                seen.add(int(j))
                chosen.append(int(j))
                if len(chosen) == k:
                    break
    return np.asarray(chosen, dtype=np.int64)


def generate_catalog(config: SynthConfig) -> Catalog:
    """Deterministic synthetic catalog: long-tail popularity, 1-3 genres per
    artist, and similar lists that prefer same-genre and higher-popularity
    targets (so popular artists have the high in-degree seen in real
    similar-artist data)."""
    n = config.artist_count
    if n == 0:
        return Catalog.build([], {})
    if n <= config.similar_per_artist:
        raise ValueError(
            f"artist count {n} too small for similar lists of length {config.similar_per_artist}"
        )
    if config.genre_count == 0:
        raise ValueError("genre_count must be >= 1 for a nonempty catalog")
    rng = np.random.default_rng(config.seed)
    genres = genre_names(config.genre_count)

    levels = np.arange(101, dtype=np.float64)
    pop_weights = (levels + 1.0) ** -config.popularity_exponent
    pop_weights /= pop_weights.sum()
    popularity = rng.choice(101, size=n, p=pop_weights)

    membership = np.zeros((n, config.genre_count), dtype=bool)
    genre_lists: list[tuple[str, ...]] = []
    for i in range(n):
        count = int(rng.integers(1, min(3, config.genre_count) + 1))
        chosen = rng.choice(config.genre_count, size=count, replace=False)
        membership[i, chosen] = True
        genre_lists.append(tuple(genres[g] for g in chosen))

    width = max(5, len(str(n - 1)))
    ids = [f"a{i:0{width}d}" for i in range(n)]
    target_weight = (1.0 + popularity.astype(np.float64)) ** POPULARITY_BIAS_EXPONENT

    # Artists sharing a genre set see identical target weights, so group them
    # and build each cumulative weight vector once. Draw order stays fixed
    # (groups by key, artists by index) to keep the output deterministic.
    by_genre_set: dict[tuple[int, ...], list[int]] = {}
    for i in range(n):
        by_genre_set.setdefault(tuple(np.flatnonzero(membership[i])), []).append(i)

    similar: dict[str, list[str]] = {}
    for key in sorted(by_genre_set):
        shares_genre = membership[:, key].any(axis=1)
        weights = np.where(shares_genre, config.intra_genre_prob, config.cross_genre_prob) * target_weight
        cum = np.cumsum(weights)
        n_positive = int(np.count_nonzero(weights))
        for i in by_genre_set[key]:
            picks = _weighted_sample_excluding(rng, cum, n_positive, i, config.similar_per_artist)
            similar[ids[i]] = [ids[j] for j in sorted(picks)]

    artists = [
        Artist(id=ids[i], name=f"Artist {ids[i][1:]}", popularity=int(popularity[i]), genres=genre_lists[i])
        for i in range(n)
    ]
    return Catalog.build(artists, similar)
