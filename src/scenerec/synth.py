"""Synthetic catalog generation, and the snowball crawl of a loaded catalog.

The generator fabricates a whole catalog with long-tail popularity and
genre-clustered similar lists, so experiments can run at desk scale without
any external service. It draws each artist's popularity level, then 1-3
distinct genres, then every similar list by exact rejection sampling: a
target j of artist i weighs (intra if j shares a genre with i else cross) *
(1 + pop_j) ** 2, proposals come from i's genres or from the whole catalog,
and those accepted are independent draws of that weight, of which the row
keeps the first k distinct. Rows are drawn a block at a time with array
operations, so a catalog depends only on the generator's ``choice``,
``integers`` and ``random`` calls.

The crawl keeps what a breadth-first walk of a catalog's similarity graph
from seed artists reaches within a fetch limit. It has no command line and
stays only for perfbench's ``catalog-50k`` workload (ROADMAP items 2, 4).
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

    A seed that would be fetched but is not in ``catalog`` is a CatalogError.
    Similar lists in the result are restricted to fetched artists, so the
    catalog invariants hold no matter where the crawl stopped.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    # the queue is also the fetch order, so the fetched artists are its
    # first ``limit`` entries
    queue = catalog.indices_of(list(dict.fromkeys(seeds))[:limit]).tolist()
    seen = np.zeros(catalog.n, dtype=bool)
    seen[queue] = True
    head = 0
    while head < len(queue) < limit:
        row = catalog.graph.row(queue[head])
        head += 1
        new = row[~seen[row]]
        seen[new] = True
        queue.extend(new.tolist())
    keep = np.sort(np.array(queue[:limit], dtype=np.int64))
    remap = np.full(catalog.n, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    # the remap keeps each row sorted; unfetched targets map to -1
    position, target = catalog.graph.edges(keep)
    target = remap[target]
    fetched = target >= 0
    indptr = np.concatenate(([0], np.cumsum(np.bincount(position[fetched], minlength=keep.size))))
    return Catalog(tuple(catalog.artists[i] for i in keep.tolist()), SimilarityGraph(indptr, target[fetched]))


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.artist_count < 0 or self.genre_count < 0:
            raise ValueError("counts must be >= 0")
        if not (0.0 <= self.intra_genre_prob <= 1.0 and 0.0 <= self.cross_genre_prob <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.similar_per_artist < 1:
            raise ValueError("similar_per_artist must be >= 1")
        if not np.isfinite(self.popularity_exponent):
            raise ValueError(f"popularity_exponent must be finite, got {self.popularity_exponent}")
        if not np.isfinite(_popularity_weights(self.popularity_exponent)).all():
            raise ValueError(
                f"popularity_exponent {self.popularity_exponent} overflows the popularity weights "
                "(1 + level) ** -exponent"
            )


def genre_name(code: int) -> str:
    """Genre ``code``'s name: the 20 common tags first, then ``genre-{code + 1}``."""
    return COMMON_GENRES[code] if code < len(COMMON_GENRES) else f"genre-{code + 1}"


# Proposals a similar list may go without a new pick before the generator
# gives up on it: a row short of same-genre targets waits on cross-genre
# picks, which get rarer as cross_genre_prob shrinks.
MAX_ROW_ATTEMPTS = 1_000_000

# Similar lists are drawn this many rows at a time. One round of proposals
# for the rows still short holds up to _ROUND_PROPOSALS of them (but at
# least 2k a row), so the draw's scratch arrays stay a few MB.
_ROW_BLOCK = 1024
_ROUND_PROPOSALS = 1 << 18


def _popularity_weights(exponent: float) -> np.ndarray:
    """P(popularity = level) for levels 0..100, a discrete power law; not
    finite where ``exponent`` overflows it."""
    with np.errstate(all="ignore"):
        weights = (np.arange(101, dtype=np.float64) + 1.0) ** -exponent
        return weights / weights.sum()


def _draw_genres(rng: np.random.Generator, n: int, genre_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Each artist's 1-3 distinct genres in draw order, as an (n, 3) array
    whose unused slots repeat the first genre, and the counts. Draw t is
    uniform on [0, genre_count - t) and steps past each genre already taken
    at or below it, in increasing order, so it is uniform on the genres left."""
    counts = rng.integers(1, min(3, genre_count) + 1, size=n)
    drawn = np.repeat(rng.integers(0, genre_count, size=n)[:, None], 3, axis=1)
    for t in range(1, min(3, genre_count)):
        rows = np.flatnonzero(counts > t)
        value = rng.integers(0, genre_count - t, size=rows.size)
        for taken in np.sort(drawn[rows, :t], axis=1).T:
            value += value >= taken
        drawn[rows, t] = value
    return drawn, counts


def _genres_in_common(genres: np.ndarray, counts: np.ndarray, i: np.ndarray | int, j: np.ndarray) -> np.ndarray:
    """How many of artist ``i``'s genres artist ``j`` has (broadcast index
    arrays). ``genres`` is (3, n): row t holds each artist's t-th genre,
    unused slots repeating the first; ``counts`` says how many are used."""
    theirs = [slot[j] for slot in genres]
    common = np.zeros(np.broadcast(i, j).shape, dtype=np.int64)
    for t, slot in enumerate(genres):
        mine = np.where(counts[i] > t, slot[i], -1)
        common += (mine == theirs[0]) | (mine == theirs[1]) | (mine == theirs[2])
    return common


def _first_distinct(seq: np.ndarray, own: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``seq``, the first k distinct values other than the row's
    ``own`` index, in any order and padded with ``own`` to width k, and how
    many there are. A stable sort puts each value's earliest copy first."""
    order = np.argsort(seq, axis=1, kind="stable")
    ranked = np.take_along_axis(seq, order, axis=1)
    first = ranked != own[:, None]
    first[:, 1:] &= ranked[:, 1:] != ranked[:, :-1]
    fresh = np.empty_like(first)
    np.put_along_axis(fresh, order, first, axis=1)
    taken = np.cumsum(fresh, axis=1)
    row, col = np.nonzero(fresh & (taken <= k))
    picks = np.repeat(own[:, None], k, axis=1)
    picks[row, taken[row, col] - 1] = seq[row, col]
    return picks, np.minimum(taken[:, -1], k)


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
    k = config.similar_per_artist
    intra, cross = config.intra_genre_prob, config.cross_genre_prob

    popularity = rng.choice(101, size=n, p=_popularity_weights(config.popularity_exponent))
    drawn, counts = _draw_genres(rng, n, config.genre_count)
    # artists with one ordered genre list share one tuple of names
    ordered = [tuple(row[:c]) for row, c in zip(drawn.tolist(), counts.tolist())]
    named = {key: tuple(map(genre_name, key)) for key in set(ordered)}
    width = max(5, len(str(n - 1)))
    ids = [f"a{i:0{width}d}" for i in range(n)]
    names = [f"Artist {aid[1:]}" for aid in ids]
    artists = tuple(map(Artist, ids, names, popularity.tolist(), map(named.__getitem__, ordered)))
    if intra == cross == 0:
        # no target has positive weight, so every row is empty
        return Catalog(artists, SimilarityGraph(np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)))

    # Segment 0 of ``members`` lists every artist and segment 1 + g, which
    # ends at segment_end[1 + g], the artists of genre g in index order.
    listed = drawn[np.arange(3) < counts[:, None]]
    members = np.concatenate((np.arange(n), np.repeat(np.arange(n), counts)[np.argsort(listed, kind="stable")]))
    genre_size = np.bincount(listed, minlength=config.genre_count)
    segment_end = n + np.concatenate(([0], np.cumsum(genre_size)))

    # Row i of the graph is picks[i, :length[i]]. A target j != i has weight
    # (intra if it shares a genre with i else cross) * (1 + pop_j) ** BIAS.
    # A row with at most k positive-weight targets is all of them. With both
    # weights positive those are the other n - 1 artists, so only n = k + 1
    # comes that short. With cross 0 they are the union of i's genre
    # segments, short only if each segment holds at most k + 1 artists; with
    # intra 0 the artists outside it, short only if the segments hold n - k
    # together. Each genre set that may be short gets its union once.
    size = genre_size[drawn] * (np.arange(3) < counts[:, None])
    may_be_short = np.full(n, n == k + 1)
    if cross == 0:
        may_be_short |= size.max(axis=1) <= k + 1
    if intra == 0:
        may_be_short |= size.sum(axis=1) >= n - k
    length = np.full(n, k + 1)
    picks = np.empty((n, k), dtype=np.int64)
    # the artists of one genre set have the same targets but for themselves
    targets: dict[tuple[int, ...], np.ndarray] = {}
    for i in np.flatnonzero(may_be_short).tolist():
        key = tuple(sorted(set(drawn[i].tolist())))
        if key not in targets:
            union = np.unique(np.concatenate([members[segment_end[g] : segment_end[g + 1]] for g in key]))
            if cross > 0:
                union = np.setdiff1d(np.arange(n), union) if intra == 0 else np.arange(n)
            targets[key] = union
        # i is a target of its own genre set exactly when intra > 0
        if targets[key].size - (intra > 0) <= k:
            length[i] = targets[key].size - (intra > 0)
            picks[i, : length[i]] = targets[key][targets[key] != i]
    short = length <= k
    length[~short] = k

    # The other rows are drawn by rejection. A proposal for row i takes
    # segment 0 with weight cross * (its total (1 + pop) ** BIAS) or one of
    # i's genres with weight intra * (that segment's total), then an artist
    # of the segment in proportion to (1 + pop) ** BIAS. An artist with c of
    # i's genres comes up in proportion to (cross + intra * c) *
    # (1 + pop) ** BIAS and is accepted with probability (intra if c else
    # cross) / (cross + intra * c), so accepted proposals are independent
    # draws of the row's weights. The row keeps the first k distinct ones
    # other than i: their successive sample.
    by_slot = drawn.T.astype(np.int32)
    cum = np.cumsum((1.0 + popularity[members]) ** POPULARITY_BIAS_EXPONENT)
    segment_top = cum[segment_end - 1]
    segment_base = np.concatenate(([0.0], segment_top[:-1]))
    segments = np.concatenate((np.zeros((n, 1), dtype=np.int64), 1 + drawn), axis=1)
    choice = np.where(segments > 0, intra, cross) * (np.arange(4) <= counts[:, None])
    choice_cum = np.cumsum(choice * (segment_top - segment_base)[segments], axis=1)
    rows = np.flatnonzero(~short)
    for start in range(0, rows.size, _ROW_BLOCK):
        block = rows[start : start + _ROW_BLOCK]
        found = np.repeat(block[:, None], k, axis=1)
        got = np.zeros(block.size, dtype=np.int64)
        # proposals since each row's last new pick
        idle = np.zeros(block.size, dtype=np.int64)
        batch = 2 * k
        while block.size:
            batch = min(batch, max(2 * k, _ROUND_PROPOSALS // block.size))
            shape = (block.size, batch)
            draw = rng.random(shape) * choice_cum[block, -1:]
            segment = segments[block[:, None], (draw[..., None] >= choice_cum[block, None, :-1]).sum(axis=-1)]
            base = segment_base[segment]
            at = np.searchsorted(cum, base + rng.random(shape) * (segment_top[segment] - base), side="right")
            proposal = members[np.minimum(at, segment_end[segment] - 1)]
            common = _genres_in_common(by_slot, counts, block[:, None], proposal)
            accepted = rng.random(shape) * (cross + intra * common) < np.where(common > 0, intra, cross)
            # the accepted proposals, in draw order after the picks so far
            slot = np.cumsum(accepted, axis=1) + (k - 1)
            seq = np.repeat(block[:, None], slot[:, -1].max() + 1, axis=1)
            seq[:, :k] = found
            row, col = np.nonzero(accepted)
            seq[row, slot[row, col]] = proposal[row, col]
            found, now = _first_distinct(seq, block, k)
            idle = np.where(now > got, 0, idle + batch)
            done = now == k
            picks[block[done]] = np.sort(found[done], axis=1)
            block, found, got, idle = block[~done], found[~done], now[~done], idle[~done]
            batch += batch // 2
            if (idle >= MAX_ROW_ATTEMPTS).any():
                stalled = np.argmax(idle >= MAX_ROW_ATTEMPTS)
                raise ValueError(
                    f"artist index {block[stalled]}: {got[stalled]} of {k} similar artists after "
                    f"{MAX_ROW_ATTEMPTS} attempts; raise --cross or lower --similar-per-artist"
                )

    # the zero-padded ids sort in index order, so the rows are already the
    # catalog's CSR rows
    indptr = np.concatenate(([0], np.cumsum(length)))
    indices = picks[np.arange(k) < length[:, None]]
    return Catalog(artists, SimilarityGraph(indptr, indices))
