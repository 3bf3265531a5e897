"""Snowball crawling of a loaded catalog, and synthetic catalog generation.

The crawler stands in for expanding a music platform's similar-artist API
from seed artists: it walks a catalog's similarity graph breadth-first from
a seed set until it hits a fetch limit, and keeps the sub-catalog it reached.
The generator fabricates a whole catalog with long-tail popularity and
genre-clustered similar lists, so experiments can run at desk scale without
any external service. It works in index space. Every artist's genre set is
decoded in one pass from the bit generator's raw PCG64 words: the values,
and the generator state after them, that one ``rng.integers`` and one
``rng.choice(..., replace=False)`` per artist would give (so a catalog
depends on those words and on numpy's bounded-draw algorithm, which the
tests check against the per-artist calls). Then the similar lists are drawn
group by group (artists sharing a genre set) from one stream of doubles;
a group's target weights start from the cross-genre weights and are
overwritten at its genres' members only, from member lists built once.
Most rows are drawn a block at a time with array operations, and written
straight into the CSR graph; id strings are made only for the artist
records.
"""

from __future__ import annotations

import itertools
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


def genre_names(count: int) -> tuple[str, ...]:
    """The common 20 tags first, then generated names for any excess."""
    names = list(COMMON_GENRES[:count])
    names += [f"genre-{i}" for i in range(len(names) + 1, count + 1)]
    return tuple(names)


# Attempts one similar list may take: a row short of same-genre targets
# waits on cross-genre picks, ~1 / cross_genre_prob attempts each.
MAX_ROW_ATTEMPTS = 100_000

# Doubles read ahead per refill of the similar-list draw stream. Small
# enough that the buffer stays cache-sized next to the catalog arrays.
_DRAW_BLOCK = 16384


class _DrawStream:
    """The generator's doubles as one stream. Consecutive ``rng.random``
    calls read consecutive doubles, so reading ahead in blocks and handing
    the doubles out in order gives the values one call per request would."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buffer = np.empty(0)
        self._pos = 0

    def peek(self, count: int) -> np.ndarray:
        """The next ``count`` doubles, without consuming them."""
        if self._pos + count > self._buffer.size:
            rest = self._buffer[self._pos :]
            self._buffer = np.concatenate((rest, self._rng.random(max(_DRAW_BLOCK, count - rest.size))))
            self._pos = 0
        return self._buffer[self._pos : self._pos + count]

    def skip(self, count: int) -> None:
        self._pos += count


def _sample_row(stream: _DrawStream, cum: np.ndarray, exclude: int, k: int) -> np.ndarray:
    """Draw k distinct indices != ``exclude`` proportional to the weights
    behind the cumulative sum ``cum`` (successive sampling without
    replacement, realized by inverse-CDF draws with duplicate rejection):
    each attempt reads 2k doubles, and attempts repeat until k are found,
    at most MAX_ROW_ATTEMPTS times."""
    chosen: list[int] = []
    seen: set[int] = {exclude}
    for _ in range(MAX_ROW_ATTEMPTS):
        draws = np.searchsorted(cum, stream.peek(2 * k) * cum[-1], side="right")
        stream.skip(2 * k)
        for j in draws.tolist():
            if j not in seen:
                seen.add(j)
                chosen.append(j)
                if len(chosen) == k:
                    return np.asarray(chosen, dtype=np.int64)
    raise ValueError(
        f"artist index {exclude}: {len(chosen)} of {k} similar artists after {MAX_ROW_ATTEMPTS} attempts; "
        "raise --cross or lower --similar-per-artist"
    )


def _sample_rows(stream: _DrawStream, cum: np.ndarray, rows: np.ndarray, k: int, out: np.ndarray) -> None:
    """``_sample_row`` for each of ``rows`` in turn, written sorted to
    ``out[row]``. Most rows find k distinct picks in their first 2k draws,
    so a block of rows is drawn and resolved at once on that assumption; the
    first row that needs more draws is finished by ``_sample_row`` from the
    same stream, and the next block starts at the first unused double."""
    per_block = max(1, _DRAW_BLOCK // (2 * k))
    start = 0
    while start < rows.size:
        block = rows[start : start + per_block]
        draws = stream.peek(2 * k * block.size) * cum[-1]
        # searched in sorted order, successive searches walk ``cum`` forward
        # and stay in cache; the picks are scattered back to draw order
        by_value = np.argsort(draws)
        picks = np.empty(draws.size, dtype=np.int64)
        picks[by_value] = np.searchsorted(cum, draws[by_value], side="right")
        picks = picks.reshape(block.size, 2 * k)
        # a stable sort puts each value's earliest draw first among its copies
        order = np.argsort(picks, axis=1, kind="stable")
        ranked = np.take_along_axis(picks, order, axis=1)
        first = ranked != block[:, None]
        first[:, 1:] &= ranked[:, 1:] != ranked[:, :-1]
        fresh = np.empty_like(first)
        np.put_along_axis(fresh, order, first, axis=1)
        taken = np.cumsum(fresh, axis=1)
        done = taken[:, -1] >= k
        ok = block.size if done.all() else int(np.argmin(done))
        keep = fresh[:ok] & (taken[:ok] <= k)
        out[block[:ok]] = np.sort(picks[:ok][keep].reshape(ok, k), axis=1)
        stream.skip(2 * k * ok)
        start += ok
        if ok < block.size:
            out[block[ok]] = np.sort(_sample_row(stream, cum, int(block[ok]), k))
            start += 1


# PCG64 words read ahead per refill of the genre decode: a few thousand
# artists' draws, most of them two words each.
_WORD_BLOCK = 4096

_HALF = 1 << 32


def _draw_genre_sets(rng: np.random.Generator, n: int, genre_count: int) -> list[list[int]]:
    """The lists that ``n`` rounds of ``count = rng.integers(1, min(3,
    genre_count) + 1)`` then ``rng.choice(genre_count, size=count,
    replace=False).tolist()`` return, leaving ``rng`` in the state those
    calls would (``rng`` must be PCG64-backed).

    Both calls take 32-bit halves from the bit generator: each 64-bit word
    gives its low half, and keeps its high half for the next call. A bounded
    draw on [0, r] is Lemire's method: m = half * (r + 1), taking the next
    half while m mod 2**32 < (2**32 - (r + 1)) mod (r + 1), and the value is
    m >> 32; r = 0 reads nothing. ``choice`` runs Floyd's algorithm (for j
    from genre_count - count to genre_count - 1, take bounded(j), or j if
    that is taken), then shuffles: for i from count - 1 down to 1, swap
    items i and bounded(i). The words are read ahead on a copy of the bit
    generator and decoded in Python ints; ``rng`` then skips the words used.
    """
    bitgen = rng.bit_generator
    start = bitgen.state
    ahead = type(bitgen)()
    ahead.state = start
    # halves[pos] is the next half; halves[pos - 1] the last one handed out
    halves = [start["uinteger"]]
    pos = 0 if start["has_uint32"] else 1
    read = 0

    def bounded(r: int) -> int:
        nonlocal halves, pos, read
        if r == 0:
            return 0
        threshold = (_HALF - r - 1) % (r + 1)
        while True:
            if pos == len(halves):
                # little-endian halves: each word's low half comes first
                halves = ahead.random_raw(_WORD_BLOCK).astype("<u8").view("<u4").tolist()
                pos = 0
                read += _WORD_BLOCK
            m = halves[pos] * (r + 1)
            pos += 1
            if m % _HALF >= threshold:
                return m >> 32

    top = min(3, genre_count) - 1
    sets = []
    for _ in range(n):
        count = bounded(top) + 1
        chosen: list[int] = []
        for j in range(genre_count - count, genre_count):
            v = bounded(j)
            chosen.append(j if v in chosen else v)
        for i in range(count - 1, 0, -1):
            s = bounded(i)
            chosen[i], chosen[s] = chosen[s], chosen[i]
        sets.append(chosen)

    # an odd number of unused halves leaves a high half buffered; numpy keeps
    # the last high half in ``uinteger`` even after handing it out
    unused = len(halves) - pos
    buffered = unused % 2
    bitgen.advance(read - unused // 2)
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = buffered, halves[pos - 1 + buffered]
    bitgen.state = state
    return sets


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
    k = config.similar_per_artist

    levels = np.arange(101, dtype=np.float64)
    pop_weights = (levels + 1.0) ** -config.popularity_exponent
    pop_weights /= pop_weights.sum()
    popularity = rng.choice(101, size=n, p=pop_weights)

    # Each artist's 1-3 genres, in draw order, decoded from the raw words in
    # one pass rather than by two numpy calls per artist (same values, same
    # rng state after). Artists sharing a genre set see identical target
    # weights, so they are grouped by their sorted genre indices and each
    # cumulative weight vector is built once. Each genre's members are
    # listed once, in index order, so a group writes only its genres'
    # members besides the one cumulative sum.
    genre_sets = _draw_genre_sets(rng, n, config.genre_count)
    sizes = np.fromiter(map(len, genre_sets), dtype=np.int64, count=n)
    flat = np.fromiter(itertools.chain.from_iterable(genre_sets), dtype=np.int64)
    owner = np.repeat(np.arange(n), sizes)
    genre_bounds = np.cumsum(np.bincount(flat, minlength=config.genre_count))[:-1]
    genre_members = np.split(owner[np.argsort(flat, kind="stable")], genre_bounds)
    # artists with one ordered genre list share one tuple of names
    ordered = list(map(tuple, genre_sets))
    named = {key: tuple(map(genres.__getitem__, key)) for key in set(ordered)}
    genre_lists = list(map(named.__getitem__, ordered))
    by_genre_set: dict[tuple[int, ...], list[int]] = {}
    for i, chosen in enumerate(genre_sets):
        by_genre_set.setdefault(tuple(sorted(chosen)), []).append(i)

    target_weight = (1.0 + popularity.astype(np.float64)) ** POPULARITY_BIAS_EXPONENT
    # each group picks one of these products per target; a genre's members
    # take their intra weights, in member order, in every group it is in
    cross_weight = config.cross_genre_prob * target_weight
    intra_by_genre = [config.intra_genre_prob * target_weight[m] for m in genre_members]

    # Row i of the graph is picks[i, :length[i]]. Draw order stays fixed
    # (groups by key, artists by index) to keep the output deterministic.
    picks = np.empty((n, k), dtype=np.int64)
    length = np.full(n, k, dtype=np.int64)
    stream = _DrawStream(rng)
    # reused by every group
    weights = np.empty(n)
    cum = np.empty(n)
    for key in sorted(by_genre_set):
        members = np.asarray(by_genre_set[key])
        np.copyto(weights, cross_weight)
        for g in key:
            weights[genre_members[g]] = intra_by_genre[g]
        np.cumsum(weights, out=cum)
        # a weight is prob * target_weight with target_weight >= 1, so it is
        # positive exactly where its probability is
        n_positive = int(np.count_nonzero(weights))
        # an artist whose own weight is positive could draw itself
        excludable = cum[members] > np.where(members > 0, cum[members - 1], 0.0)
        few = n_positive - excludable <= k
        if few.any():
            # too few candidates: the row is every positive-weight index but i
            positive = np.flatnonzero(np.diff(cum, prepend=0.0) > 0)
            for i in members[few].tolist():
                row = positive[positive != i]
                picks[i, : row.size] = row
                length[i] = row.size
        _sample_rows(stream, cum, members[~few], k, picks)

    width = max(5, len(str(n - 1)))
    ids = [f"a{i:0{width}d}" for i in range(n)]
    names = [f"Artist {aid[1:]}" for aid in ids]
    artists = tuple(map(Artist, ids, names, popularity.tolist(), genre_lists))
    # the zero-padded ids sort in index order, so the rows are already the
    # catalog's CSR rows
    indptr = np.concatenate(([0], np.cumsum(length)))
    indices = picks[np.arange(k) < length[:, None]]
    return Catalog(artists, SimilarityGraph(indptr, indices))
