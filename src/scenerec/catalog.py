"""Artist catalog: popularity scores, genre tags, and the similarity graph.

The catalog is the shared data model every other module samples from or
trains on, and it is immutable after construction. Artists are sorted by id
and share one dense index; the similarity graph over that index is held in
CSR layout, one offsets array (``indptr``) into one flat array of similar
indices (``indices``), so whole-graph operations are numpy calls. Genre
membership is held once, as a table per genre of its members ranked by
popularity (most popular first, ties to the smaller index); trial sampling's
two queries read it with array operations: ``top_popular_in_genre`` takes a
prefix, ``artists_in_range`` a ``searchsorted`` slice put back in id order.
On disk a catalog is JSON Lines, one artist per line with fields ``id``,
``name``, ``popularity``, ``genres``, ``similar``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

# The 20 genre tags used as the default pool for synthetic catalogs and for
# scene sampling in the benchmark.
COMMON_GENRES: tuple[str, ...] = (
    "rock",
    "jazz",
    "punk",
    "reggae",
    "electronic",
    "metal",
    "indie r&b",
    "metalcore",
    "pop",
    "indie",
    "latin",
    "classical",
    "folk",
    "country",
    "dubstep",
    "indie pop",
    "rap",
    "tech house",
    "norteno",
    "house",
)


class CatalogError(ValueError):
    """Malformed catalog data: bad record, out-of-range popularity, or a
    similar-artist reference that cannot be resolved."""


@dataclass(frozen=True)
class Artist:
    """One artist record. ``popularity`` is an integer on the 0-100 scale;
    ``genres`` is an ordered, possibly empty list of distinct tags."""

    id: str
    name: str
    popularity: int
    genres: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.popularity, int) or isinstance(self.popularity, bool):
            raise CatalogError(f"artist {self.id!r}: popularity must be an integer, got {self.popularity!r}")
        if not 0 <= self.popularity <= 100:
            raise CatalogError(f"artist {self.id!r}: popularity {self.popularity} outside [0, 100]")
        if len(set(self.genres)) != len(self.genres):
            repeated = next(g for i, g in enumerate(self.genres) if g in self.genres[:i])
            raise CatalogError(f"artist {self.id!r}: genre {repeated!r} listed twice")


@dataclass(frozen=True, eq=False)
class SimilarityGraph:
    """Binary artist-artist adjacency in CSR layout: the artists listed as
    similar to artist i are ``indices[indptr[i]:indptr[i + 1]]``, sorted,
    unique and never i itself. Both arrays are int64; ``indptr`` has n + 1
    nondecreasing offsets starting at 0 and ending at the edge count."""

    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "SimilarityGraph":
        """The graph whose row i lists ``rows[i]``, taken as given."""
        indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows], dtype=np.int64)))
        indices = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1]))
        return cls(indptr, indices)

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def edge_count(self) -> int:
        return self.indices.size

    def row(self, i: int) -> np.ndarray:
        """View of the sorted indices similar to artist i."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def _row_of_edges(self) -> np.ndarray:
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))

    def to_dense(self) -> np.ndarray:
        """0/1 float matrix; intended for small graphs in tests and oracles."""
        dense = np.zeros((self.n, self.n))
        dense[self._row_of_edges(), self.indices] = 1.0
        return dense

    def transpose(self) -> "SimilarityGraph":
        """Incoming lists: a stable sort of the edges by target keeps each
        new row's sources in increasing order."""
        order = np.argsort(self.indices, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(self.indices, minlength=self.n))))
        return SimilarityGraph(indptr, self._row_of_edges()[order])

    def validate(self) -> None:
        """Raise CatalogError naming the first row with an index outside the
        artist index, indices that are not strictly increasing, or a
        self-loop."""
        indptr, indices = self.indptr, self.indices
        if indptr.size == 0 or indptr[0] != 0 or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0):
            raise CatalogError("row offsets do not partition the similar indices")
        row_of = self._row_of_edges()
        # an edge that does not exceed the one before it in the same row
        unsorted = (np.diff(row_of, prepend=-1) == 0) & (np.diff(indices, prepend=0) <= 0)
        checks = {
            "similar index outside the artist index": (indices < 0) | (indices >= self.n),
            "indices must be strictly increasing (set semantics)": unsorted,
            "self-loop": indices == row_of,
        }
        bad = np.flatnonzero(np.logical_or.reduce(list(checks.values())))
        if bad.size:
            i = int(row_of[bad[0]])
            edges = slice(indptr[i], indptr[i + 1])
            raise CatalogError(f"row {i}: {next(m for m, flags in checks.items() if flags[edges].any())}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimilarityGraph):
            return NotImplemented
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(self.indices, other.indices)


class GenreRanking(NamedTuple):
    """One genre's members ranked by popularity, most popular first, ties
    going to the smaller index: int32 artist indices and, in the same order,
    their int8 popularities negated, so the column ascends for
    ``searchsorted``."""

    indices: np.ndarray
    neg_popularity: np.ndarray


@dataclass(frozen=True, eq=False)
class Catalog:
    """Artists plus their similarity graph over a shared dense index.

    Row i of the graph belongs to ``artists[i]``; artists are kept sorted by
    id so the index (and everything derived from it) is deterministic.
    ``genre_ranking`` maps each genre tag to a GenreRanking of its members,
    built once on first use; it is the catalog's only genre index and
    serves ``genres`` and both sampling queries.
    """

    artists: tuple[Artist, ...]
    graph: SimilarityGraph

    @classmethod
    def build(cls, artists: Iterable[Artist], similar: Mapping[str, Sequence[str]]) -> "Catalog":
        """Construct and validate a catalog from artist records and per-id
        similar lists. Raises CatalogError on duplicate ids, dangling
        references, or self-references."""
        ordered = tuple(sorted(artists, key=lambda a: a.id))
        index: dict[str, int] = {}
        for pos, artist in enumerate(ordered):
            if artist.id in index:
                raise CatalogError(f"duplicate artist id {artist.id!r}")
            index[artist.id] = pos
        rows: list[list[int]] = []
        for artist in ordered:
            cols: set[int] = set()
            for ref in similar.get(artist.id, ()):
                if ref not in index:
                    raise CatalogError(f"artist {artist.id!r}: similar reference {ref!r} not in catalog")
                if ref == artist.id:
                    raise CatalogError(f"artist {artist.id!r}: listed as similar to itself")
                cols.add(index[ref])
            rows.append(sorted(cols))
        return cls(ordered, SimilarityGraph.from_rows(rows))

    @property
    def n(self) -> int:
        return len(self.artists)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.artists)

    @cached_property
    def index(self) -> Mapping[str, int]:
        return {a.id: i for i, a in enumerate(self.artists)}

    @cached_property
    def popularities(self) -> np.ndarray:
        return np.asarray([a.popularity for a in self.artists], dtype=np.int64)

    @cached_property
    def genre_ranking(self) -> Mapping[str, GenreRanking]:
        # one (genre code, artist index) pair per tag, sorted by genre, then
        # popularity descending, then index, and split at the genre sizes;
        # compact dtypes and no list of every tag keep the build's peak
        # memory low
        names = sorted({g for a in self.artists for g in a.genres})
        code_of = {g: c for c, g in enumerate(names)}
        tag_counts = np.fromiter((len(a.genres) for a in self.artists), dtype=np.int32, count=self.n)
        members = np.repeat(np.arange(self.n, dtype=np.int32), tag_counts)
        tag_codes = (code_of[g] for a in self.artists for g in a.genres)
        codes = np.fromiter(tag_codes, dtype=np.int32, count=members.size)
        neg_popularity = np.fromiter((-a.popularity for a in self.artists), dtype=np.int8, count=self.n)[members]
        order = np.lexsort((members, neg_popularity, codes))
        bounds = np.cumsum(np.bincount(codes, minlength=len(names)))[:-1]
        columns = zip(np.split(members[order], bounds), np.split(neg_popularity[order], bounds))
        return {name: GenreRanking(*column) for name, column in zip(names, columns)}

    @cached_property
    def genres(self) -> tuple[str, ...]:
        return tuple(sorted(self.genre_ranking))

    def index_hash(self) -> str:
        """Digest of the artist index; stored with trained models so a model
        is never scored against a catalog it was not trained on."""
        return hashlib.sha256("\n".join(self.ids).encode("utf-8")).hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Catalog):
            return NotImplemented
        return self.artists == other.artists and self.graph == other.graph


@dataclass(frozen=True)
class PercentileReport:
    """Popularity values of one artist subset at the 25/50/75/95th
    percentiles (nearest-rank)."""

    label: str
    count: int
    p25: int
    p50: int
    p75: int
    p95: int


@dataclass(frozen=True, eq=False)
class UserVector:
    """Sparse seed-artist indicator vector over a catalog's dense index."""

    indices: np.ndarray
    n: int

    @classmethod
    def from_ids(cls, catalog: Catalog, seed_ids: Iterable[str]) -> "UserVector":
        try:
            idx = sorted({catalog.index[s] for s in seed_ids})
        except KeyError as exc:
            raise CatalogError(f"unknown seed artist id {exc.args[0]!r}") from None
        return cls(np.asarray(idx, dtype=np.int64), catalog.n)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.n)
        dense[self.indices] = 1.0
        return dense

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UserVector):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.indices, other.indices)


_REQUIRED_FIELDS = ("id", "name", "popularity", "genres", "similar")


def load_catalog(path: str | Path) -> Catalog:
    """Load a JSON Lines catalog file. Rows end up sorted by id. Raises
    CatalogError on any malformed record or unresolvable reference."""
    artists: list[Artist] = []
    similar: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CatalogError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(record, dict) or any(f not in record for f in _REQUIRED_FIELDS):
                raise CatalogError(f"{path}:{lineno}: record must have fields {', '.join(_REQUIRED_FIELDS)}")
            if not isinstance(record["genres"], list) or not all(isinstance(g, str) for g in record["genres"]):
                raise CatalogError(f"{path}:{lineno}: genres must be a list of strings")
            if not isinstance(record["similar"], list) or not all(isinstance(s, str) for s in record["similar"]):
                raise CatalogError(f"{path}:{lineno}: similar must be a list of ids")
            artist = Artist(
                id=str(record["id"]),
                name=str(record["name"]),
                popularity=record["popularity"],
                genres=tuple(record["genres"]),
            )
            artists.append(artist)
            similar[artist.id] = list(record["similar"])
    return Catalog.build(artists, similar)


def save_catalog(catalog: Catalog, path: str | Path) -> None:
    """Write a catalog as JSON Lines; output is byte-deterministic for a
    given catalog (rows in index order, similar lists in id order)."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, artist in enumerate(catalog.artists):
            record = {
                "id": artist.id,
                "name": artist.name,
                "popularity": artist.popularity,
                "genres": list(artist.genres),
                "similar": [catalog.ids[j] for j in catalog.graph.row(i).tolist()],
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def nearest_rank(values: Sequence[int], p: int) -> int:
    """Nearest-rank percentile: the value at 1-based rank ceil(p*n/100) of
    the ascending-sorted sample."""
    ordered = sorted(values)
    if not ordered:
        raise CatalogError("percentile of an empty sample")
    rank = math.ceil(p * len(ordered) / 100)
    return ordered[max(rank, 1) - 1]


def popularity_percentiles(catalog: Catalog, label: str = "all") -> PercentileReport:
    """Popularity percentiles of the catalog's artists. An empty catalog is
    an error, not a report of zeros."""
    subset = sorted(a.popularity for a in catalog.artists)
    if not subset:
        raise CatalogError(f"percentile subset {label!r} is empty")
    return PercentileReport(
        label=label,
        count=len(subset),
        p25=nearest_rank(subset, 25),
        p50=nearest_rank(subset, 50),
        p75=nearest_rank(subset, 75),
        p95=nearest_rank(subset, 95),
    )


def artists_in_range(catalog: Catalog, genre: str, lo: int, hi: int) -> list[str]:
    """Ids of artists tagged with ``genre`` whose popularity lies in the
    closed range [lo, hi], in id order. Unknown genres yield an empty list."""
    if not (0 <= lo <= hi <= 100):
        raise ValueError(f"invalid popularity range [{lo}, {hi}]")
    ranking = catalog.genre_ranking.get(genre)
    if ranking is None:
        return []
    # the members in range are one contiguous run of the ranking
    start = np.searchsorted(ranking.neg_popularity, -hi, side="left")
    stop = np.searchsorted(ranking.neg_popularity, -lo, side="right")
    ids = catalog.ids
    return [ids[i] for i in np.sort(ranking.indices[start:stop]).tolist()]


def top_popular_in_genre(catalog: Catalog, genre: str, n: int) -> list[str]:
    """Up to n ids for the genre, most popular first; popularity ties break
    toward the smaller id."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ranking = catalog.genre_ranking.get(genre)
    if ranking is None:
        return []
    ids = catalog.ids
    return [ids[i] for i in ranking.indices[:n].tolist()]
