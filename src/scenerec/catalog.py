"""Artist catalog: popularity scores, genre tags, and the similarity graph.

The catalog is the shared data model every other module samples from or
trains on, and it is immutable after construction. Artists are sorted by id
and share one dense index, which ids map to only by ``Catalog.indices_of``.
The graph over that index is CSR, one offsets array (``indptr``) into one
flat array of similar indices (``indices``): whole-graph operations are
numpy calls, and ``SimilarityGraph.edges`` reads a set of rows. Genre
membership is held once, as a table per genre of its members ranked by
popularity (most popular first, ties to the smaller index); trial sampling's
two queries read it with array operations and return artist indices:
``top_popular_in_genre`` takes a prefix, ``artists_in_range`` a
``searchsorted`` slice put back in index (= id) order.
On disk a catalog is JSON Lines, one artist per line with fields ``id``,
``name``, ``popularity``, ``genres``, ``similar``. ``load_catalog`` and
``Catalog.build`` give each id a number on first sight, as an artist or as
a similar reference, so the similar lists are kept as one array of numbers
and no reference string outlives its line; one numpy pass maps the numbers
to indices, then one sort of row-major edge keys sorts and dedupes the rows.
Only a bad reference sends it back to the edges, to name the first one.
``save_catalog`` encodes each id and each distinct ordered genre list once
and writes every line from those pieces.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from array import array
from collections import defaultdict
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


# Artist's fields; a NamedTuple body may not define __new__, so the checks
# live in a subclass
class _ArtistFields(NamedTuple):
    id: str
    name: str
    popularity: int
    genres: tuple[str, ...] = ()


class Artist(_ArtistFields):
    """One artist record. ``popularity`` is an integer on the 0-100 scale;
    ``genres`` is an ordered, possibly empty list of distinct tags, kept
    as a tuple.

    A validated named tuple: hashable, immutable, and equal to another
    artist field by field. Being a tuple, an artist also equals a plain
    tuple of its four fields. Only construction validates: ``_replace``
    and ``_make`` skip the checks, and no caller uses them."""

    __slots__ = ()

    def __new__(cls, id: str, name: str, popularity: int, genres: Sequence[str] = ()) -> "Artist":
        # a tuple passes through as itself, so shared tuples stay shared
        genres = tuple(genres)
        if not isinstance(popularity, int) or isinstance(popularity, bool):
            raise CatalogError(f"artist {id!r}: popularity must be an integer, got {popularity!r}")
        if not 0 <= popularity <= 100:
            raise CatalogError(f"artist {id!r}: popularity {popularity} outside [0, 100]")
        if len(set(genres)) != len(genres):
            repeated = next(g for i, g in enumerate(genres) if g in genres[:i])
            raise CatalogError(f"artist {id!r}: genre {repeated!r} listed twice")
        return tuple.__new__(cls, (id, name, popularity, genres))


@dataclass(frozen=True, eq=False)
class SimilarityGraph:
    """Binary artist-artist adjacency in CSR layout: the artists listed as
    similar to artist i are ``indices[indptr[i]:indptr[i + 1]]``, sorted,
    unique and never i itself. Both arrays are int64; ``indptr`` has n + 1
    nondecreasing offsets starting at 0 and ending at the edge count."""

    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def edge_count(self) -> int:
        return self.indices.size

    def row(self, i: int) -> np.ndarray:
        """View of the sorted indices similar to artist i."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def edges(self, rows: Sequence[int] | np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Every edge of ``rows`` (artist indices, repeats allowed), row by
        row in their order: each edge's position in ``rows`` and its
        target. ``None`` means every row, so positions are sources."""
        if rows is None:
            return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr)), self.indices
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        position = np.repeat(np.arange(rows.size, dtype=np.int64), counts)
        # an edge's offset in indices: its row's start plus its rank in the row
        firsts = np.cumsum(counts) - counts
        return position, self.indices[np.arange(position.size) + np.repeat(starts - firsts, counts)]

    def transpose(self) -> "SimilarityGraph":
        """Incoming lists: a stable sort of the edges by target keeps each
        new row's sources in increasing order."""
        source, target = self.edges()
        order = np.argsort(target, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(target, minlength=self.n))))
        return SimilarityGraph(indptr, source[order])

    def validate(self) -> None:
        """Raise CatalogError naming the first row with an index outside the
        artist index, indices that are not strictly increasing, or a
        self-loop."""
        indptr, indices = self.indptr, self.indices
        if indptr.size == 0 or indptr[0] != 0 or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0):
            raise CatalogError("row offsets do not partition the similar indices")
        row_of = self.edges()[0]
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


# the ranking of a genre no artist carries
_NO_MEMBERS = GenreRanking(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int8))


def _raise_first_bad_reference(
    ordered: Sequence[Artist], rows: np.ndarray, cols: np.ndarray, refs: np.ndarray, number: Mapping[str, int]
) -> None:
    """Raise CatalogError for the first dangling (index -1) or self
    reference, scanning artists in id order and each similar list in its
    own order. An artist's edges are contiguous and in list order, so that
    is the first bad edge of the smallest row."""
    bad = np.flatnonzero((cols < 0) | (cols == rows))
    first = bad[np.argmin(rows[bad])]
    artist = ordered[rows[first]]
    if cols[first] < 0:
        ref = next(itertools.islice(number, int(refs[first]), None))
        raise CatalogError(f"artist {artist.id!r}: similar reference {ref!r} not in catalog")
    raise CatalogError(f"artist {artist.id!r}: listed as similar to itself")


def _assemble(artists: list[Artist], counts: array, refs: array, number: defaultdict[str, int]) -> "Catalog":
    """The catalog of ``artists``, where artist p's similar list is the next
    ``counts[p]`` entries of ``refs``, each an id's number in ``number``.
    Raises CatalogError on duplicate ids, then on the first dangling or
    self reference."""
    n = len(artists)
    ids = [artist.id for artist in artists]
    order = sorted(range(n), key=ids.__getitem__)
    ordered = tuple(map(artists.__getitem__, order))
    numbers = np.fromiter(map(number.__getitem__, ids), dtype=np.int64, count=n)
    by_id = numbers[order]
    # a repeated id is a repeated number, and repeats sit together in id order
    repeated = by_id[1:] == by_id[:-1]
    if repeated.any():
        raise CatalogError(f"duplicate artist id {ordered[int(np.argmax(repeated))].id!r}")
    # artist index by id number; -1 for an id that is only ever referenced
    index_of = np.full(len(number), -1, dtype=np.int64)
    index_of[by_id] = np.arange(n, dtype=np.int64)
    rows = np.repeat(index_of[numbers], np.frombuffer(counts, dtype=np.int64))
    targets = np.frombuffer(refs, dtype=np.int64)
    cols = index_of[targets]
    if np.any(cols < 0) or np.any(cols == rows):
        _raise_first_bad_reference(ordered, rows, cols, targets, number)
    # one row-major sort key per edge, built in the rows array itself:
    # each extra edge-length array would cost 8 bytes per edge
    key = rows
    key *= n
    key += cols
    del cols
    key.sort()
    unique = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=unique[1:])
    key = key[unique]
    indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
    key %= n
    return Catalog(ordered, SimilarityGraph(indptr, key))


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
        references, or self-references; an artist missing from ``similar``
        gets an empty row. Each row ends up sorted and unique."""
        artists = list(artists)
        lists = [similar.get(artist.id, ()) for artist in artists]
        number: defaultdict[str, int] = defaultdict(itertools.count().__next__)
        refs = array("q", map(number.__getitem__, itertools.chain.from_iterable(lists)))
        return _assemble(artists, array("q", map(len, lists)), refs, number)

    @property
    def n(self) -> int:
        return len(self.artists)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.artists)

    @cached_property
    def index(self) -> Mapping[str, int]:
        return {a.id: i for i, a in enumerate(self.artists)}

    def indices_of(self, ids: Iterable[str]) -> np.ndarray:
        """The int64 index of each id, in order, repeats kept; a CatalogError
        names the first id the catalog lacks. The one id -> index map."""
        try:
            return np.fromiter(map(self.index.__getitem__, ids), dtype=np.int64)
        except KeyError as exc:
            raise CatalogError(f"artist id {exc.args[0]!r} not in catalog") from None

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
        ranked = members[order]
        # the sampling queries hand out views of it
        ranked.flags.writeable = False
        bounds = np.cumsum(np.bincount(codes, minlength=len(names)))[:-1]
        columns = zip(np.split(ranked, bounds), np.split(neg_popularity[order], bounds))
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


@dataclass(frozen=True, eq=False)
class UserVector:
    """Sparse seed-artist indicator vector over a catalog's dense index."""

    indices: np.ndarray
    n: int

    @classmethod
    def from_ids(cls, catalog: Catalog, seed_ids: Iterable[str]) -> "UserVector":
        return cls(np.unique(catalog.indices_of(seed_ids)), catalog.n)


_REQUIRED_FIELDS = ("id", "name", "popularity", "genres", "similar")


def load_catalog(path: str | Path) -> Catalog:
    """Load a JSON Lines catalog file. Rows end up sorted by id. Raises
    CatalogError on any malformed record, text that is not UTF-8, or an
    unresolvable reference. Each id is numbered on first sight, so a
    similar list is kept as its ids' numbers and no reference string
    outlives its line."""
    artists: list[Artist] = []
    number: defaultdict[str, int] = defaultdict(itertools.count().__next__)
    counts = array("q")
    refs = array("q")
    shared: dict[tuple[str, ...], tuple[str, ...]] = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CatalogError(f"{path}:{lineno}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CatalogError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(record, dict) or not all(map(record.__contains__, _REQUIRED_FIELDS)):
                raise CatalogError(f"{path}:{lineno}: record must have fields {', '.join(_REQUIRED_FIELDS)}")
            for field in ("id", "name"):
                if not isinstance(record[field], str):
                    raise CatalogError(f"{path}:{lineno}: {field} must be a string")
            genres, similar = record["genres"], record["similar"]
            if not isinstance(genres, list) or not all(map(isinstance, genres, itertools.repeat(str))):
                raise CatalogError(f"{path}:{lineno}: genres must be a list of strings")
            if not isinstance(similar, list) or not all(map(isinstance, similar, itertools.repeat(str))):
                raise CatalogError(f"{path}:{lineno}: similar must be a list of ids")
            # artists with one ordered genre list share one tuple
            genres = tuple(genres)
            genres = shared.setdefault(genres, genres)
            try:
                artist = Artist(record["id"], record["name"], record["popularity"], genres)
            except CatalogError as exc:
                raise CatalogError(f"{path}:{lineno}: {exc}") from None
            artists.append(artist)
            counts.append(len(similar))
            refs.extend(map(number.__getitem__, similar))
    return _assemble(artists, counts, refs, number)


def save_catalog(catalog: Catalog, path: str | Path) -> None:
    """Write a catalog as JSON Lines; output is byte-deterministic for a
    given catalog (rows in index order, similar lists in id order). Each
    line is the bytes of ``json.dumps(record, ensure_ascii=False)``, put
    together from each id's and each ordered genre list's JSON text,
    encoded once."""
    encode = json.JSONEncoder(ensure_ascii=False).encode
    ids = np.array([encode(aid) for aid in catalog.ids], dtype=object)
    similar = ids[catalog.graph.indices].tolist()
    bounds = catalog.graph.indptr.tolist()
    # many artists share one ordered genre list
    genre_text: dict[tuple[str, ...], str] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for artist, aid, start, stop in zip(catalog.artists, ids, bounds, bounds[1:]):
            name = encode(artist.name)
            genres = genre_text.get(artist.genres)
            if genres is None:
                genres = genre_text[artist.genres] = encode(list(artist.genres))
            # %d writes an int as json does, with int.__repr__
            fh.write(
                '{"id": %s, "name": %s, "popularity": %d, "genres": %s, "similar": [%s]}\n'
                % (aid, name, artist.popularity, genres, ", ".join(similar[start:stop]))
            )


def popularity_percentiles(catalog: Catalog) -> tuple[int, int, int, int]:
    """Nearest-rank 25/50/75/95th percentiles of the artists' popularity:
    the values at 1-based ranks ceil(p*n/100) of the ascending sort. An
    empty catalog is an error, not zeros."""
    ordered = np.sort(catalog.popularities)
    if not ordered.size:
        raise CatalogError("popularity percentiles of an empty catalog")
    return tuple(int(ordered[math.ceil(p * ordered.size / 100) - 1]) for p in (25, 50, 75, 95))


def artists_in_range(catalog: Catalog, genre: str, lo: int, hi: int) -> np.ndarray:
    """Indices of artists tagged with ``genre`` whose popularity lies in the
    closed range [lo, hi], in index (= id) order. Unknown genres yield an
    empty array."""
    if not (0 <= lo <= hi <= 100):
        raise ValueError(f"invalid popularity range [{lo}, {hi}]")
    ranking = catalog.genre_ranking.get(genre, _NO_MEMBERS)
    # the members in range are one contiguous run of the ranking
    start = np.searchsorted(ranking.neg_popularity, -hi, side="left")
    stop = np.searchsorted(ranking.neg_popularity, -lo, side="right")
    return np.sort(ranking.indices[start:stop])


def top_popular_in_genre(catalog: Catalog, genre: str, n: int) -> np.ndarray:
    """Up to n artist indices for the genre, most popular first; popularity
    ties break toward the smaller index (= id). A read-only view."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return catalog.genre_ranking.get(genre, _NO_MEMBERS).indices[:n]
