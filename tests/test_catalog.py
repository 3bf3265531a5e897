import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenerec.catalog import (
    Artist,
    Catalog,
    CatalogError,
    SimilarityGraph,
    UserVector,
    artists_in_range,
    load_catalog,
    nearest_rank,
    popularity_percentiles,
    save_catalog,
    top_popular_in_genre,
)
from tests.conftest import build_catalog


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def record(aid, pop=10, genres=(), similar=()):
    return {"id": aid, "name": aid, "popularity": pop, "genres": list(genres), "similar": list(similar)}


class TestLoadCatalog:
    def test_three_artists_echo(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record("a", similar=["b"]), record("b"), record("c")])
        catalog = load_catalog(path)
        assert catalog.ids == ("a", "b", "c")
        assert list(catalog.graph.row(0)) == [1]
        assert list(catalog.graph.row(1)) == []

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert load_catalog(path).n == 0

    def test_popularity_out_of_range_names_artist(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record("bad-artist", pop=101)])
        with pytest.raises(CatalogError, match="bad-artist"):
            load_catalog(path)

    def test_dangling_reference_names_offender(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record("a", similar=["ghost"])])
        with pytest.raises(CatalogError, match="ghost"):
            load_catalog(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a"\n')
        with pytest.raises(CatalogError, match=":1"):
            load_catalog(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"id": "a", "name": "a"}) + "\n")
        with pytest.raises(CatalogError):
            load_catalog(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record("a"), record("a")])
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog(path)

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record("a", similar=["a"])])
        with pytest.raises(CatalogError, match="itself"):
            load_catalog(path)

    def test_rows_sorted_by_id_regardless_of_file_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record("z"), record("a")])
        assert load_catalog(path).ids == ("a", "z")


ids_strategy = st.lists(st.from_regex(r"[a-z]{1,6}", fullmatch=True), min_size=1, max_size=12, unique=True)


@st.composite
def catalogs(draw):
    ids = draw(ids_strategy)
    artists = []
    similar = {}
    for aid in ids:
        pop = draw(st.integers(0, 100))
        genres = draw(st.lists(st.sampled_from(["rock", "jazz", "pop", "folk"]), max_size=3, unique=True))
        artists.append(Artist(id=aid, name=f"n-{aid}", popularity=pop, genres=tuple(genres)))
        others = [x for x in ids if x != aid]
        similar[aid] = draw(st.lists(st.sampled_from(others), max_size=4, unique=True)) if others else []
    return Catalog.build(artists, similar)


class TestRoundTrip:
    @given(catalogs())
    @settings(max_examples=50, deadline=None)
    def test_load_save_load_identical(self, tmp_path_factory, catalog):
        path = tmp_path_factory.mktemp("rt") / "c.jsonl"
        save_catalog(catalog, path)
        reloaded = load_catalog(path)
        assert reloaded == catalog
        path2 = tmp_path_factory.mktemp("rt") / "c2.jsonl"
        save_catalog(reloaded, path2)
        assert path.read_bytes() == path2.read_bytes()


class TestPercentiles:
    def test_singleton(self):
        catalog = build_catalog([("a", 10, [])])
        rep = popularity_percentiles(catalog)
        assert (rep.p25, rep.p50, rep.p75, rep.p95) == (10, 10, 10, 10)

    def test_one_to_hundred(self):
        catalog = build_catalog([(f"a{i:03d}", i, []) for i in range(1, 101)])
        rep = popularity_percentiles(catalog)
        assert (rep.p25, rep.p50, rep.p75, rep.p95) == (25, 50, 75, 95)

    def test_three_zeros_one_hundred(self):
        catalog = build_catalog([("a", 0, []), ("b", 0, []), ("c", 0, []), ("d", 100, [])])
        rep = popularity_percentiles(catalog)
        assert (rep.p25, rep.p50, rep.p75, rep.p95) == (0, 0, 0, 100)

    def test_empty_subset_is_error(self):
        with pytest.raises(CatalogError, match="empty"):
            popularity_percentiles(build_catalog([]))

    def test_report_values_non_decreasing(self, six_artists):
        rep = popularity_percentiles(six_artists)
        assert rep.p25 <= rep.p50 <= rep.p75 <= rep.p95

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=60))
    @settings(max_examples=200)
    def test_matches_sort_and_index_oracle(self, pops):
        ordered = sorted(pops)
        for p in (25, 50, 75, 95):
            expected = ordered[math.ceil(p * len(ordered) / 100) - 1]
            assert nearest_rank(pops, p) == expected


class TestArtistsInRange:
    def test_direct_filter(self, six_artists):
        catalog = build_catalog([("x", 22, ["rock"]), ("y", 50, ["rock"])])
        assert artists_in_range(catalog, "rock", 20, 24) == ["x"]

    def test_full_range_gets_whole_genre(self, six_artists):
        assert artists_in_range(six_artists, "rock", 0, 100) == ["a", "b"]

    def test_invalid_bounds(self, six_artists):
        with pytest.raises(ValueError):
            artists_in_range(six_artists, "rock", 30, 20)
        with pytest.raises(ValueError):
            artists_in_range(six_artists, "rock", -1, 20)

    def test_unknown_genre_is_empty(self, six_artists):
        assert artists_in_range(six_artists, "zydeco", 0, 100) == []

    @given(catalogs())
    @settings(max_examples=40, deadline=None)
    def test_union_over_genres_covers_tagged_artists(self, catalog):
        union = set()
        for g in catalog.genres:
            union.update(artists_in_range(catalog, g, 0, 100))
        tagged = {a.id for a in catalog.artists if a.genres}
        assert tagged <= union


class TestTopPopular:
    def test_sorted_by_popularity(self):
        catalog = build_catalog([("a", 5, ["g"]), ("b", 80, ["g"]), ("c", 40, ["g"])])
        assert top_popular_in_genre(catalog, "g", 2) == ["b", "c"]

    def test_saturation_returns_all(self):
        catalog = build_catalog([("a", 5, ["g"]), ("b", 80, ["g"])])
        assert top_popular_in_genre(catalog, "g", 10) == ["b", "a"]

    def test_popularity_tie_smaller_id_first(self):
        catalog = build_catalog([("zz", 50, ["g"]), ("aa", 50, ["g"])])
        assert top_popular_in_genre(catalog, "g", 2) == ["aa", "zz"]

    def test_n_below_one_rejected(self, six_artists):
        with pytest.raises(ValueError):
            top_popular_in_genre(six_artists, "rock", 0)


@st.composite
def ranked_catalogs(draw):
    """Catalogs with popularity ties, untagged artists and one-member genres."""
    ids = draw(ids_strategy)
    artists = []
    for aid in ids:
        pop = draw(st.one_of(st.sampled_from([0, 7, 100]), st.integers(0, 100)))
        genres = draw(st.lists(st.sampled_from(["rock", "jazz", "pop"]), max_size=3, unique=True))
        if draw(st.booleans()):
            genres.append(f"solo-{aid}")
        artists.append(Artist(id=aid, name=aid, popularity=pop, genres=tuple(genres)))
    return Catalog.build(artists, {})


class TestGenreQueriesMatchBruteForce:
    @given(ranked_catalogs())
    @settings(max_examples=25, deadline=None)
    def test_artists_in_range_every_range(self, catalog):
        for genre in catalog.genres:
            members = [a for a in catalog.artists if genre in a.genres]
            for lo in range(101):
                for hi in range(lo, 101):
                    expected = [a.id for a in members if lo <= a.popularity <= hi]
                    assert artists_in_range(catalog, genre, lo, hi) == expected
        assert artists_in_range(catalog, "zydeco", 0, 100) == []

    @given(ranked_catalogs())
    @settings(max_examples=60, deadline=None)
    def test_top_popular_every_n(self, catalog):
        for genre in catalog.genres:
            members = [a for a in catalog.artists if genre in a.genres]
            ranked = [a.id for a in sorted(members, key=lambda a: (-a.popularity, a.id))]
            for n in range(1, len(members) + 3):
                assert top_popular_in_genre(catalog, genre, n) == ranked[:n]
        assert top_popular_in_genre(catalog, "zydeco", 5) == []


class TestTypes:
    def test_popularity_bounds_enforced(self):
        with pytest.raises(CatalogError):
            Artist(id="a", name="a", popularity=-1)
        with pytest.raises(CatalogError):
            Artist(id="a", name="a", popularity=101)

    def test_non_integer_popularity_rejected(self):
        with pytest.raises(CatalogError):
            Artist(id="a", name="a", popularity=1.5)

    def test_repeated_genre_rejected(self):
        with pytest.raises(CatalogError, match="artist 'a': genre 'rock' listed twice"):
            Artist(id="a", name="a", popularity=1, genres=("rock", "jazz", "rock"))

    def test_graph_validate_catches_bad_rows(self, six_artists):
        six_artists.graph.validate()
        for bad_row, message in [
            ([1, 4], "outside the artist index"),
            ([-1, 1], "outside the artist index"),
            ([3, 1], "strictly increasing"),
            ([1, 1], "strictly increasing"),
            ([1, 2], "self-loop"),
        ]:
            # row 3 is bad too: the first bad row is the one named
            with pytest.raises(CatalogError, match=f"row 2: .*{message}"):
                SimilarityGraph.from_rows([[1, 3], [], bad_row, [0, 0]]).validate()

    def test_user_vector_from_ids(self, six_artists):
        user = UserVector.from_ids(six_artists, ["b", "a", "b"])
        assert list(user.indices) == [0, 1]
        dense = user.to_dense()
        assert dense.sum() == 2 and dense[0] == 1.0

    def test_user_vector_unknown_id(self, six_artists):
        with pytest.raises(CatalogError, match="ghost"):
            UserVector.from_ids(six_artists, ["ghost"])

    def test_index_hash_changes_with_ids(self, six_artists):
        other = build_catalog([("a", 80, ["rock"])])
        assert six_artists.index_hash() != other.index_hash()


@st.composite
def similarity_graphs(draw):
    """Valid graphs of up to 12 artists; many rows come out empty."""
    n = draw(st.integers(0, 12))
    rows = [sorted(draw(st.sets(st.sampled_from([j for j in range(n) if j != i]), max_size=4))) if n > 1 else []
            for i in range(n)]
    return SimilarityGraph.from_rows(rows)


class TestSimilarityGraph:
    @settings(max_examples=200, deadline=None)
    @given(similarity_graphs())
    def test_transpose_is_the_dense_transpose_and_an_involution(self, graph):
        graph.validate()
        transposed = graph.transpose()
        transposed.validate()
        assert np.array_equal(transposed.to_dense(), graph.to_dense().T)
        assert transposed.transpose() == graph
        assert transposed.edge_count == graph.edge_count

    def test_row_is_a_view_of_the_csr_arrays(self):
        graph = SimilarityGraph.from_rows([[1, 2], [], [0]])
        assert graph.n == 3 and graph.edge_count == 3
        assert list(graph.indptr) == [0, 2, 2, 3] and graph.indptr.dtype == graph.indices.dtype == np.int64
        assert list(graph.row(0)) == [1, 2] and graph.row(1).size == 0
        assert np.shares_memory(graph.row(2), graph.indices)

    def test_validate_rejects_offsets_that_do_not_cover_the_indices(self):
        with pytest.raises(CatalogError, match="offsets"):
            SimilarityGraph(np.asarray([0, 2], dtype=np.int64), np.asarray([1], dtype=np.int64)).validate()
