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
    popularity_percentiles,
    save_catalog,
    top_popular_in_genre,
)
from tests.conftest import build_catalog, dense_graph, dense_user, graph_from_rows


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

    def test_line_order_differs_from_id_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record("c", similar=["a"]), record("a", similar=["c", "b"]), record("b", similar=["c"])])
        catalog = load_catalog(path)
        assert catalog.ids == ("a", "b", "c")
        assert [catalog.graph.row(i).tolist() for i in range(3)] == [[1, 2], [2], [0]]

    def test_non_string_similar_entry_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record("a", similar=["b", 5]), record("b")])
        with pytest.raises(CatalogError, match=r"c\.jsonl:1: similar must be a list of ids$"):
            load_catalog(path)

    def test_string_genres_rejected(self, tmp_path):
        # a string is a sequence of strings, but not a list of genres
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{**record("a"), "genres": "rock"}])
        with pytest.raises(CatalogError) as excinfo:
            load_catalog(path)
        assert str(excinfo.value) == f"{path}:1: genres must be a list of strings"

    @pytest.mark.parametrize("field, value", [("id", None), ("id", 5), ("name", None), ("name", ["x"])])
    def test_non_string_id_or_name_rejected(self, tmp_path, field, value):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record("b"), {**record("a"), field: value}])
        with pytest.raises(CatalogError) as excinfo:
            load_catalog(path)
        assert str(excinfo.value) == f"{path}:2: {field} must be a string"

    def test_null_id_is_not_the_string_none(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record("None"), {**record("x"), "id": None}])
        with pytest.raises(CatalogError) as excinfo:
            load_catalog(path)
        assert str(excinfo.value) == f"{path}:2: id must be a string"

    @pytest.mark.parametrize("bad_line", [1, 2])
    def test_non_utf8_text_names_file_and_line(self, tmp_path, bad_line):
        path = tmp_path / "c.jsonl"
        lines = [json.dumps(record("a")).encode("utf-8"), json.dumps(record("b")).encode("utf-8")]
        lines[bad_line - 1] = b"\xff\xfe" + lines[bad_line - 1]
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(CatalogError) as excinfo:
            load_catalog(path)
        assert str(excinfo.value) == f"{path}:{bad_line}: not UTF-8 text (byte 0: invalid start byte)"


class TestLoadErrorOrder:
    """Which error a file with several faults reports: every line is checked
    in file order first, then duplicate ids, then references."""

    @pytest.mark.parametrize(
        "lines, message",
        [
            # a bad line after a duplicate id and a dangling reference still wins
            (['{"id": "a"', json.dumps(record("b", similar=["x", 5]))], ":1: invalid JSON"),
            ([json.dumps(record("b", similar=["x", 5])), '{"id": "a"'], ":1: similar must be a list of ids"),
            ([json.dumps(record("a", similar=["ghost"])), json.dumps(record("a")), json.dumps(record("c", pop=101))],
             ":3: artist 'c': popularity 101 outside [0, 100]"),
            ([json.dumps(record("a")), "", json.dumps(record("b", genres=["x", "x"])), "[1]"],
             ":3: artist 'b': genre 'x' listed twice"),
        ],
    )
    def test_first_bad_line_in_file_order_wins(self, tmp_path, lines, message):
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CatalogError) as excinfo:
            load_catalog(path)
        assert str(excinfo.value).startswith(f"{path}{message}")

    def test_duplicate_id_is_reported_before_a_dangling_reference(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record("a", similar=["ghost", "a"]), record("z"), record("m"), record("z"), record("m")])
        with pytest.raises(CatalogError) as excinfo:
            load_catalog(path)
        # of two repeated ids, the smaller is named
        assert str(excinfo.value) == "duplicate artist id 'm'"

    @pytest.mark.parametrize(
        "similar, message",
        [
            ({"c": ["ghost"], "b": ["b"], "a": ["c", "phantom", "a"]},
             "artist 'a': similar reference 'phantom' not in catalog"),
            ({"c": ["ghost"], "b": ["a", "b", "nobody"], "a": ["c"]}, "artist 'b': listed as similar to itself"),
            # the dangling id is named even after other lines referenced it
            ({"c": ["ghost", "ghost"], "b": ["ghost"], "a": []},
             "artist 'b': similar reference 'ghost' not in catalog"),
        ],
    )
    def test_first_bad_reference_in_id_order_then_list_order(self, tmp_path, similar, message):
        # lines in the order c, b, a: file order is the reverse of id order
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(aid, similar=refs) for aid, refs in similar.items()])
        with pytest.raises(CatalogError) as excinfo:
            load_catalog(path)
        assert str(excinfo.value) == message


# ids, names and genres beyond ASCII and with JSON's escapes: any text
# UTF-8 can carry
unicode_text = st.text(st.characters(codec="utf-8") | st.sampled_from('"\\/\n\té日🎵\u2028'), max_size=6)


class TestUnicodeRoundTrip:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_load_equals_build_and_save_is_a_fixed_point(self, tmp_path_factory, data):
        ids = data.draw(st.lists(unicode_text, min_size=1, max_size=10, unique=True))
        genre_pool = data.draw(st.lists(unicode_text, min_size=1, max_size=4, unique=True))
        artists = [
            Artist(
                id=aid,
                name=data.draw(unicode_text),
                popularity=data.draw(st.integers(0, 100)),
                genres=tuple(data.draw(st.lists(st.sampled_from(genre_pool), max_size=3, unique=True))),
            )
            for aid in ids
        ]
        # references may repeat; no artist names itself
        similar = {
            aid: data.draw(st.lists(st.sampled_from([x for x in ids if x != aid]), max_size=5)) if len(ids) > 1 else []
            for aid in ids
        }
        lines = [
            json.dumps({"id": a.id, "name": a.name, "popularity": a.popularity, "genres": list(a.genres),
                        "similar": similar[a.id]}, ensure_ascii=False)
            for a in data.draw(st.permutations(artists))
        ]
        blanks = data.draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=3))
        for blank in blanks:
            lines.insert(data.draw(st.integers(0, len(lines))), blank)
        path = tmp_path_factory.mktemp("u") / "c.jsonl"
        path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))

        loaded = load_catalog(path)
        assert loaded == Catalog.build(artists, similar)
        saved = tmp_path_factory.mktemp("u") / "saved.jsonl"
        save_catalog(loaded, saved)
        # the bytes json.dumps gives each record, in index order
        expected = "".join(
            json.dumps({"id": a.id, "name": a.name, "popularity": a.popularity, "genres": list(a.genres),
                        "similar": [loaded.ids[j] for j in loaded.graph.row(i).tolist()]}, ensure_ascii=False) + "\n"
            for i, a in enumerate(loaded.artists)
        )
        assert saved.read_bytes() == expected.encode("utf-8")
        again = tmp_path_factory.mktemp("u") / "again.jsonl"
        save_catalog(load_catalog(saved), again)
        assert again.read_bytes() == saved.read_bytes()


class TestSave:
    def test_same_genres_in_another_order_keep_their_own_order(self, tmp_path):
        catalog = build_catalog(
            [("a", 5, ["rock", "jazz"]), ("b", 6, ["jazz", "rock"]), ("c", 7, ["rock", "jazz"]), ("d", 8, [])],
            similar={"a": ["b"], "b": ["a", "c"]},
        )
        path = tmp_path / "c.jsonl"
        save_catalog(catalog, path)
        expected = "".join(
            json.dumps({"id": a.id, "name": a.name, "popularity": a.popularity, "genres": list(a.genres),
                        "similar": [catalog.ids[j] for j in catalog.graph.row(i).tolist()]}) + "\n"
            for i, a in enumerate(catalog.artists)
        )
        assert path.read_text(encoding="utf-8") == expected
        assert '"genres": ["jazz", "rock"]' in expected and '"genres": ["rock", "jazz"]' in expected


class TestBuild:
    def test_unsorted_and_repeated_references_give_a_sorted_unique_row(self):
        catalog = build_catalog([(x, 10, []) for x in "dacb"], similar={"a": ["d", "b", "d", "c", "b"], "c": ["a", "a"]})
        assert catalog.graph.row(0).tolist() == [1, 2, 3]
        assert catalog.graph.row(2).tolist() == [0]
        catalog.graph.validate()

    def test_artist_missing_from_similar_gets_an_empty_row(self):
        catalog = build_catalog([("a", 10, []), ("b", 10, []), ("c", 10, [])], similar={"b": ["a"]})
        assert catalog.graph.indptr.tolist() == [0, 0, 1, 1]
        assert catalog.graph.indices.tolist() == [0]

    def test_empty(self):
        catalog = Catalog.build([], {})
        assert catalog.n == 0
        assert catalog.graph.indptr.tolist() == [0] and catalog.graph.indices.size == 0

    @pytest.mark.parametrize(
        "similar, message",
        [
            # the self-reference comes first in id order, the dangling one later
            ({"a": ["b", "a"], "b": ["ghost"]}, "artist 'a': listed as similar to itself"),
            ({"a": ["b"], "b": ["ghost", "b"]}, "artist 'b': similar reference 'ghost' not in catalog"),
            ({"a": ["ghost", "a"], "b": ["b"]}, "artist 'a': similar reference 'ghost' not in catalog"),
            ({"b": ["b"], "a": ["ghost"]}, "artist 'a': similar reference 'ghost' not in catalog"),
        ],
    )
    def test_first_bad_reference_in_id_order_is_reported(self, similar, message):
        with pytest.raises(CatalogError) as excinfo:
            build_catalog([("b", 10, []), ("a", 10, [])], similar=similar)
        assert str(excinfo.value) == message

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_are_the_sorted_sets_of_the_references(self, data):
        ids = data.draw(ids_strategy)
        refs = st.lists(st.sampled_from([*ids, "0ghost"]), max_size=6)
        similar = data.draw(st.dictionaries(st.sampled_from(ids), refs))
        artists = [Artist(id=aid, name=aid, popularity=0) for aid in reversed(ids)]
        ordered = sorted(ids)
        bad = (
            f"artist {aid!r}: similar reference '0ghost' not in catalog" if ref == "0ghost"
            else f"artist {aid!r}: listed as similar to itself"
            for aid in ordered for ref in similar.get(aid, []) if ref in ("0ghost", aid)
        )
        expected_error = next(bad, None)
        if expected_error:
            with pytest.raises(CatalogError) as excinfo:
                Catalog.build(artists, similar)
            assert str(excinfo.value) == expected_error
            return
        catalog = Catalog.build(artists, similar)
        assert catalog.ids == tuple(ordered)
        rows = [sorted({ordered.index(ref) for ref in similar.get(aid, [])}) for aid in ordered]
        assert catalog.graph == graph_from_rows(rows)


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


class TestIndicesOf:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_index_map(self, data):
        catalog = data.draw(catalogs())
        # any order, repeats, and the empty list
        ids = data.draw(st.lists(st.sampled_from(catalog.ids), max_size=20))
        result = catalog.indices_of(ids)
        assert result.dtype == np.int64 and result.shape == (len(ids),)
        assert result.tolist() == [catalog.index[i] for i in ids]

    @pytest.mark.parametrize("ids, first", [(["a", "ghost", "b", "zombie"], "ghost"), (["zombie", "a", "ghost"], "zombie")])
    def test_names_the_first_unknown_id(self, six_artists, ids, first):
        with pytest.raises(CatalogError, match=rf"^artist id '{first}' not in catalog$"):
            six_artists.indices_of(ids)


class TestPercentiles:
    def test_singleton(self):
        catalog = build_catalog([("a", 10, [])])
        assert popularity_percentiles(catalog) == (10, 10, 10, 10)

    def test_one_to_hundred(self):
        catalog = build_catalog([(f"a{i:03d}", i, []) for i in range(1, 101)])
        assert popularity_percentiles(catalog) == (25, 50, 75, 95)

    def test_three_zeros_one_hundred(self):
        catalog = build_catalog([("a", 0, []), ("b", 0, []), ("c", 0, []), ("d", 100, [])])
        assert popularity_percentiles(catalog) == (0, 0, 0, 100)

    def test_empty_subset_is_error(self):
        with pytest.raises(CatalogError, match="empty"):
            popularity_percentiles(build_catalog([]))

    def test_report_values_non_decreasing(self, six_artists):
        p25, p50, p75, p95 = popularity_percentiles(six_artists)
        assert p25 <= p50 <= p75 <= p95

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=60))
    @settings(max_examples=200)
    def test_matches_sort_and_index_oracle(self, pops):
        ordered = sorted(pops)
        expected = tuple(ordered[math.ceil(p * len(ordered) / 100) - 1] for p in (25, 50, 75, 95))
        result = popularity_percentiles(build_catalog([(f"a{i:02d}", p, []) for i, p in enumerate(pops)]))
        assert result == expected and all(type(value) is int for value in result)


def assert_indices(result, catalog, ids):
    """A query result is the index array of ``ids``, in that order."""
    assert result.dtype.kind == "i"
    np.testing.assert_array_equal(result, np.asarray([catalog.index[i] for i in ids], dtype=result.dtype))


class TestArtistsInRange:
    def test_direct_filter(self, six_artists):
        catalog = build_catalog([("x", 22, ["rock"]), ("y", 50, ["rock"])])
        assert_indices(artists_in_range(catalog, "rock", 20, 24), catalog, ["x"])

    def test_full_range_gets_whole_genre(self, six_artists):
        assert_indices(artists_in_range(six_artists, "rock", 0, 100), six_artists, ["a", "b"])

    def test_invalid_bounds(self, six_artists):
        with pytest.raises(ValueError):
            artists_in_range(six_artists, "rock", 30, 20)
        with pytest.raises(ValueError):
            artists_in_range(six_artists, "rock", -1, 20)

    def test_unknown_genre_is_empty(self, six_artists):
        assert_indices(artists_in_range(six_artists, "zydeco", 0, 100), six_artists, [])

    @given(catalogs())
    @settings(max_examples=40, deadline=None)
    def test_union_over_genres_covers_tagged_artists(self, catalog):
        union = set()
        for g in catalog.genres:
            union.update(artists_in_range(catalog, g, 0, 100).tolist())
        tagged = {i for i, a in enumerate(catalog.artists) if a.genres}
        assert tagged <= union


class TestTopPopular:
    def test_sorted_by_popularity(self):
        catalog = build_catalog([("a", 5, ["g"]), ("b", 80, ["g"]), ("c", 40, ["g"])])
        assert_indices(top_popular_in_genre(catalog, "g", 2), catalog, ["b", "c"])

    def test_saturation_returns_all(self):
        catalog = build_catalog([("a", 5, ["g"]), ("b", 80, ["g"])])
        assert_indices(top_popular_in_genre(catalog, "g", 10), catalog, ["b", "a"])

    def test_popularity_tie_smaller_id_first(self):
        catalog = build_catalog([("zz", 50, ["g"]), ("aa", 50, ["g"])])
        assert_indices(top_popular_in_genre(catalog, "g", 2), catalog, ["aa", "zz"])

    def test_n_below_one_rejected(self, six_artists):
        with pytest.raises(ValueError):
            top_popular_in_genre(six_artists, "rock", 0)

    def test_result_does_not_write_through_to_the_catalog(self, six_artists):
        top = top_popular_in_genre(six_artists, "rock", 2)
        with pytest.raises(ValueError):
            top[0] = 5
        assert_indices(top_popular_in_genre(six_artists, "rock", 2), six_artists, ["a", "b"])


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
            members = [i for i, a in enumerate(catalog.artists) if genre in a.genres]
            pops = catalog.popularities
            for lo in range(101):
                for hi in range(lo, 101):
                    expected = [i for i in members if lo <= pops[i] <= hi]
                    assert artists_in_range(catalog, genre, lo, hi).tolist() == expected
        assert artists_in_range(catalog, "zydeco", 0, 100).size == 0

    @given(ranked_catalogs())
    @settings(max_examples=60, deadline=None)
    def test_top_popular_every_n(self, catalog):
        for genre in catalog.genres:
            members = [i for i, a in enumerate(catalog.artists) if genre in a.genres]
            ranked = sorted(members, key=lambda i: (-catalog.popularities[i], i))
            for n in range(1, len(members) + 3):
                assert top_popular_in_genre(catalog, genre, n).tolist() == ranked[:n]
        assert top_popular_in_genre(catalog, "zydeco", 5).size == 0


class TestTypes:
    def test_popularity_bounds_enforced(self):
        for popularity in (-1, 101):
            with pytest.raises(CatalogError) as exc:
                Artist(id="a", name="a", popularity=popularity)
            assert str(exc.value) == f"artist 'a': popularity {popularity} outside [0, 100]"

    def test_non_integer_popularity_rejected(self):
        for popularity in (True, 1.5):
            with pytest.raises(CatalogError) as exc:
                Artist(id="a", name="a", popularity=popularity)
            assert str(exc.value) == f"artist 'a': popularity must be an integer, got {popularity!r}"

    def test_repeated_genre_rejected(self):
        with pytest.raises(CatalogError) as exc:
            Artist(id="a", name="a", popularity=1, genres=("rock", "jazz", "rock"))
        assert str(exc.value) == "artist 'a': genre 'rock' listed twice"

    def test_boolean_popularity_in_a_file_names_file_and_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record("a"), {**record("b"), "popularity": True}])
        with pytest.raises(CatalogError) as exc:
            load_catalog(path)
        assert str(exc.value) == f"{path}:2: artist 'b': popularity must be an integer, got True"

    def test_artist_is_an_immutable_hashable_value(self):
        artist = Artist(id="a", name="A", popularity=7, genres=("rock", "jazz"))
        same = Artist("a", "A", 7, ("rock", "jazz"))
        assert artist == same and hash(artist) == hash(same)
        assert len({artist, same}) == 1
        for other in [("b", "A", 7, ("rock", "jazz")), ("a", "B", 7, ("rock", "jazz")),
                      ("a", "A", 8, ("rock", "jazz")), ("a", "A", 7, ("jazz", "rock"))]:
            assert artist != Artist(*other)
        listed = Artist(id="a", name="A", popularity=7, genres=["rock", "jazz"])
        assert listed == artist and type(listed.genres) is tuple
        with pytest.raises(AttributeError):
            artist.popularity = 8
        with pytest.raises(AttributeError):
            artist.label = "x"
        assert artist.popularity == 7

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
                graph_from_rows([[1, 3], [], bad_row, [0, 0]]).validate()

    def test_user_vector_from_ids(self, six_artists):
        user = UserVector.from_ids(six_artists, ["b", "a", "b"])
        assert list(user.indices) == [0, 1]
        dense = dense_user(user)
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
    return graph_from_rows(rows)


class TestSimilarityGraph:
    @settings(max_examples=200, deadline=None)
    @given(similarity_graphs())
    def test_transpose_is_the_dense_transpose_and_an_involution(self, graph):
        graph.validate()
        transposed = graph.transpose()
        transposed.validate()
        assert np.array_equal(dense_graph(transposed), dense_graph(graph).T)
        assert transposed.transpose() == graph
        assert transposed.edge_count == graph.edge_count

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_edges_are_the_rows_concatenated_in_list_order(self, data):
        graph = data.draw(similarity_graphs())
        # unsorted, repeated or empty; a list or an array
        rows = data.draw(st.lists(st.integers(0, graph.n - 1), max_size=20) if graph.n else st.just([]))
        position, target = graph.edges(data.draw(st.sampled_from([rows, np.asarray(rows, dtype=np.int64)])))
        lens = [graph.row(i).size for i in rows]
        assert np.array_equal(target, np.concatenate([np.empty(0, dtype=np.int64), *map(graph.row, rows)]))
        assert np.array_equal(position, np.repeat(np.arange(len(rows)), lens))
        assert position.dtype == target.dtype == np.int64

    @settings(max_examples=100, deadline=None)
    @given(similarity_graphs())
    def test_edges_without_rows_cover_every_row(self, graph):
        position, target = graph.edges()
        every_position, every_target = graph.edges(list(range(graph.n)))
        assert np.array_equal(position, every_position) and np.array_equal(target, every_target)
        assert position.dtype == np.int64 and target.size == graph.edge_count

    def test_row_is_a_view_of_the_csr_arrays(self):
        graph = graph_from_rows([[1, 2], [], [0]])
        assert graph.n == 3 and graph.edge_count == 3
        assert list(graph.indptr) == [0, 2, 2, 3] and graph.indptr.dtype == graph.indices.dtype == np.int64
        assert list(graph.row(0)) == [1, 2] and graph.row(1).size == 0
        assert np.shares_memory(graph.row(2), graph.indices)

    def test_validate_rejects_offsets_that_do_not_cover_the_indices(self):
        with pytest.raises(CatalogError, match="offsets"):
            SimilarityGraph(np.asarray([0, 2], dtype=np.int64), np.asarray([1], dtype=np.int64)).validate()
