import hashlib
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenerec import synth
from scenerec.catalog import COMMON_GENRES, Artist, Catalog, CatalogError, popularity_percentiles, save_catalog
from scenerec.synth import (
    POPULARITY_BIAS_EXPONENT,
    FixtureProvider,
    SynthConfig,
    generate_catalog,
    genre_names,
    snowball_crawl,
)
from tests.conftest import build_catalog, graph_from_rows
from tests.test_catalog import catalogs


def chain_catalog():
    return build_catalog(
        [("a", 10, ["rock"]), ("b", 20, ["rock"]), ("c", 30, ["jazz"])],
        similar={"a": ["b"], "b": ["c"]},
    )


def reference_crawl(catalog, seeds, limit):
    """The string-keyed breadth-first crawl: look each frontier id up, fetch
    it, enqueue its unseen similar ids in listed order; a seed the catalog
    lacks is an error once it reaches the front of the queue."""
    by_id = dict(zip(catalog.ids, catalog.artists))
    similar = {aid: [catalog.ids[j] for j in catalog.graph.row(i).tolist()] for i, aid in enumerate(catalog.ids)}
    fetched: dict[str, list[str]] = {}
    seen: set[str] = set()
    frontier: deque[str] = deque()
    for seed in seeds:
        if seed not in seen:
            seen.add(seed)
            frontier.append(seed)
    while frontier and len(fetched) < limit:
        artist_id = frontier.popleft()
        if artist_id not in by_id:
            raise CatalogError(artist_id)
        fetched[artist_id] = similar[artist_id]
        for ref in similar[artist_id]:
            if ref not in seen:
                seen.add(ref)
                frontier.append(ref)
    kept = {aid: [ref for ref in refs if ref in fetched] for aid, refs in fetched.items()}
    return Catalog.build([by_id[aid] for aid in fetched], kept)


def reference_remap_crawl(catalog, seeds, limit):
    """``snowball_crawl`` with its sub-catalog built one kept row at a time:
    each row's targets remapped to the kept numbering, the unfetched ones
    (mapped to -1) dropped."""
    queue_ids = list(dict.fromkeys(seeds))[:limit]
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
    rows = [remap[catalog.graph.row(i)] for i in keep]
    graph = graph_from_rows([row[row >= 0] for row in rows])
    return Catalog(tuple(catalog.artists[i] for i in keep), graph)


class TestSnowballCrawl:
    def test_chain_fully_fetched(self):
        catalog = snowball_crawl(chain_catalog(), ["a"], 3)
        assert catalog.ids == ("a", "b", "c")
        a, b, c = (catalog.index[x] for x in "abc")
        assert list(catalog.graph.row(a)) == [b]
        assert list(catalog.graph.row(b)) == [c]

    def test_no_seeds_empty_catalog(self):
        assert snowball_crawl(chain_catalog(), [], 10).n == 0

    def test_limit_prunes_unfetched_references(self):
        catalog = snowball_crawl(chain_catalog(), ["a"], 2)
        assert catalog.ids == ("a", "b")
        # b's reference to c is dropped because c was never fetched
        assert list(catalog.graph.row(catalog.index["b"])) == []

    def test_zero_limit(self):
        assert snowball_crawl(chain_catalog(), ["a"], 0).n == 0

    def test_missing_seed_is_error(self):
        with pytest.raises(CatalogError, match="ghost"):
            snowball_crawl(chain_catalog(), ["ghost"], 5)

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            snowball_crawl(chain_catalog(), ["a"], -1)

    def test_result_never_exceeds_limit(self):
        catalog = generate_catalog(SynthConfig(seed=3, artist_count=40, similar_per_artist=4))
        crawled = snowball_crawl(catalog, [catalog.ids[0]], 15)
        assert crawled.n <= 15

    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_limit(self, lim_a, lim_b, seed):
        catalog = generate_catalog(SynthConfig(seed=seed % 7, artist_count=30, similar_per_artist=3))
        seeds = [catalog.ids[seed % catalog.n]]
        lo, hi = sorted((lim_a, lim_b))
        small = snowball_crawl(catalog, seeds, lo)
        big = snowball_crawl(catalog, seeds, hi)
        assert set(small.ids) <= set(big.ids)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_string_keyed_crawl(self, tmp_path_factory, data):
        catalog = data.draw(catalogs())
        # "0ghost" cannot be a catalog id, so it is a missing seed
        seeds = data.draw(st.lists(st.sampled_from([*catalog.ids, "0ghost"]), max_size=5))
        limit = data.draw(st.integers(0, catalog.n + 1))
        try:
            expected = reference_crawl(catalog, seeds, limit)
        except CatalogError:
            with pytest.raises(CatalogError, match="0ghost"):
                snowball_crawl(catalog, seeds, limit)
            return
        crawled = snowball_crawl(catalog, seeds, limit)
        assert crawled == expected
        root = tmp_path_factory.mktemp("crawl")
        save_catalog(crawled, root / "crawled.jsonl")
        save_catalog(expected, root / "expected.jsonl")
        assert (root / "crawled.jsonl").read_bytes() == (root / "expected.jsonl").read_bytes()

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_row_remap(self, data):
        catalog = data.draw(catalogs())
        seeds = data.draw(st.lists(st.sampled_from(catalog.ids), max_size=5))
        # every seed listed twice
        seeds += seeds[::-1]
        limit = data.draw(st.sampled_from([0, 1, catalog.n // 2, catalog.n, catalog.n + 3]))
        crawled = snowball_crawl(catalog, seeds, limit)
        assert crawled == reference_remap_crawl(catalog, seeds, limit)
        assert crawled.graph.indptr.dtype == crawled.graph.indices.dtype == np.int64

    def test_fixture_provider_round_trip(self, tmp_path):
        catalog = generate_catalog(SynthConfig(seed=11, artist_count=30, similar_per_artist=3))
        path = tmp_path / "fixture.jsonl"
        save_catalog(catalog, path)
        provider = FixtureProvider(path)
        assert provider == catalog
        crawled = snowball_crawl(provider, list(catalog.ids), catalog.n)
        assert crawled == catalog


# SHA-256 of the saved catalog for each config. The small configs finish
# every similar list through repeated draws or take every positive-weight
# artist; seed 8 at 200 mixes one-attempt and repeated-draw rows; the
# one-genre config puts 1000 artists in one group; the 70-genre one (as
# ``--genres 70``) draws genre indices past the common pool and past 63.
PINNED_CATALOGS = [
    pytest.param(dict(seed=7, artist_count=5000), "ca272608da348e5549fdf9b34f20a8a26dacd7650860d4e357fe55f6b86dc84e", id="5k"),
    pytest.param(dict(seed=3, artist_count=30), "bf650fc9d36db7fccd784057b1601677f0e331348a2be2bfa60af5b5dce70852", id="30"),
    pytest.param(
        dict(seed=4, artist_count=25, genre_count=2),
        "f4288761a40b3c8b7b2f948e5db6dcf682b716dc08351d917de074a4ff248f59",
        id="25-two-genres",
    ),
    pytest.param(
        dict(seed=2, artist_count=40, genre_count=3, cross_genre_prob=0.0, similar_per_artist=15),
        "47bf4887d8d024444dfcfd6c385405c438a6146396b3894a22908d8ba63259f6",
        id="40-intra-only",
    ),
    pytest.param(
        dict(seed=6, artist_count=25, cross_genre_prob=0.0),
        "9a6ac31ac007a0898974e46b62fe009e7f3a4ba74baf6731416b7c3dfe120b2d",
        id="25-all-positive",
    ),
    pytest.param(
        dict(seed=8, artist_count=200, similar_per_artist=10),
        "cc0f1b68f55968b51c1c8fbbca6f1d9996424b93f6510cd27afa463d8b209cfd",
        id="200-mixed",
    ),
    pytest.param(
        dict(seed=5, artist_count=1000, genre_count=1),
        "073dd50cab545dc8ef857d6a61604d3c5db1e8e686e305c81d9a6bf8bcf5c834",
        id="1000-one-genre",
    ),
    pytest.param(
        dict(seed=9, artist_count=400, genre_count=70),
        "8d2e77e8d1fea4f179f561a2741b80d034a4d85aff9d3aa155c59589380fee3a",
        id="400-seventy-genres",
    ),
]


def catalog_digest(config, path):
    save_catalog(generate_catalog(SynthConfig(**config)), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reference_genre_sets(rng, n, genre_count):
    """The per-artist genre draws that ``synth._draw_genre_sets`` decodes:
    one ``integers`` and one ``choice`` call per artist."""
    return [
        rng.choice(genre_count, size=int(rng.integers(1, min(3, genre_count) + 1)), replace=False).tolist()
        for _ in range(n)
    ]


# PCG64's 128-bit LCG multiplier (O'Neill's PCG default)
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def rng_with_zero_word(seed):
    """A PCG64 generator whose next 64-bit output is 0. PCG64 steps its
    128-bit state (state * multiplier + increment) and outputs the rotated
    xor of the new state's two halves, so a new state with equal halves
    outputs 0; the state one step before it is set directly."""
    bitgen = np.random.PCG64(seed)
    state = bitgen.state
    equal_halves = (seed << 64) | seed
    before = (equal_halves - state["state"]["inc"]) * pow(PCG64_MULTIPLIER, -1, 1 << 128) % (1 << 128)
    state["state"]["state"] = before
    bitgen.state = state
    return np.random.Generator(bitgen)


class TestGenreDecode:
    @given(
        st.integers(0, 2**32),
        st.integers(0, 300),
        st.sampled_from([1, 2, 3, 4, 20, 70]),
        st.booleans(),
        st.sampled_from([1, 3, synth._WORD_BLOCK]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_artist_calls(self, seed, n, genre_count, buffered, block):
        expected, decoded = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:
            # a 32-bit draw leaves its word's high half buffered for the next
            expected.integers(0, 7)
            decoded.integers(0, 7)
        # words read ahead in any block size give the same draws
        with mock.patch.object(synth, "_WORD_BLOCK", block):
            assert synth._draw_genre_sets(decoded, n, genre_count) == reference_genre_sets(expected, n, genre_count)
        assert decoded.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("genre_count", [3, 4, 20, 70])
    @pytest.mark.parametrize("n", [1, 6])
    def test_zero_halves_are_rejected(self, genre_count, n):
        assert rng_with_zero_word(genre_count).bit_generator.random_raw(1)[0] == 0
        # the count draw on [0, 2] rejects a zero half (0 * 3 mod 2**32 = 0
        # is below (2**32 - 3) mod 3 = 1), so it skips both halves of the
        # zero word and starts on the next one
        rng, expected = rng_with_zero_word(genre_count), rng_with_zero_word(genre_count)
        decoded = synth._draw_genre_sets(rng, n, genre_count)
        assert decoded == reference_genre_sets(expected, n, genre_count)
        assert rng.bit_generator.state == expected.bit_generator.state
        skipped = rng_with_zero_word(genre_count)
        skipped.bit_generator.advance(1)
        assert decoded[0] == synth._draw_genre_sets(skipped, 1, genre_count)[0]


def reference_generate(config):
    """The per-artist generator over id strings: the same rng calls, one
    ``random(2k)`` attempt at a time per similar list, each list a set of
    ids handed to ``Catalog.build``."""
    n, k = config.artist_count, config.similar_per_artist
    rng = np.random.default_rng(config.seed)
    genres = genre_names(config.genre_count)
    pop_weights = (np.arange(101, dtype=np.float64) + 1.0) ** -config.popularity_exponent
    pop_weights /= pop_weights.sum()
    popularity = rng.choice(101, size=n, p=pop_weights)
    membership = np.zeros((n, config.genre_count), dtype=bool)
    genre_lists = []
    for i, chosen in enumerate(reference_genre_sets(rng, n, config.genre_count)):
        membership[i, chosen] = True
        genre_lists.append(tuple(genres[g] for g in chosen))
    ids = [f"a{i:0{max(5, len(str(n - 1)))}d}" for i in range(n)]
    target_weight = (1.0 + popularity.astype(np.float64)) ** POPULARITY_BIAS_EXPONENT
    groups = {}
    for i in range(n):
        groups.setdefault(tuple(np.flatnonzero(membership[i])), []).append(i)
    similar = {}
    for key in sorted(groups):
        shares_genre = membership[:, key].any(axis=1)
        weights = np.where(shares_genre, config.intra_genre_prob, config.cross_genre_prob) * target_weight
        cum = np.cumsum(weights)
        positive = np.diff(cum, prepend=0.0) > 0
        for i in groups[key]:
            if np.count_nonzero(weights) - positive[i] <= k:
                picks = [j for j in np.flatnonzero(positive) if j != i]
            else:
                picks, seen = [], {i}
                while len(picks) < k:
                    for j in np.searchsorted(cum, rng.random(2 * k) * cum[-1], side="right"):
                        if j not in seen and len(picks) < k:
                            seen.add(j)
                            picks.append(j)
            similar[ids[i]] = [ids[j] for j in picks]
    artists = [
        Artist(id=ids[i], name=f"Artist {ids[i][1:]}", popularity=int(popularity[i]), genres=genre_lists[i])
        for i in range(n)
    ]
    return Catalog.build(artists, similar)


class TestGenerateCatalog:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_artist_reference(self, data):
        # up to 25 genres: sets of two or three genres, with artists that
        # carry two genres of one set, so the group writes them twice
        n = data.draw(st.integers(2, 120))
        config = SynthConfig(
            seed=data.draw(st.integers(0, 2**16)),
            artist_count=n,
            genre_count=data.draw(st.integers(1, 25)),
            intra_genre_prob=data.draw(st.sampled_from([0.0, 0.3, 0.9, 1.0])),
            cross_genre_prob=data.draw(st.sampled_from([0.0, 0.05, 0.5])),
            similar_per_artist=data.draw(st.integers(1, n - 1)),
        )
        assert generate_catalog(config) == reference_generate(config)

    @pytest.mark.parametrize("config, digest", PINNED_CATALOGS)
    def test_saved_bytes_are_pinned(self, tmp_path, config, digest):
        assert catalog_digest(config, tmp_path / "c.jsonl") == digest

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("config, digest", PINNED_CATALOGS[1:])
    def test_bytes_do_not_depend_on_the_draw_block(self, tmp_path, monkeypatch, block, config, digest):
        # the generator reads its doubles ahead in blocks; any block size
        # must hand out the same stream
        monkeypatch.setattr(synth, "_DRAW_BLOCK", block)
        assert catalog_digest(config, tmp_path / "c.jsonl") == digest

    def test_same_config_byte_identical(self, tmp_path):
        config = SynthConfig(seed=42, artist_count=120, similar_per_artist=6)
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        save_catalog(generate_catalog(config), p1)
        save_catalog(generate_catalog(config), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_differs(self):
        a = generate_catalog(SynthConfig(seed=1, artist_count=50, similar_per_artist=4))
        b = generate_catalog(SynthConfig(seed=2, artist_count=50, similar_per_artist=4))
        assert a != b

    def test_pure_intra_genre_edges(self):
        config = SynthConfig(seed=5, artist_count=80, intra_genre_prob=1.0, cross_genre_prob=0.0, similar_per_artist=3)
        catalog = generate_catalog(config)
        for i in range(catalog.n):
            mine = set(catalog.artists[i].genres)
            for j in catalog.graph.row(i):
                assert mine & set(catalog.artists[j].genres)

    def test_invariants_hold(self):
        catalog = generate_catalog(SynthConfig(seed=9, artist_count=200, similar_per_artist=8))
        catalog.graph.validate()
        assert len({a.id for a in catalog.artists}) == catalog.n
        assert all(1 <= len(a.genres) <= 3 for a in catalog.artists)

    def test_long_tail_median_matches_target(self):
        catalog = generate_catalog(SynthConfig(seed=7, artist_count=5000))
        _, p50, _, _ = popularity_percentiles(catalog)
        assert 16 <= p50 <= 22
        top_decile = np.sort(catalog.popularities)[-catalog.n // 10 :]
        assert p50 < top_decile.mean() / 2

    def test_histogram_non_increasing_for_steep_exponent(self):
        catalog = generate_catalog(SynthConfig(seed=13, artist_count=30000, popularity_exponent=1.5))
        # ten-level-wide bins over 0..99 so widths are equal; 2-sigma slack
        # keeps the check statistical rather than seed-tuned
        counts, _ = np.histogram(catalog.popularities[catalog.popularities < 100], bins=range(0, 110, 10))
        for i in range(len(counts) - 1):
            slack = 2.0 * np.sqrt(counts[i] + counts[i + 1] + 1)
            assert counts[i + 1] <= counts[i] + slack

    def test_popular_artists_gain_in_degree(self):
        catalog = generate_catalog(SynthConfig(seed=3, artist_count=1500, similar_per_artist=10))
        in_degree = np.zeros(catalog.n)
        for i in range(catalog.n):
            in_degree[catalog.graph.row(i)] += 1
        pops = catalog.popularities
        assert in_degree[pops >= 60].mean() > 5 * max(in_degree[pops <= 10].mean(), 0.01)

    def test_too_few_artists_for_list_length(self):
        with pytest.raises(ValueError, match="too small"):
            generate_catalog(SynthConfig(seed=1, artist_count=5, similar_per_artist=5))

    def test_zero_artists_empty_catalog(self):
        assert generate_catalog(SynthConfig(seed=1, artist_count=0)).n == 0

    def test_zero_genres_rejected_for_nonempty_catalog(self):
        assert generate_catalog(SynthConfig(seed=1, artist_count=0, genre_count=0)).n == 0
        with pytest.raises(ValueError, match="genre_count must be >= 1 for a nonempty catalog"):
            generate_catalog(SynthConfig(seed=1, artist_count=30, genre_count=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(seed=1, intra_genre_prob=1.5)
        with pytest.raises(ValueError):
            SynthConfig(seed=1, similar_per_artist=0)
        with pytest.raises(ValueError):
            SynthConfig(seed=1, artist_count=-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SynthConfig(seed=-1)
        for exponent in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="popularity_exponent"):
                SynthConfig(seed=1, popularity_exponent=exponent)

    def test_genre_names_extend_past_common_pool(self):
        names = genre_names(23)
        assert names[:20] == COMMON_GENRES
        assert names[20:] == ("genre-21", "genre-22", "genre-23")
        assert genre_names(4) == ("rock", "jazz", "punk", "reggae")
