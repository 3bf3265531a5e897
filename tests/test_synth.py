import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenerec.catalog import COMMON_GENRES, popularity_percentiles, save_catalog
from scenerec.synth import (
    CrawlError,
    FixtureProvider,
    InMemoryProvider,
    ProviderRecord,
    SynthConfig,
    generate_catalog,
    genre_names,
    snowball_crawl,
)


def chain_provider():
    return InMemoryProvider(
        {
            "a": ProviderRecord(10, ("rock",), ("b",)),
            "b": ProviderRecord(20, ("rock",), ("c",)),
            "c": ProviderRecord(30, ("jazz",), ()),
        }
    )


class TestSnowballCrawl:
    def test_chain_fully_fetched(self):
        catalog = snowball_crawl(chain_provider(), ["a"], 3)
        assert catalog.ids == ("a", "b", "c")
        a, b, c = (catalog.index[x] for x in "abc")
        assert list(catalog.graph.row(a)) == [b]
        assert list(catalog.graph.row(b)) == [c]

    def test_no_seeds_empty_catalog(self):
        assert snowball_crawl(chain_provider(), [], 10).n == 0

    def test_limit_prunes_unfetched_references(self):
        catalog = snowball_crawl(chain_provider(), ["a"], 2)
        assert catalog.ids == ("a", "b")
        # b's reference to c is dropped because c was never fetched
        assert list(catalog.graph.row(catalog.index["b"])) == []

    def test_zero_limit(self):
        assert snowball_crawl(chain_provider(), ["a"], 0).n == 0

    def test_missing_seed_is_error(self):
        with pytest.raises(CrawlError, match="ghost"):
            snowball_crawl(chain_provider(), ["ghost"], 5)

    def test_missing_discovered_artist_skipped_with_warning(self, caplog):
        provider = InMemoryProvider({"a": ProviderRecord(10, (), ("gone", "b")), "b": ProviderRecord(5, (), ())})
        with caplog.at_level(logging.WARNING, logger="scenerec.synth"):
            catalog = snowball_crawl(provider, ["a"], 10)
        assert catalog.ids == ("a", "b")
        assert any("gone" in rec.message for rec in caplog.records)

    def test_self_reference_dropped(self):
        provider = InMemoryProvider({"a": ProviderRecord(10, (), ("a", "b")), "b": ProviderRecord(5, (), ())})
        catalog = snowball_crawl(provider, ["a"], 10)
        assert list(catalog.graph.row(catalog.index["a"])) == [catalog.index["b"]]

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            snowball_crawl(chain_provider(), ["a"], -1)

    def test_result_never_exceeds_limit(self):
        catalog = generate_catalog(SynthConfig(seed=3, artist_count=40, similar_per_artist=4))
        provider = InMemoryProvider.from_catalog(catalog)
        crawled = snowball_crawl(provider, [catalog.ids[0]], 15)
        assert crawled.n <= 15

    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_limit(self, lim_a, lim_b, seed):
        catalog = generate_catalog(SynthConfig(seed=seed % 7, artist_count=30, similar_per_artist=3))
        provider = InMemoryProvider.from_catalog(catalog)
        seeds = [catalog.ids[seed % catalog.n]]
        lo, hi = sorted((lim_a, lim_b))
        small = snowball_crawl(provider, seeds, lo)
        big = snowball_crawl(provider, seeds, hi)
        assert set(small.ids) <= set(big.ids)

    def test_fixture_provider_round_trip(self, tmp_path):
        catalog = generate_catalog(SynthConfig(seed=11, artist_count=30, similar_per_artist=3))
        path = tmp_path / "fixture.jsonl"
        save_catalog(catalog, path)
        provider = FixtureProvider(path)
        crawled = snowball_crawl(provider, list(catalog.ids), catalog.n)
        assert crawled == catalog


class TestGenerateCatalog:
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
        rep = popularity_percentiles(catalog)
        assert 16 <= rep.p50 <= 22
        top_decile = np.sort(catalog.popularities)[-catalog.n // 10 :]
        assert rep.p50 < top_decile.mean() / 2

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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(seed=1, intra_genre_prob=1.5)
        with pytest.raises(ValueError):
            SynthConfig(seed=1, similar_per_artist=0)
        with pytest.raises(ValueError):
            SynthConfig(seed=1, artist_count=-1)

    def test_genre_names_extend_past_common_pool(self):
        names = genre_names(23)
        assert names[:20] == COMMON_GENRES
        assert names[20:] == ("genre-21", "genre-22", "genre-23")
        assert genre_names(4) == ("rock", "jazz", "punk", "reggae")


class TestProviderPurity:
    def test_repeated_lookup_identical(self):
        provider = chain_provider()
        assert provider.lookup("a") == provider.lookup("a")
