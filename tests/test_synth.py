import hashlib
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenerec.catalog import COMMON_GENRES, Catalog, CatalogError, popularity_percentiles, save_catalog
from scenerec.synth import (
    POPULARITY_BIAS_EXPONENT,
    FixtureProvider,
    SynthConfig,
    generate_catalog,
    genre_name,
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


# SHA-256 of the saved catalog for each config, re-recorded when the
# similar lists became rejection-sampled. The small configs hold rows of
# every positive-weight target next to sampled ones; seed 8 at 200 mixes
# rows finished in one round of proposals and in several; the one-genre
# config gives every artist one genre segment; the 70-genre one (as
# ``--genres 70``) draws genre indices past the common pool and past 63.
# The last two list most (intra 0) or some (cross 0) rows whole, from the
# genre segments, beside sampled rows.
PINNED_CATALOGS = [
    pytest.param(dict(seed=7, artist_count=5000), "acc8d8605d47eb961b5dc34c10fbd577436e4d097b1ede0a63838792d062d6b8", id="5k"),
    pytest.param(dict(seed=3, artist_count=30), "b6a4be7c92f15b4205cc59321bf4cbb0ad25643c8b6ea47ea66c4e21e4b7f8bc", id="30"),
    pytest.param(
        dict(seed=4, artist_count=25, genre_count=2),
        "8d3dfdab7c8aa565dac643439f48d0562a502f57dc4324fb1b6a25edb9e616d7",
        id="25-two-genres",
    ),
    pytest.param(
        dict(seed=2, artist_count=40, genre_count=3, cross_genre_prob=0.0, similar_per_artist=15),
        "cb6c68ec500e0373c18f066995a856cd8e1bd1ac448ca7b7f0576e307e33e666",
        id="40-intra-only",
    ),
    pytest.param(
        dict(seed=6, artist_count=25, cross_genre_prob=0.0),
        "aa6b72a06e9f936a5340c526f6e941ac9b09232922c2421e524ba2575db4433b",
        id="25-all-positive",
    ),
    pytest.param(
        dict(seed=8, artist_count=200, similar_per_artist=10),
        "6dfc7c063ee1342587326de7ddbdb0b4caa351be214146f2b2ab7b75c9c7f19f",
        id="200-mixed",
    ),
    pytest.param(
        dict(seed=5, artist_count=1000, genre_count=1),
        "8ee83bcbd5975a1ba247f951a153a87f2c1ecfc5d66d164abd11d055617c3e92",
        id="1000-one-genre",
    ),
    pytest.param(
        dict(seed=9, artist_count=400, genre_count=70),
        "94905cb2b69a10f50200fa411826e70d3ad51a67c53adc97cba6bce31486e47f",
        id="400-seventy-genres",
    ),
    pytest.param(
        dict(seed=6, artist_count=60, genre_count=3, intra_genre_prob=0.0, cross_genre_prob=0.5),
        "bcbcfc1068f7f0202ffb1020a555c4cfe11555027232de7d349b9409d2bdb08c",
        id="60-cross-only",
    ),
    pytest.param(
        dict(seed=3, artist_count=2000, genre_count=200, cross_genre_prob=0.0),
        "4db79bf05ead313842f7e4cb7863adf05e802c1e35fe8228e63a1b2bb917e94e",
        id="2000-intra-only-200-genres",
    ),
]


def catalog_digest(config, path):
    save_catalog(generate_catalog(SynthConfig(**config)), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reference_popularity(config):
    """The generator's first draw, the same in every version: each artist's
    popularity level from the power law."""
    pop_weights = (np.arange(101, dtype=np.float64) + 1.0) ** -config.popularity_exponent
    pop_weights /= pop_weights.sum()
    return np.random.default_rng(config.seed).choice(101, size=config.artist_count, p=pop_weights)


def pick_weights(catalog, config, i):
    """Each artist's weight as a pick for artist i's similar list, 0 for i
    itself, and how many of i's genres it has."""
    mine = set(catalog.artists[i].genres)
    common = np.array([len(mine & set(a.genres)) for a in catalog.artists])
    weights = np.where(common > 0, config.intra_genre_prob, config.cross_genre_prob)
    weights = weights * (1.0 + catalog.popularities) ** POPULARITY_BIAS_EXPONENT
    weights[i] = 0.0
    return weights, common


def assert_within_4_sd(hits, probs):
    """``hits`` are independent Bernoulli outcomes with success
    probabilities ``probs``; their sum lies within 4 standard deviations."""
    sd = np.sqrt(np.sum(probs * (1.0 - probs)))
    assert abs(np.sum(hits) - np.sum(probs)) <= 4.0 * sd


class TestSimilarListLaw:
    def test_single_picks_share_a_genre_at_the_model_rate(self):
        # k = 1: each row is one draw, same-genre with probability
        # intra * W_share / (intra * W_share + cross * W_other) over j != i.
        # Sharing two or three genres weighs the same as sharing one.
        hits, probs = [], []
        for seed in range(2000):
            config = SynthConfig(
                seed=seed, artist_count=8, genre_count=4, intra_genre_prob=0.9, cross_genre_prob=0.3,
                similar_per_artist=1,
            )
            catalog = generate_catalog(config)
            for i in range(catalog.n):
                weights, common = pick_weights(catalog, config, i)
                probs.append([weights[common > 0].sum(), weights[common > 1].sum()] / weights.sum())
                hits.append(common[catalog.graph.row(i)[0]] > [0, 1])
        hits, probs = np.array(hits), np.array(probs)
        assert_within_4_sd(hits[:, 0], probs[:, 0])
        assert_within_4_sd(hits[:, 1], probs[:, 1])

    def test_pairs_follow_successive_sampling(self):
        # k = 2: row {a, b} has probability p_a p_b / (1 - p_a) + p_b p_a / (1 - p_b),
        # p the row's normalized weights. Artist indices mean nothing across
        # catalogs, so each row's 15 pairs are ranked by that probability and
        # the rows counted by the rank of the pair they hold. Ranks expected
        # at least 10 times are checked one by one, the rest pooled.
        n = 6
        upper = np.triu_indices(n, 1)
        probs, hits = [], []
        for seed in range(2000):
            config = SynthConfig(
                seed=seed, artist_count=n, genre_count=3, intra_genre_prob=0.9, cross_genre_prob=0.3,
                similar_per_artist=2,
            )
            catalog = generate_catalog(config)
            for i in range(n):
                p = pick_weights(catalog, config, i)[0]
                p /= p.sum()
                pair = (np.outer(p, p) * (1.0 / (1.0 - p)[:, None] + 1.0 / (1.0 - p)[None, :]))[upper]
                held = np.zeros((n, n), dtype=bool)
                held[tuple(catalog.graph.row(i))] = True
                ranked = np.argsort(-pair, kind="stable")
                probs.append(pair[ranked])
                hits.append(held[upper][ranked])
        probs, hits = np.array(probs), np.array(hits)
        assert np.allclose(probs.sum(axis=1), 1.0) and (hits.sum(axis=1) == 1).all()
        frequent = probs.sum(axis=0) >= 10
        for rank in np.flatnonzero(frequent):
            assert_within_4_sd(hits[:, rank], probs[:, rank])
        assert_within_4_sd(hits[:, ~frequent].sum(axis=1), probs[:, ~frequent].sum(axis=1))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_rows_are_positive_weight_targets(self, data):
        # a row is k distinct positive-weight targets, sorted and without i,
        # or all of them when there are at most k
        n = data.draw(st.integers(2, 60))
        config = SynthConfig(
            seed=data.draw(st.integers(0, 2**16)),
            artist_count=n,
            genre_count=data.draw(st.integers(1, 80)),
            intra_genre_prob=data.draw(st.sampled_from([0.0, 0.3, 0.9, 1.0])),
            cross_genre_prob=data.draw(st.sampled_from([0.0, 0.05, 0.5])),
            similar_per_artist=data.draw(st.integers(1, n - 1)),
        )
        catalog = generate_catalog(config)
        catalog.graph.validate()
        assert np.array_equal(catalog.popularities, reference_popularity(config))
        for i in range(n):
            weights = pick_weights(catalog, config, i)[0]
            row = catalog.graph.row(i)
            positive = np.flatnonzero(weights > 0)
            if positive.size <= config.similar_per_artist:
                assert np.array_equal(row, positive)
            else:
                assert row.size == config.similar_per_artist and (weights[row] > 0).all()

    def test_genre_free_rows_without_intra_weight(self):
        config = SynthConfig(seed=5, artist_count=80, intra_genre_prob=0.0, cross_genre_prob=1.0, similar_per_artist=3)
        catalog = generate_catalog(config)
        for i in range(catalog.n):
            mine = set(catalog.artists[i].genres)
            for j in catalog.graph.row(i):
                assert not mine & set(catalog.artists[j].genres)

    @pytest.mark.parametrize("seed, n, exponent", [(0, 1000, 0.0), (3, 30, 0.7), (11, 500, 1.5), (2, 200, -0.5)])
    def test_popularity_is_the_first_draw(self, seed, n, exponent):
        config = SynthConfig(seed=seed, artist_count=n, popularity_exponent=exponent)
        assert np.array_equal(generate_catalog(config).popularities, reference_popularity(config))

    def test_seed_7_popularities_are_pinned(self):
        # the acceptance catalog's popularities, as every generator version drew them
        popularities = generate_catalog(SynthConfig(seed=7, artist_count=5000)).popularities
        digest = hashlib.sha256(np.asarray(popularities, dtype=np.int64).tobytes()).hexdigest()
        assert digest == "964a7c08139615c4099fa53c9135dae20e54b242c3d56d4657458a6465368c9f"


class TestGenerateCatalog:
    @pytest.mark.parametrize("config, digest", PINNED_CATALOGS)
    def test_saved_bytes_are_pinned(self, tmp_path, config, digest):
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
        with pytest.raises(ValueError, match="artist_count must be >= 0, got -1"):
            SynthConfig(seed=1, artist_count=-1)
        with pytest.raises(ValueError, match="genre_count must be >= 0, got -1"):
            SynthConfig(seed=1, genre_count=-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SynthConfig(seed=-1)
        for exponent in (float("nan"), float("inf"), -float("inf"), -1000.0):
            with pytest.raises(ValueError, match="popularity_exponent"):
                SynthConfig(seed=1, popularity_exponent=exponent)

    def test_genre_count_bound_is_2_to_the_63(self):
        # genre codes are int64 draws below genre_count
        catalog = generate_catalog(SynthConfig(seed=1, artist_count=30, genre_count=2**63))
        assert catalog.n == 30 and all(g.startswith("genre-") for a in catalog.artists for g in a.genres)
        with pytest.raises(ValueError, match=f"^genre_count must be <= {2**63}, got {2**63 + 1}$"):
            SynthConfig(seed=1, genre_count=2**63 + 1)

    def test_genre_names_extend_past_common_pool(self):
        names = tuple(map(genre_name, range(23)))
        assert names[:20] == COMMON_GENRES
        assert names[20:] == ("genre-21", "genre-22", "genre-23")
        assert names[:4] == ("rock", "jazz", "punk", "reggae")
