import csv
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenerec.catalog import UserVector, top_popular_in_genre
from scenerec.evaluation import (
    DEFAULT_BINS,
    ExperimentConfig,
    TrialSamplingError,
    auc,
    make_vae_scorer,
    make_wrmf_scorer,
    oracle_scorer,
    random_scorer,
    run_experiment,
    sample_trial,
    write_plot_data_csv,
    write_report_csv,
    write_trials_csv,
)
from scenerec.multvae import VaeConfig, predict, train_multvae
from scenerec.synth import SynthConfig, generate_catalog
from scenerec.wrmf import WrmfConfig, fold_in_user, train_wrmf
from tests.conftest import build_catalog


@pytest.fixture(scope="module")
def synth_catalog():
    return generate_catalog(SynthConfig(seed=101, artist_count=1500, similar_per_artist=8))


def brute_force_auc(labels):
    correct = total = 0
    for i in range(len(labels)):
        for j in range(len(labels)):
            if labels[i] and not labels[j]:
                total += 1
                if i < j:
                    correct += 1
    return correct / total


class TestAuc:
    def test_all_relevant_on_top(self):
        assert auc([1, 1, 0, 0]) == 1.0

    def test_reversed_perfect_ranking(self):
        assert auc([0, 0, 1, 1]) == 0.0

    def test_interleaved(self):
        assert auc([1, 0, 1, 0]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([1, 1, 1])
        with pytest.raises(ValueError):
            auc([0])
        with pytest.raises(ValueError):
            auc([])

    @given(st.lists(st.booleans(), min_size=2, max_size=200))
    @settings(max_examples=300)
    def test_matches_pair_counting_oracle(self, labels):
        if all(labels) or not any(labels):
            with pytest.raises(ValueError):
                auc(labels)
            return
        assert auc(labels) == brute_force_auc(labels)

    def test_prevalence_invariance_for_random_rankings(self):
        rng = np.random.default_rng(0)
        for n_rel, n_non in ((20, 60), (5, 75), (40, 40)):
            values = []
            for _ in range(800):
                labels = np.zeros(n_rel + n_non, dtype=bool)
                labels[rng.choice(n_rel + n_non, size=n_rel, replace=False)] = True
                values.append(auc(labels.tolist()))
            assert abs(float(np.mean(values)) - 0.5) < 0.03


class TestSampleTrial:
    def test_full_catalog_low_bin_contract(self, synth_catalog):
        config = ExperimentConfig(master_seed=5)
        trial = sample_trial(synth_catalog, config, (0, 4), np.random.default_rng(1))
        assert len(trial.scene_genres) == 8
        assert len(trial.seed_genres) == 2
        assert set(trial.seed_genres) <= set(trial.scene_genres)
        assert len(trial.candidate_ids) == 80
        assert len(trial.seed_ids) == 20
        assert len(set(trial.candidate_ids)) == 80

    def test_candidates_within_bin_and_seed_candidate_disjoint(self, synth_catalog):
        config = ExperimentConfig()
        trial = sample_trial(synth_catalog, config, (5, 9), np.random.default_rng(3))
        for cid in trial.candidate_ids:
            pop = synth_catalog.artists[synth_catalog.index[cid]].popularity
            assert 5 <= pop <= 9
        assert not set(trial.candidate_ids) & set(trial.seed_ids)

    def test_seeds_come_from_top_popular_lists(self, synth_catalog):
        trial = sample_trial(synth_catalog, ExperimentConfig(), (0, 4), np.random.default_rng(7))
        allowed = set()
        for g in trial.seed_genres:
            allowed.update(top_popular_in_genre(synth_catalog, g, 100))
        assert set(trial.seed_ids) <= allowed

    def test_relevance_marks_seed_genre_carriers(self, synth_catalog):
        trial = sample_trial(synth_catalog, ExperimentConfig(), (0, 4), np.random.default_rng(11))
        seed_genres = set(trial.seed_genres)
        for cid, label in zip(trial.candidate_ids, trial.labels):
            carries = bool(seed_genres & set(synth_catalog.artists[synth_catalog.index[cid]].genres))
            assert label == carries

    def test_seed_genres_subset_across_many_draws(self, synth_catalog):
        config = ExperimentConfig()
        rng = np.random.default_rng(0)
        for _ in range(200):
            try:
                trial = sample_trial(synth_catalog, config, (0, 9), rng)
            except TrialSamplingError:
                continue
            assert set(trial.seed_genres) <= set(trial.scene_genres)

    def test_short_genre_contributes_what_it_has(self):
        # genre "small" has 7 artists at pop 0; "big" has plenty
        specs = [(f"s{i}", 0, ["rock"]) for i in range(7)]
        specs += [(f"b{i}", 0, ["jazz"]) for i in range(40)]
        specs += [(f"p{i}", 90, ["rock", "jazz"]) for i in range(4)]
        catalog = build_catalog(specs)
        config = ExperimentConfig(
            scene_genre_count=2, seed_genre_count=1, genre_pool=("rock", "jazz"), seeds_per_genre=2
        )
        trial = sample_trial(catalog, config, (0, 4), np.random.default_rng(2))
        rock = [c for c in trial.candidate_ids if c.startswith("s")]
        jazz = [c for c in trial.candidate_ids if c.startswith("b")]
        assert len(rock) == 7
        assert len(jazz) == 10

    def test_missing_seed_genre_aborts(self):
        catalog = build_catalog([("a", 10, ["rock"]), ("b", 20, ["rock"])])
        config = ExperimentConfig(scene_genre_count=2, seed_genre_count=2, genre_pool=("rock", "zydeco"))
        with pytest.raises(TrialSamplingError):
            # zydeco has no artists at all; both genres become seed genres
            sample_trial(catalog, config, (0, 100), np.random.default_rng(0))

    def test_single_class_candidates_abort(self):
        # only one genre has in-range artists and it is the seed genre
        catalog = build_catalog([(f"a{i}", 5, ["rock"]) for i in range(30)] + [("top", 90, ["jazz"])])
        config = ExperimentConfig(scene_genre_count=2, seed_genre_count=2, genre_pool=("rock", "jazz"))
        with pytest.raises(TrialSamplingError):
            sample_trial(catalog, config, (0, 9), np.random.default_rng(1))

    def test_deterministic_given_stream(self, synth_catalog):
        config = ExperimentConfig()
        a = sample_trial(synth_catalog, config, (10, 14), np.random.default_rng(99))
        b = sample_trial(synth_catalog, config, (10, 14), np.random.default_rng(99))
        assert a == b

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(seed_genre_count=9, scene_genre_count=8)
        with pytest.raises(ValueError):
            ExperimentConfig(bins=((5, 3),))
        with pytest.raises(ValueError):
            ExperimentConfig(trials_per_bin=0)


class TestRunExperiment:
    def test_oracle_scores_one_everywhere(self, synth_catalog):
        config = ExperimentConfig(bins=((0, 4), (10, 14), (20, 24)), trials_per_bin=10, master_seed=3)
        report = run_experiment(synth_catalog, {"oracle": oracle_scorer}, config)
        for row in report.rows:
            assert row.n_trials > 0
            assert row.mean_auc == 1.0

    def test_random_scorer_calibrates_to_half(self, synth_catalog):
        config = ExperimentConfig(bins=((0, 4), (5, 9)), trials_per_bin=150, master_seed=4)
        report = run_experiment(synth_catalog, {"random": random_scorer}, config)
        values = [v for row in report.rows for _, v in row.trial_aucs]
        assert abs(float(np.mean(values)) - 0.5) < 0.03

    def test_row_count_is_algorithms_times_bins(self, synth_catalog):
        config = ExperimentConfig(bins=DEFAULT_BINS, trials_per_bin=2, master_seed=0)
        report = run_experiment(synth_catalog, {"oracle": oracle_scorer, "random": random_scorer}, config)
        assert len(report.rows) == 32

    def test_paired_design_shares_trials(self, synth_catalog):
        seen = {"a": [], "b": []}

        def recorder(key):
            def rank(trial, rng):
                seen[key].append(trial.candidate_ids)
                return oracle_scorer(trial, rng)

            return rank

        config = ExperimentConfig(bins=((0, 4), (5, 9)), trials_per_bin=5, master_seed=8)
        run_experiment(synth_catalog, {"a": recorder("a"), "b": recorder("b")}, config)
        assert seen["a"] == seen["b"]

    def test_bit_for_bit_reproducible(self, synth_catalog, tmp_path):
        config = ExperimentConfig(bins=((0, 4), (5, 9)), trials_per_bin=20, master_seed=12)
        paths = []
        for run in range(2):
            report = run_experiment(synth_catalog, {"random": random_scorer}, config)
            path = tmp_path / f"r{run}.csv"
            write_report_csv(report, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unsampleable_bin_reported_empty(self):
        catalog = build_catalog(
            [(f"a{i}", 10, ["rock"]) for i in range(20)] + [(f"b{i}", 12, ["jazz"]) for i in range(20)]
        )
        config = ExperimentConfig(
            bins=((50, 54),), trials_per_bin=5, scene_genre_count=2, seed_genre_count=1,
            genre_pool=("rock", "jazz"), master_seed=1,
        )
        report = run_experiment(catalog, {"oracle": oracle_scorer}, config)
        row = report.rows[0]
        assert row.n_trials == 0
        assert row.mean_auc is None
        assert report.failed_trials_per_bin == (5,)
        assert report.resamples_per_bin[0] > 0

    @pytest.mark.parametrize(
        "bad_scores",
        [
            pytest.param(lambda n: np.zeros(n - 1), id="too short"),
            pytest.param(lambda n: np.zeros(n + 1), id="too long"),
            pytest.param(lambda n: np.zeros((n, 1)), id="column"),
            pytest.param(lambda n: np.r_[np.zeros(n - 1), np.nan], id="nan"),
            pytest.param(lambda n: np.r_[np.inf, np.zeros(n - 1)], id="inf"),
        ],
    )
    def test_bad_scores_rejected(self, synth_catalog, bad_scores):
        def broken(trial, rng):
            return bad_scores(len(trial.candidate_ids))

        config = ExperimentConfig(bins=((0, 4),), trials_per_bin=1, master_seed=0)
        with pytest.raises(ValueError, match="scorer 'broken' must return one finite score per candidate"):
            run_experiment(synth_catalog, {"oracle": oracle_scorer, "broken": broken}, config)

    def test_equal_scores_tie_break_by_id(self, synth_catalog):
        trials = []

        def constant(trial, rng):
            trials.append(trial)
            return np.full(len(trial.candidate_ids), 0.25)

        config = ExperimentConfig(bins=((0, 4), (20, 24)), trials_per_bin=6, master_seed=2)
        report = run_experiment(synth_catalog, {"constant": constant}, config)
        got = [v for row in report.rows for _, v in row.trial_aucs]
        expected = [auc([lab for _, lab in sorted(zip(t.candidate_ids, t.labels))]) for t in trials]
        assert len(got) == 12 and got == expected

    def test_sampled_trials_are_pinned(self, tmp_path):
        # Digest of the per-trial CSV recorded before the genre queries were
        # indexed. random and oracle make no BLAS calls, so the bytes do not
        # depend on the machine. A change that alters trials on purpose
        # updates the digest and says why.
        catalog = generate_catalog(SynthConfig(seed=2024, artist_count=1000))
        config = ExperimentConfig(trials_per_bin=5, master_seed=9)
        report = run_experiment(catalog, {"random": random_scorer, "oracle": oracle_scorer}, config)
        path = tmp_path / "trials.csv"
        write_trials_csv(report, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "7ebbc12e807514202793cdd5bf555affd69ae8ad91972dfb693a0c2ad1f027b8"

    def test_means_within_unit_interval(self, synth_catalog):
        config = ExperimentConfig(bins=((0, 4), (5, 9)), trials_per_bin=25, master_seed=6)
        report = run_experiment(synth_catalog, {"random": random_scorer}, config)
        for row in report.rows:
            assert 0.0 <= row.mean_auc <= 1.0
            assert row.stderr >= 0.0


def reference_auc(scores_by_id):
    """The ranking rule written per candidate: sort (id, score, label)
    triples by descending score, ties by ascending id."""
    ranked = sorted(scores_by_id, key=lambda c: (-c[1], c[0]))
    return auc([label for _, _, label in ranked])


class TestModelScorers:
    def test_scorers_rank_like_the_model_functions(self):
        catalog = generate_catalog(SynthConfig(seed=5, artist_count=400, similar_per_artist=6))
        wrmf_model = train_wrmf(catalog.graph, WrmfConfig(k=8, sweeps=2, seed=1))
        vae_model, _ = train_multvae(
            catalog.graph, VaeConfig(n_items=catalog.n, hidden=20, bottleneck=5, epochs=2, seed=1)
        )
        trials = []

        def recorder(trial, rng):
            trials.append(trial)
            return oracle_scorer(trial, rng)

        scorers = {
            "trial": recorder,
            "wrmf": make_wrmf_scorer(wrmf_model, catalog),
            "multvae": make_vae_scorer(vae_model, catalog),
        }
        config = ExperimentConfig(bins=((0, 9), (10, 19), (20, 39)), trials_per_bin=4, master_seed=1)
        report = run_experiment(catalog, scorers, config)
        expected = {"wrmf": [], "multvae": []}
        for trial in trials:
            user = UserVector.from_ids(catalog, trial.seed_ids)
            vec = fold_in_user(wrmf_model, user)
            predicted = predict(vae_model, user)
            wrmf_scores, vae_scores = [], []
            for cid, label in zip(trial.candidate_ids, trial.labels):
                wrmf_scores.append((cid, float(wrmf_model.col_factors[catalog.index[cid]] @ vec), label))
                vae_scores.append((cid, float(predicted[catalog.index[cid]]), label))
            expected["wrmf"].append(reference_auc(wrmf_scores))
            expected["multvae"].append(reference_auc(vae_scores))
        assert len(trials) >= 6
        for name, values in expected.items():
            assert [v for row in report.rows if row.algorithm == name for _, v in row.trial_aucs] == values


class TestCsvOutput:
    @pytest.fixture
    def report(self, synth_catalog):
        config = ExperimentConfig(bins=((0, 4), (5, 9)), trials_per_bin=4, master_seed=9)
        return run_experiment(synth_catalog, {"oracle": oracle_scorer, "random": random_scorer}, config)

    def test_report_csv_shape(self, report, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["algorithm", "bin_lo", "bin_hi", "n_trials", "mean_auc", "stderr"]
        assert len(rows) == 1 + 4

    def test_trials_csv_has_raw_values(self, report, tmp_path):
        path = tmp_path / "trials.csv"
        write_trials_csv(report, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["algorithm", "bin_lo", "bin_hi", "trial", "auc"]
        assert len(rows) == 1 + sum(r.n_trials for r in report.rows)

    def test_plot_data_uses_bin_midpoints(self, report, tmp_path):
        path = tmp_path / "plot.csv"
        write_plot_data_csv(report, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["algorithm", "bin_mid", "mean_auc", "stderr"]
        assert rows[1][1] == "2.0"
