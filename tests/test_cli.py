import csv
import json

import numpy as np
import pytest

from scenerec.catalog import load_catalog, save_catalog
from scenerec.cli import main
from scenerec.evaluation import REPORT_COLUMNS
from scenerec.multvae import load_vae_model
from scenerec.synth import SynthConfig, generate_catalog
from scenerec.wrmf import load_factor_model


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def small_catalog_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "catalog.jsonl"
    save_catalog(generate_catalog(SynthConfig(seed=21, artist_count=400, similar_per_artist=6)), path)
    return path


class TestSynthCommand:
    def test_deterministic_output_files(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(["synth", "--artists", 200, "--seed", 7, "--out", a]) == 0
        assert run(["synth", "--artists", 200, "--seed", 7, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_prints_percentile_report(self, tmp_path, capsys):
        run(["synth", "--artists", 300, "--seed", 1, "--out", tmp_path / "c.jsonl"])
        out = capsys.readouterr().out
        assert "25%" in out and "95%" in out and "generated" in out

    def test_crawl_respects_limit(self, tmp_path, small_catalog_file):
        catalog = load_catalog(small_catalog_file)
        out = tmp_path / "crawl.jsonl"
        code = run(
            ["synth", "--from-fixture", small_catalog_file, "--seeds", catalog.ids[0], "--limit", 50,
             "--seed", 0, "--out", out]
        )
        assert code == 0
        assert load_catalog(out).n <= 50

    def test_long_tail_shape_in_generated_catalog(self, tmp_path):
        out = tmp_path / "c.jsonl"
        run(["synth", "--artists", 3000, "--seed", 5, "--out", out])
        catalog = load_catalog(out)
        pops = np.sort(catalog.popularities)
        median = pops[len(pops) // 2]
        p95 = pops[int(np.ceil(95 * len(pops) / 100)) - 1]
        assert median < p95 / 2

    def test_bad_flags_exit_nonzero(self, tmp_path):
        assert run(["synth", "--artists", 3, "--similar-per-artist", 5, "--seed", 1, "--out", tmp_path / "x"]) == 1

    def test_missing_seed_fails_in_one_line(self, tmp_path, small_catalog_file, capsys):
        out = tmp_path / "crawl.jsonl"
        code = run(["synth", "--from-fixture", small_catalog_file, "--seeds", "ghost", "--seed", 0, "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ghost" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("seeds", [None, ","])
    def test_crawl_without_seeds_fails_in_one_line(self, tmp_path, small_catalog_file, seeds, capsys):
        out = tmp_path / "crawl.jsonl"
        argv = ["synth", "--from-fixture", small_catalog_file, "--seed", 0, "--out", out]
        code = run(argv + (["--seeds", seeds] if seeds else []))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --from-fixture needs --seeds") and err.count("\n") == 1
        assert not out.exists()

    def test_nan_exponent_fails_in_one_line(self, tmp_path, capsys):
        assert run(["synth", "--artists", 50, "--exponent", "nan", "--seed", 1, "--out", tmp_path / "x"]) == 1
        assert capsys.readouterr().err == "error: popularity_exponent must be finite, got nan\n"


class TestTrainCommand:
    def test_wrmf_defaults_recorded(self, tmp_path, small_catalog_file):
        out = tmp_path / "w.npz"
        assert run(["train", "wrmf", "--catalog", small_catalog_file, "--seed", 3, "--sweeps", 2, "--out", out]) == 0
        model = load_factor_model(out)
        assert model.config.k == 128
        assert model.config.lam == 0.1
        assert model.config.alpha == 15.0

    def test_multvae_defaults_recorded(self, tmp_path, small_catalog_file):
        out = tmp_path / "v.npz"
        code = run(["train", "multvae", "--catalog", small_catalog_file, "--seed", 3, "--epochs", 1, "--out", out])
        assert code == 0
        model = load_vae_model(out)
        assert model.config.bottleneck == 200
        assert model.config.dropout == 0.2
        assert model.config.batch_size == 250

    def test_empty_catalog_fails_without_writing(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "model.npz"
        assert run(["train", "wrmf", "--catalog", empty, "--seed", 1, "--out", out]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "model, flags, message",
        [
            # the diverging config of test_multvae's test_divergence_reports_epoch
            ("multvae", ["--hidden", 4, "--bottleneck", 2, "--dropout", 0.0, "--batch-size", 1, "--epochs", 5,
                         "--learning-rate", 1000.0, "--kl-weight", 1.0], "non-finite training loss at epoch 0"),
            ("wrmf", ["--k", 1, "--alpha", 1e308, "--sweeps", 2], "non-finite factors after sweep 0"),
            ("wrmf", ["--k", 2, "--alpha", 1e308, "--sweeps", 2], "objective rose"),
        ],
    )
    def test_training_divergence_fails_in_one_line(self, tmp_path, capsys, model, flags, message):
        path = tmp_path / "pairs.jsonl"
        similar = {"a": ["b"], "b": ["a"], "c": ["d"], "d": ["c"]}
        records = [{"id": i, "name": i, "popularity": 10, "genres": ["rock"], "similar": s} for i, s in similar.items()]
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        out = tmp_path / "model.npz"
        assert run(["train", model, "--catalog", path, "--seed", 0, *flags, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--learning-rate", -1), ("--kl-weight", "nan"), ("--alpha", "nan")])
    def test_bad_float_flags_fail_in_one_line(self, tmp_path, small_catalog_file, capsys, flag, value):
        model = "wrmf" if flag == "--alpha" else "multvae"
        out = tmp_path / "model.npz"
        assert run(["train", model, "--catalog", small_catalog_file, "--seed", 0, flag, value, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1
        assert not out.exists()

    def test_prints_training_trace(self, tmp_path, small_catalog_file, capsys):
        run(["train", "wrmf", "--catalog", small_catalog_file, "--seed", 1, "--k", 8, "--sweeps", 2,
             "--out", tmp_path / "m.npz"])
        assert "objective per half-sweep" in capsys.readouterr().out


@pytest.fixture(scope="module")
def trained_models(tmp_path_factory, small_catalog_file):
    root = tmp_path_factory.mktemp("models")
    wrmf_path, vae_path = root / "wrmf.npz", root / "vae.npz"
    run(["train", "wrmf", "--catalog", small_catalog_file, "--seed", 3, "--k", 16, "--sweeps", 3, "--out", wrmf_path])
    run(["train", "multvae", "--catalog", small_catalog_file, "--seed", 3, "--hidden", 40, "--bottleneck", 10,
         "--epochs", 3, "--out", vae_path])
    return wrmf_path, vae_path


class TestEvalCommand:
    def test_two_models_default_bins_give_32_rows(self, tmp_path, small_catalog_file, trained_models):
        wrmf_path, vae_path = trained_models
        out = tmp_path / "report.csv"
        code = run(
            ["eval", "--catalog", small_catalog_file, "--model", f"wrmf={wrmf_path}", "--model", f"multvae={vae_path}",
             "--trials", 2, "--seed", 11, "--out", out]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 32

    def test_random_algorithm_calibrates(self, tmp_path, small_catalog_file):
        out = tmp_path / "report.csv"
        code = run(
            ["eval", "--catalog", small_catalog_file, "--algorithms", "random", "--bins", "0-9,10-19",
             "--trials", 60, "--seed", 5, "--out", out]
        )
        assert code == 0
        with open(out) as fh:
            means = [float(r["mean_auc"]) for r in csv.DictReader(fh) if r["mean_auc"]]
        assert means and all(abs(m - 0.5) < 0.06 for m in means)

    def test_same_seed_identical_csv_bytes(self, tmp_path, small_catalog_file, trained_models):
        wrmf_path, _ = trained_models
        outs = []
        for i in range(2):
            out = tmp_path / f"r{i}.csv"
            run(["eval", "--catalog", small_catalog_file, "--model", f"wrmf={wrmf_path}", "--bins", "0-9,10-19",
                 "--trials", 10, "--seed", 11, "--out", out])
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_plot_data_and_per_trial_outputs(self, tmp_path, small_catalog_file):
        out, plot, per = tmp_path / "r.csv", tmp_path / "plot.csv", tmp_path / "trials.csv"
        code = run(["eval", "--catalog", small_catalog_file, "--algorithms", "oracle", "--bins", "0-9",
                    "--trials", 4, "--seed", 1, "--out", out, "--plot-data", plot, "--per-trial", per])
        assert code == 0
        assert plot.read_text().startswith("algorithm,bin_mid,mean_auc,stderr")
        assert per.read_text().startswith("algorithm,bin_lo,bin_hi,trial,auc")

    def test_unknown_algorithm_fails_in_one_line(self, tmp_path, small_catalog_file, capsys):
        code = run(["eval", "--catalog", small_catalog_file, "--algorithms", "nope", "--bins", "0-9", "--trials", 1,
                    "--seed", 1, "--out", tmp_path / "r.csv"])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown algorithm name(s): nope\n"

    def test_repeated_algorithm_fails_in_one_line(self, tmp_path, small_catalog_file, capsys):
        code = run(["eval", "--catalog", small_catalog_file, "--algorithms", "oracle,random,oracle", "--bins", "0-9",
                    "--trials", 1, "--seed", 1, "--out", tmp_path / "r.csv"])
        assert code == 1
        assert capsys.readouterr().err == "error: repeated algorithm name(s): oracle\n"
        assert not (tmp_path / "r.csv").exists()

    def test_repeated_model_fails_in_one_line(self, tmp_path, small_catalog_file, trained_models, capsys):
        wrmf_path, _ = trained_models
        code = run(["eval", "--catalog", small_catalog_file, "--model", f"wrmf={wrmf_path}", "--model",
                    f"wrmf={wrmf_path}", "--bins", "0-9", "--trials", 1, "--seed", 1, "--out", tmp_path / "r.csv"])
        assert code == 1
        assert capsys.readouterr().err == "error: --model wrmf given more than once\n"
        assert not (tmp_path / "r.csv").exists()

    def test_algorithms_run_in_the_given_order(self, tmp_path, small_catalog_file):
        out = tmp_path / "r.csv"
        code = run(["eval", "--catalog", small_catalog_file, "--algorithms", "oracle,random", "--bins", "0-9,10-19",
                    "--trials", 2, "--seed", 1, "--out", out])
        assert code == 0
        with open(out) as fh:
            assert [r["algorithm"] for r in csv.DictReader(fh)] == ["oracle", "oracle", "random", "random"]

    @pytest.mark.parametrize("bins", ["0-4,", "5", "a-b"])
    def test_bad_bins_fail_in_one_line(self, tmp_path, small_catalog_file, bins, capsys):
        code = run(["eval", "--catalog", small_catalog_file, "--algorithms", "oracle", "--bins", bins, "--trials", 1,
                    "--seed", 1, "--out", tmp_path / "r.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --bins: bad range") and err.count("\n") == 1

    def test_repeated_genre_in_catalog_fails_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "dup.jsonl"
        records = [
            {"id": "a", "name": "a", "popularity": 10, "genres": ["rock", "rock"], "similar": ["b"]},
            {"id": "b", "name": "b", "popularity": 20, "genres": ["rock"], "similar": []},
        ]
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        code = run(["eval", "--catalog", path, "--algorithms", "oracle", "--trials", 1, "--seed", 1,
                    "--out", tmp_path / "r.csv"])
        assert code == 1
        assert capsys.readouterr().err == "error: artist 'a': genre 'rock' listed twice\n"

    def test_hash_mismatch_fails(self, tmp_path, trained_models):
        wrmf_path, _ = trained_models
        other = tmp_path / "other.jsonl"
        save_catalog(generate_catalog(SynthConfig(seed=99, artist_count=50, similar_per_artist=4)), other)
        code = run(["eval", "--catalog", other, "--model", f"wrmf={wrmf_path}", "--trials", 1, "--seed", 1,
                    "--out", tmp_path / "r.csv"])
        assert code == 1

    def test_unknown_model_kind_rejected(self, tmp_path, small_catalog_file):
        code = run(["eval", "--catalog", small_catalog_file, "--model", "svd=/nowhere.npz", "--trials", 1,
                    "--seed", 1, "--out", tmp_path / "r.csv"])
        assert code == 1

    @pytest.mark.parametrize("kind, other", [("multvae", 0), ("wrmf", 1)])
    def test_model_file_of_other_kind_fails_in_one_line(self, tmp_path, small_catalog_file, trained_models, kind,
                                                        other, capsys):
        code = run(["eval", "--catalog", small_catalog_file, "--model", f"{kind}={trained_models[other]}",
                    "--trials", 1, "--seed", 1, "--out", tmp_path / "r.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not a " + kind in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "damage", ["missing array", "truncated", "catalog jsonl", "wrmf array shape", "multvae array shape"]
    )
    def test_damaged_model_file_fails_in_one_line(self, tmp_path, small_catalog_file, trained_models, damage,
                                                  capsys):
        kind, source = ("multvae", trained_models[1]) if damage.startswith("multvae") else ("wrmf", trained_models[0])
        # the array each damage names in the error, if any
        named = {"missing array": "col_factors", "wrmf array shape": "col_factors", "multvae array shape": "w_mu"}
        broken = tmp_path / "broken.npz"
        if damage == "truncated":
            broken.write_bytes(source.read_bytes()[:3000])
        elif damage == "catalog jsonl":
            broken = small_catalog_file
        else:
            with np.load(source) as data:
                arrays = {name: data[name] for name in data.files}
            if damage == "missing array":
                del arrays["col_factors"]
            else:
                arrays[named[damage]] = arrays[named[damage]][:, :4]
            np.savez(broken, **arrays)
        code = run(["eval", "--catalog", small_catalog_file, "--model", f"{kind}={broken}", "--trials", 1,
                    "--seed", 1, "--out", tmp_path / "r.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert damage not in named or named[damage] in err
        assert "shape" not in damage or (f"{broken}: array {named[damage]} has shape" in err)
        assert damage != "catalog jsonl" or (f"{broken}: not a model file" in err and "pickle" not in err)


class TestReportCommand:
    def test_pretty_prints_rows(self, tmp_path, small_catalog_file, capsys):
        out = tmp_path / "r.csv"
        run(["eval", "--catalog", small_catalog_file, "--algorithms", "oracle", "--bins", "0-9", "--trials", 3,
             "--seed", 1, "--out", out])
        capsys.readouterr()
        assert run(["report", out]) == 0
        printed = capsys.readouterr().out
        assert "oracle" in printed and "mean AUC" in printed

    def test_bad_row_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(",".join(REPORT_COLUMNS) + "\noracle,0\n")
        assert run(["report", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: bad report row") and err.count("\n") == 1

    def test_csv_without_report_columns_fails_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        assert run(["report", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing column" in err and err.count("\n") == 1


class TestConfigFileAndEnv:
    def test_config_file_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"artists": 120, "seed": 4}))
        out1 = tmp_path / "one.jsonl"
        assert run(["synth", "--config", cfg, "--out", out1]) == 0
        assert load_catalog(out1).n == 120
        out2 = tmp_path / "two.jsonl"
        assert run(["synth", "--config", cfg, "--artists", 60, "--out", out2]) == 0
        assert load_catalog(out2).n == 60

    @pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"])
    def test_missing_or_malformed_config_file_fails_in_one_line(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        assert run(["synth", "--config", cfg, "--out", tmp_path / "c.jsonl"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --config") and err.count("\n") == 1

    def test_env_var_resolves_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCENEREC_DATA_DIR", str(tmp_path))
        assert run(["synth", "--artists", 50, "--seed", 2, "--out", "env.jsonl"]) == 0
        assert (tmp_path / "env.jsonl").exists()

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["train", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        assert "128" in text and "0.1" in text and "15.0" in text
        assert "200" in text and "0.2" in text and "250" in text
