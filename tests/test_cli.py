import csv
import json
import time
import warnings

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

    def test_tiny_cross_weight_fails_in_one_line(self, tmp_path, capsys):
        # same-genre targets are short of 20 for some rows, and cross-genre
        # picks come once in ~1e9 draws
        out = tmp_path / "c.jsonl"
        start = time.perf_counter()
        assert run(["synth", "--artists", 200, "--cross", 1e-9, "--seed", 1, "--out", out]) == 1
        assert time.perf_counter() - start < 30
        err = capsys.readouterr().err
        assert err.startswith("error: artist index ") and "raise --cross" in err and err.count("\n") == 1
        assert not out.exists()

    def test_nan_exponent_fails_in_one_line(self, tmp_path, capsys):
        assert run(["synth", "--artists", 50, "--exponent", "nan", "--seed", 1, "--out", tmp_path / "x"]) == 1
        assert capsys.readouterr().err == "error: popularity_exponent must be finite, got nan\n"

    def test_overflowing_exponent_fails_in_one_line(self, tmp_path, capsys):
        # (1 + 100) ** 1000 overflows; no numpy warning may reach stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["synth", "--artists", 30, "--exponent", -1000, "--seed", 1, "--out", tmp_path / "x"]) == 1
        assert capsys.readouterr().err == (
            "error: popularity_exponent -1000.0 overflows the popularity weights (1 + level) ** -exponent\n"
        )


@pytest.mark.parametrize(
    "argv, missing",
    [(["synth", "--out", "x.jsonl"], "--seed"), (["eval", "--seed", 1], "--catalog, --out"),
     (["train", "wrmf", "--seed", 1, "--out", "m.npz"], "--catalog")],
)
def test_missing_required_flag_is_reported_by_the_subcommand(argv, missing, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"usage: scenerec {argv[0]} ")
    assert err[-1] == f"scenerec {argv[0]}: error: the following arguments are required: {missing}"


@pytest.mark.parametrize(
    "argv, missing",
    [(["synth", "--seed", 1, "--out", ""], "--out"),
     (["train", "wrmf", "--catalog", "", "--seed", 1, "--out", "m.npz"], "--catalog"),
     (["train", "wrmf", "--catalog", "{catalog}", "--seed", 1, "--out", ""], "--out")],
)
def test_empty_required_path_is_not_given(tmp_path, monkeypatch, small_catalog_file, argv, missing, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        run([str(a).format(catalog=small_catalog_file) for a in argv])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: the following arguments are required: {missing}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, extra",
    [(["synth", "--trials", "abc"], "--trials abc"), (["train", "wrmf", "--bogus"], "--bogus"),
     (["eval", "--k", 8, "--seed", 1], "--k 8"), (["report", "report.csv", "more.csv"], "more.csv"),
     # synth only generates: the crawl flags are gone
     (["synth", "--from-fixture", "x", "--seeds", "a", "--out", "y"], "--from-fixture x --seeds a")],
)
def test_unknown_argument_is_reported_by_the_subcommand(argv, extra, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"usage: scenerec {argv[0]} ")
    assert err[-1] == f"scenerec {argv[0]}: error: unrecognized arguments: {extra}"


@pytest.mark.parametrize(
    "argv, field",
    [(["synth", "--artists", 30], "seed"), (["train", "wrmf", "--catalog", "{catalog}"], "seed"),
     (["train", "multvae", "--catalog", "{catalog}"], "seed"),
     (["eval", "--catalog", "{catalog}", "--algorithms", "oracle"], "master_seed")],
)
def test_negative_seed_fails_in_one_line(tmp_path, small_catalog_file, capsys, argv, field):
    out = tmp_path / "out"
    argv = [str(a).format(catalog=small_catalog_file) for a in argv]
    assert run([*argv, "--seed", -1, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {field} must be >= 0, got -1\n"
    assert not out.exists()


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

    def test_non_utf8_catalog_fails_in_one_line(self, tmp_path, capsys):
        catalog, out = tmp_path / "catalog.jsonl", tmp_path / "model.npz"
        catalog.write_bytes(b"\xff\xfe" + json.dumps({"id": "a"}).encode("utf-8") + b"\n")
        assert run(["train", "wrmf", "--catalog", catalog, "--seed", 0, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {catalog}:1: not UTF-8 text (byte 0: invalid start byte)\n"
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

    def test_out_without_suffix_is_the_file_written_and_read(self, tmp_path, small_catalog_file, capsys):
        out = tmp_path / "model"
        run(["train", "wrmf", "--catalog", small_catalog_file, "--seed", 1, "--k", 8, "--sweeps", 1, "--out", out])
        assert capsys.readouterr().out.endswith(f"saved model -> {out}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model"]
        report = tmp_path / "r.csv"
        code = run(["eval", "--catalog", small_catalog_file, "--model", f"wrmf={out}", "--algorithms", "wrmf",
                    "--bins", "0-9", "--trials", 2, "--seed", 1, "--out", report])
        assert code == 0 and report.exists()

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

    @pytest.mark.parametrize(
        "flags, message",
        [(["--model", "wrmf"], "--model must look like name=path, got 'wrmf'"),
         ([], "nothing to evaluate: give --model and/or --algorithms")],
    )
    def test_bad_model_spec_or_nothing_to_run_fails_in_one_line(self, tmp_path, small_catalog_file, flags, message,
                                                                capsys):
        code = run(["eval", "--catalog", small_catalog_file, *flags, "--seed", 1, "--out", tmp_path / "r.csv"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.csv").exists()

    def test_repeated_algorithm_fails_in_one_line(self, tmp_path, small_catalog_file, capsys):
        code = run(["eval", "--catalog", small_catalog_file, "--algorithms", "oracle,random,oracle", "--bins", "0-9",
                    "--trials", 1, "--seed", 1, "--out", tmp_path / "r.csv"])
        assert code == 1
        assert capsys.readouterr().err == "error: repeated algorithm name(s): oracle\n"
        assert not (tmp_path / "r.csv").exists()

    def test_repeated_bin_fails_in_one_line(self, tmp_path, small_catalog_file, capsys):
        code = run(["eval", "--catalog", small_catalog_file, "--algorithms", "oracle", "--bins", "0-4,10-19,0-4",
                    "--trials", 1, "--seed", 1, "--out", tmp_path / "r.csv"])
        assert code == 1
        assert capsys.readouterr().err == "error: popularity bin [0, 4] given more than once\n"
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
        assert capsys.readouterr().err == f"error: {path}:1: artist 'a': genre 'rock' listed twice\n"

    @pytest.mark.parametrize(
        "popularity, message",
        [(150, "popularity 150 outside [0, 100]"), (5.0, "popularity must be an integer, got 5.0")],
    )
    def test_bad_popularity_in_catalog_fails_in_one_line(self, tmp_path, capsys, popularity, message):
        path = tmp_path / "pop.jsonl"
        records = [
            {"id": "b", "name": "b", "popularity": 20, "genres": ["rock"], "similar": []},
            {"id": "a", "name": "a", "popularity": popularity, "genres": ["rock"], "similar": ["b"]},
        ]
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        code = run(["eval", "--catalog", path, "--algorithms", "oracle", "--trials", 1, "--seed", 1,
                    "--out", tmp_path / "r.csv"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}:2: artist 'a': {message}\n"

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
        "damage",
        ["missing array", "truncated", "catalog jsonl", "wrmf array shape", "multvae array shape", "npy array",
         "extra config key"],
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
        elif damage == "npy array":
            broken = tmp_path / "broken.npy"
            np.save(broken, np.zeros(3))
        else:
            with np.load(source) as data:
                arrays = {name: data[name] for name in data.files}
            if damage == "missing array":
                del arrays["col_factors"]
            elif damage == "extra config key":
                arrays["config_json"] = np.str_(json.dumps({**json.loads(str(arrays["config_json"])), "extra": 1}))
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
        assert damage not in ("catalog jsonl", "npy array") or (
            f"{broken}: not a model file" in err and "pickle" not in err
        )
        assert damage != "extra config key" or f"{broken}: not a wrmf model file (" in err and "extra" in err


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

    def test_non_utf8_report_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_bytes(",".join(REPORT_COLUMNS).encode() + b"\noracle,0,9,3,1.0,0.0\n\xff\n")
        assert run(["report", path]) == 1
        err = capsys.readouterr().err
        offset = len(",".join(REPORT_COLUMNS)) + len("\noracle,0,9,3,1.0,0.0\n")
        assert err == f"error: {path}: not UTF-8 text (byte {offset}: invalid start byte)\n"

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

    def test_config_equals_path_spelling(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"artists": 120, "seed": 4}))
        out = tmp_path / "one.jsonl"
        assert run(["synth", f"--config={cfg}", "--out", out]) == 0
        assert load_catalog(out).n == 120

    @pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"])
    def test_missing_or_malformed_config_file_fails_in_one_line(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        assert run(["synth", "--config", cfg, "--out", tmp_path / "c.jsonl"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --config") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, values, message",
        [
            pytest.param("synth", {"seed": 1.5}, "--config {cfg}: seed: invalid int value: '1.5'", id="float seed"),
            pytest.param("eval", {"trials": 2.5}, "--config {cfg}: trials: invalid int value: '2.5'",
                         id="float trials"),
            pytest.param("eval", {"bins": ["0-4"]}, "--config {cfg}: bins: expected a string or a number, got ['0-4']",
                         id="list bins"),
            pytest.param("eval", {"trials": True}, "--config {cfg}: trials: expected a string or a number, got True",
                         id="bool trials"),
            # a single --model string is one model, not a list of characters
            pytest.param("eval", {"model": "wrmf=missing.npz"}, "[Errno 2] No such file or directory: 'missing.npz'",
                         id="one model string"),
            pytest.param("eval", {"model": [1]},
                         "--config {cfg}: model: expected a string or a list of strings, got [1]",
                         id="non-string model"),
        ],
    )
    def test_bad_config_values_fail_in_one_line(self, tmp_path, small_catalog_file, capsys, command, values,
                                                message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        flags = {"synth": ["--artists", 50], "eval": ["--catalog", small_catalog_file, "--algorithms", "oracle"]}
        seed = [] if "seed" in values else ["--seed", 1]
        code = run([command, "--config", cfg, *flags[command], *seed, "--out", tmp_path / "out"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
        assert not (tmp_path / "out").exists()

    def test_config_values_parse_like_flags(self, tmp_path, small_catalog_file, trained_models):
        wrmf_path, vae_path = trained_models
        cfg = tmp_path / "cfg.json"
        # a list of models, numbers as strings, a bad value an explicit flag
        # overrides, and a bad value of another subcommand's flag
        values = {"model": [f"wrmf={wrmf_path}", f"multvae={vae_path}"], "trials": "2", "seed": 1.5, "k": 1.5}
        cfg.write_text(json.dumps(values))
        out = tmp_path / "r.csv"
        code = run(["eval", "--config", cfg, "--catalog", small_catalog_file, "--bins", "0-9", "--seed", 3,
                    "--out", out])
        assert code == 0
        with open(out) as fh:
            assert [(r["algorithm"], r["n_trials"]) for r in csv.DictReader(fh)] == [("wrmf", "2"), ("multvae", "2")]

    def test_explicit_model_replaces_config_models(self, tmp_path, small_catalog_file, trained_models):
        wrmf_path, vae_path = trained_models
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": [f"wrmf={wrmf_path}"]}))
        out = tmp_path / "r.csv"
        code = run(["eval", "--config", cfg, "--catalog", small_catalog_file, "--model", f"multvae={vae_path}",
                    "--bins", "0-9", "--trials", 2, "--seed", 3, "--out", out])
        assert code == 0
        with open(out) as fh:
            assert [r["algorithm"] for r in csv.DictReader(fh)] == ["multvae"]

    def test_env_var_resolves_relative_paths(self, tmp_path, monkeypatch):
        data, cwd = tmp_path / "data", tmp_path / "cwd"
        data.mkdir()
        cwd.mkdir()
        monkeypatch.setenv("SCENEREC_DATA_DIR", str(data))
        monkeypatch.chdir(cwd)
        (data / "train.json").write_text(json.dumps({"k": 2, "sweeps": 1}))
        # every path flag, report's file, --config and a --model's path
        commands = [
            ["synth", "--artists", 200, "--seed", 2, "--out", "cat.jsonl"],
            ["train", "wrmf", "--config", "train.json", "--catalog", "cat.jsonl", "--seed", 1, "--out", "wrmf.npz"],
            ["eval", "--catalog", "cat.jsonl", "--model", "wrmf=wrmf.npz", "--bins", "0-99", "--trials", 2,
             "--seed", 1, "--out", "report.csv", "--per-trial", "trials.csv", "--plot-data", "plot.csv"],
            ["report", "report.csv"],
        ]
        for argv in commands:
            assert run(argv) == 0, argv
        written = {"train.json", "cat.jsonl", "wrmf.npz", "report.csv", "trials.csv", "plot.csv"}
        assert {p.name for p in data.iterdir()} == written
        assert list(cwd.iterdir()) == []
        assert load_factor_model(data / "wrmf.npz").config.k == 2

    def test_empty_optional_path_writes_nothing(self, tmp_path, small_catalog_file, capsys):
        out = tmp_path / "r.csv"
        code = run(["eval", "--catalog", small_catalog_file, "--algorithms", "oracle", "--bins", "0-9", "--trials", 2,
                    "--seed", 1, "--out", out, "--per-trial", "", "--plot-data", ""])
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]
        assert capsys.readouterr().out.startswith(f"wrote report -> {out}\nalgorithm")

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["train", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        assert "128" in text and "0.1" in text and "15.0" in text
        assert "200" in text and "0.2" in text and "250" in text
