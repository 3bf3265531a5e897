"""Acceptance gate: one test per release criterion, each printing a PASS line
with its measured numbers. The popularity-trend criterion runs the full
16-bin x 100-trial benchmark with both recommenders on a seeded 5,000-artist
synthetic catalog, so this module is the slow part of the suite (several
minutes on one core)."""

import time

import numpy as np
import pytest

from scenerec.catalog import SimilarityGraph, UserVector, load_catalog
from scenerec.cli import main as cli_main
from scenerec.evaluation import (
    ExperimentConfig,
    auc,
    make_vae_scorer,
    make_wrmf_scorer,
    oracle_scorer,
    run_experiment,
)
from scenerec.multvae import (
    PARAM_NAMES,
    VaeConfig,
    init_model,
    input_dropout,
    loss_and_gradients,
    train_multvae,
)
from scenerec.synth import SynthConfig, generate_catalog
from scenerec.wrmf import WrmfConfig, half_sweep, solve_row, train_wrmf


@pytest.fixture(scope="module")
def catalog5k():
    return generate_catalog(SynthConfig(seed=7, artist_count=5000))


def test_auc_matches_pair_counting_oracle():
    """auc() equals independent outer-product pair counting, exactly."""
    started = time.time()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 201))
        labels = rng.random(n) < rng.uniform(0.1, 0.9)
        if labels.all() or not labels.any():
            continue
        pairs = np.outer(labels, ~labels)
        correct = int(np.triu(pairs, k=1).sum())
        total = int(labels.sum()) * int((~labels).sum())
        assert auc(labels.tolist()) == correct / total
        checked += 1
    elapsed = time.time() - started
    assert elapsed < 5.0
    print(f"[PASS] AUC oracle equivalence: 1000 lists exact, {elapsed:.2f}s")


def test_random_ranker_prevalence_invariance():
    """Random rankings average to 0.5 regardless of class balance."""
    started = time.time()
    rng = np.random.default_rng(7)
    for n_rel, n_non in ((20, 60), (5, 75), (40, 40)):
        base = np.array([True] * n_rel + [False] * n_non)
        means = np.empty(10_000)
        for t in range(10_000):
            means[t] = auc(base[rng.permutation(n_rel + n_non)].tolist())
        mean = float(means.mean())
        assert 0.48 <= mean <= 0.52, f"ratio {n_rel}:{n_non} -> {mean}"
    elapsed = time.time() - started
    assert elapsed < 30.0
    print(f"[PASS] random-ranker calibration: all ratios within [0.48, 0.52], {elapsed:.1f}s")


def test_oracle_ranker_scores_one_in_every_bin(catalog5k):
    config = ExperimentConfig(trials_per_bin=25, master_seed=11)
    report = run_experiment(catalog5k, {"oracle": oracle_scorer}, config)
    for row in report.rows:
        assert row.n_trials > 0, f"bin {row.bin_lo}-{row.bin_hi} sampled no trials"
        assert row.mean_auc == 1.0, f"bin {row.bin_lo}-{row.bin_hi}: {row.mean_auc}"
    print(f"[PASS] oracle ranker: mean AUC exactly 1.0 in all {len(report.rows)} bins")


def test_als_correctness():
    """Objective never increases across half-sweeps; every row update is a
    stationary point; fold-in equals a dense ridge solve."""
    started = time.time()
    rng = np.random.default_rng(99)

    for instance in range(20):
        n = int(rng.integers(5, 101))
        k = int(rng.integers(2, 17))
        density = float(rng.uniform(0.05, 0.3))
        rows = tuple(
            np.flatnonzero((rng.random(n) < density) & (np.arange(n) != i)).astype(np.int64) for i in range(n)
        )
        graph = SimilarityGraph(rows)
        config = WrmfConfig(
            k=k,
            lam=float(rng.uniform(0.05, 1.0)),
            alpha=float(rng.uniform(1.0, 20.0)),
            sweeps=int(rng.integers(2, 5)),
            seed=instance,
        )
        model = train_wrmf(graph, config)
        trace = model.objective_trace
        for before, after in zip(trace, trace[1:]):
            assert after <= before + 1e-9 * abs(before)

        # one more half-sweep per side, then the analytic gradient of every
        # updated row must vanish
        for sweep_rows, this, other in (
            (graph.rows, model.row_factors.copy(), model.col_factors),
            (graph.transpose().rows, model.col_factors.copy(), model.row_factors),
        ):
            half_sweep(sweep_rows, this, other, config.lam, config.alpha)
            for i, obs in enumerate(sweep_rows):
                p = np.zeros(n)
                p[obs] = 1.0
                conf = 1.0 + config.alpha * p
                a = other.T @ (conf[:, None] * other) + config.lam * np.eye(k)
                b = other.T @ (conf * p)
                residual = np.linalg.norm(a @ this[i] - b)
                assert residual <= 1e-8 * max(1.0, np.linalg.norm(b))

    worst = 0.0
    for instance in range(10):
        n = int(rng.integers(2, 21))
        k = int(rng.integers(1, 7))
        y = rng.standard_normal((n, k))
        lam, alpha = float(rng.uniform(0.05, 1.0)), float(rng.uniform(1.0, 20.0))
        model_cfg = WrmfConfig(k=k, lam=lam, alpha=alpha)
        seeds = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)).astype(np.int64)
        p = np.zeros(n)
        p[seeds] = 1.0
        conf = np.diag(1.0 + alpha * p)
        dense = np.linalg.solve(y.T @ conf @ y + lam * np.eye(k), y.T @ conf @ p)
        gram = y.T @ y + lam * np.eye(k)
        fast = solve_row(seeds, y, gram, alpha)
        worst = max(worst, float(np.abs(fast - dense).max()))
        assert np.abs(fast - dense).max() < 1e-10
    elapsed = time.time() - started
    assert elapsed < 60.0
    print(f"[PASS] ALS correctness: 20 instances monotone+stationary, fold-in vs dense <= {worst:.2e}, {elapsed:.1f}s")


def test_vae_gradients_match_finite_differences():
    started = time.time()
    master = np.random.default_rng(31)
    worst = 0.0
    for instance in range(5):
        config = VaeConfig(
            n_items=6,
            hidden=int(master.integers(3, 7)),
            bottleneck=int(master.integers(2, 4)),
            dropout=float(master.choice([0.0, 0.2])),
            kl_weight=float(master.choice([0.0, 0.7, 1.5])),
            seed=instance,
        )
        model = init_model(config, np.random.default_rng(instance))
        batch = (master.random((3, 6)) < 0.5).astype(float)
        noise_seed = 1000 + instance
        _, grads = loss_and_gradients(model, batch, np.random.default_rng(noise_seed))
        h = 1e-5
        for name in PARAM_NAMES:
            param = getattr(model, name)
            for index in np.ndindex(param.shape):
                original = param[index]
                param[index] = original + h
                plus, _ = loss_and_gradients(model, batch, np.random.default_rng(noise_seed))
                param[index] = original - h
                minus, _ = loss_and_gradients(model, batch, np.random.default_rng(noise_seed))
                param[index] = original
                numeric = (plus - minus) / (2 * h)
                analytic = grads[name][index]
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
                worst = max(worst, rel)
                assert rel < 1e-4, f"instance {instance} {name}{index}: rel {rel:.2e}"
    elapsed = time.time() - started
    assert elapsed < 60.0
    print(f"[PASS] VAE gradient check: 5 models, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_dropout_zeroing_rate():
    out = input_dropout(np.ones(100_000), 0.2, np.random.default_rng(5))
    rate = float((out == 0).mean())
    assert abs(rate - 0.2) < 0.01
    print(f"[PASS] dropout rate: {rate:.4f} vs 0.2 +/- 0.01 over 1e5 coordinates")


@pytest.mark.slow
def test_popularity_trend_reproduction(catalog5k):
    """Both recommenders degrade as candidate popularity drops: positive
    slope of mean AUC vs bin index, and strong accuracy in the top bins."""
    started = time.time()
    wrmf_model = train_wrmf(catalog5k.graph, WrmfConfig(k=128, lam=0.1, alpha=15.0, sweeps=15, seed=0))
    vae_config = VaeConfig(
        n_items=catalog5k.n, hidden=600, bottleneck=200, dropout=0.2, batch_size=250,
        epochs=30, learning_rate=1e-3, seed=0,
    )
    vae_model, _ = train_multvae(catalog5k.graph, vae_config)

    config = ExperimentConfig(trials_per_bin=100, master_seed=42)
    scorers = {
        "wrmf": make_wrmf_scorer(wrmf_model, catalog5k),
        "multvae": make_vae_scorer(vae_model, catalog5k),
    }
    report = run_experiment(catalog5k, scorers, config)

    means: dict[str, list[float]] = {}
    for name in scorers:
        per_bin = [report.row(name, lo) for lo, _ in config.bins]
        observed = [(i, r.mean_auc) for i, r in enumerate(per_bin) if r.n_trials > 0]
        assert len(observed) >= 8, f"{name}: too few populated bins"
        idx, values = zip(*observed)
        slope = float(np.polyfit(idx, values, 1)[0])
        assert slope > 0.0, f"{name}: slope {slope}"
        top3 = [r.mean_auc for r in per_bin[-3:] if r.n_trials > 0]
        assert top3 and all(m > 0.55 for m in top3), f"{name}: top bins {top3}"
        means[name] = [r.mean_auc for r in per_bin]
        print(f"[PASS] trend ({name}): slope {slope:+.5f}, top-3 bins {[round(m, 3) for m in top3]}")

    # secondary finding from the source experiments (autoencoder ahead of the
    # factorization model at low popularity): recorded, not gated
    low_vae = np.mean([m for m in means["multvae"][:7] if m is not None])
    low_wrmf = np.mean([m for m in means["wrmf"][:7] if m is not None])
    holds = "holds" if low_vae >= low_wrmf else "does not hold"
    print(f"[INFO] secondary (multvae >= wrmf on low bins): {holds} here ({low_vae:.3f} vs {low_wrmf:.3f})")
    print(f"[PASS] trend reproduction total runtime {time.time() - started:.0f}s (target < 900s)")


def test_pipeline_determinism_end_to_end(tmp_path):
    """synth -> train -> eval run twice with one master seed produces
    byte-identical report CSVs."""
    started = time.time()
    reports = []
    for run in ("one", "two"):
        work = tmp_path / run
        work.mkdir()
        catalog = work / "catalog.jsonl"
        assert cli_main(["synth", "--artists", "400", "--similar-per-artist", "6", "--seed", "5",
                         "--out", str(catalog)]) == 0
        wrmf_path = work / "wrmf.npz"
        assert cli_main(["train", "wrmf", "--catalog", str(catalog), "--seed", "5", "--k", "16",
                         "--sweeps", "3", "--out", str(wrmf_path)]) == 0
        vae_path = work / "vae.npz"
        assert cli_main(["train", "multvae", "--catalog", str(catalog), "--seed", "5", "--hidden", "40",
                         "--bottleneck", "10", "--epochs", "2", "--out", str(vae_path)]) == 0
        report = work / "report.csv"
        per_trial = work / "trials.csv"
        assert cli_main(["eval", "--catalog", str(catalog), "--model", f"wrmf={wrmf_path}",
                         "--model", f"multvae={vae_path}", "--bins", "0-4,5-9,10-14,15-19",
                         "--trials", "8", "--seed", "5", "--out", str(report),
                         "--per-trial", str(per_trial)]) == 0
        reports.append((report.read_bytes(), per_trial.read_bytes()))
    assert reports[0] == reports[1]
    print(f"[PASS] pipeline determinism: byte-identical CSVs across runs, {time.time() - started:.0f}s")
