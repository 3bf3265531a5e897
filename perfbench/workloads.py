"""The benchmark's workloads, driven through scenerec's public functions.

Each workload is a closed loop: one caller in one process runs a set-up,
then repeats one unit of work (a "rep"). Every input comes from the
workload seed. Each rep runs the correctness checks on what it produced.

- ``train-5k``: training dominates. The rep trains WRMF and the autoencoder
  at their default shapes, saves and reloads both models, and scores them
  on a short paired benchmark.
- ``eval-5k``: inference dominates. Set-up trains both models (one sweep,
  one epoch: inference cost depends on shape, not on training length) and
  reloads them; the rep is the 16-bin paired benchmark with all four
  scorers.
- ``catalog-50k``: catalog work dominates. The rep generates a 50k-artist
  catalog, writes and reads it back, crawls it through ``FixtureProvider``,
  transposes and validates the graph, and runs a reference-only benchmark
  (no model scores), where genre lists 10x longer than at 5k make catalog
  queries the cost of trial sampling.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from scenerec import catalog, evaluation, multvae, synth, wrmf

WRMF_SWEEPS = 1
VAE_EPOCHS = 1
CRAWL_SEEDS = 5
CRAWL_LIMIT = 10_000
# random's mean AUC over >= 80 trials has a standard error below 0.01
RANDOM_AUC_TOLERANCE = 0.05


class Checks:
    """Correctness checks of one run; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok and message not in self.failures:
            self.failures.append(message)


@dataclass
class Rep:
    """Timings and results of one set-up or one rep."""

    stages: dict[str, float] = field(default_factory=dict)
    results: dict[str, float] = field(default_factory=dict)
    report: evaluation.ExperimentReport | None = None
    trials_attempted: int = 0
    trials_completed: int = 0
    operations: int = 0
    wall_s: float = 0.0
    spans: list = field(default_factory=list)  # tracing.Span records of a traced rep

    def time(self, stage: str, fn: Callable, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.stages[stage] = self.stages.get(stage, 0.0) + time.perf_counter() - start
        self.operations += 1
        return result


def _arrays_equal(a, b, names) -> bool:
    return all(np.array_equal(getattr(a, n), getattr(b, n)) for n in names)


def _passes_validate(graph: catalog.SimilarityGraph) -> bool:
    try:
        graph.validate()
    except catalog.CatalogError:
        return False
    return True


class Workload:
    name = ""
    artists = 0
    trials_per_bin = 0

    def __init__(self, seed: int, workdir: Path, checks: Checks) -> None:
        self.seed = seed
        self.workdir = workdir
        self.checks = checks
        self.catalog: catalog.Catalog | None = None
        self.wrmf_model: wrmf.FactorModel | None = None
        self.vae_model: multvae.VaeModel | None = None
        self.scored_trials: list[evaluation.Trial] = []

    # --- steps shared by the workloads -----------------------------------

    def build_catalog(self, rep: Rep, artists: int) -> catalog.Catalog:
        """Generate, write and read back the workload's catalog."""
        generated = rep.time("catalog_synth_s", synth.generate_catalog, synth.SynthConfig(seed=self.seed, artist_count=artists))
        path = self.workdir / "catalog.jsonl"
        rep.time("catalog_save_s", catalog.save_catalog, generated, path)
        loaded = rep.time("catalog_load_s", catalog.load_catalog, path)
        self.checks.expect(loaded == generated, "reloaded catalog differs from the generated one")
        rep.results["catalog_bytes"] = float(path.stat().st_size)
        return loaded

    def train_models(self, rep: Rep, cat: catalog.Catalog) -> None:
        """Train both models at default shapes, save and reload them."""
        index_hash = cat.index_hash()
        fm = rep.time(
            "wrmf_train_s", wrmf.train_wrmf, cat.graph, wrmf.WrmfConfig(sweeps=WRMF_SWEEPS, seed=self.seed), index_hash=index_hash
        )
        trace = fm.objective_trace
        self.checks.expect(
            all(after <= before + 1e-9 * abs(before) for before, after in zip(trace, trace[1:])),
            "WRMF objective increased during training",
        )
        vm, vae_trace = rep.time(
            "multvae_train_s",
            multvae.train_multvae,
            cat.graph,
            multvae.VaeConfig(n_items=cat.n, epochs=VAE_EPOCHS, seed=self.seed),
            index_hash=index_hash,
        )
        self.checks.expect(all(math.isfinite(v) for v in vae_trace.train_loss), "autoencoder training loss is not finite")
        rep.results["wrmf_objective"] = trace[-1]
        rep.results["multvae_loss"] = vae_trace.train_loss[-1]

        wrmf_path, vae_path = self.workdir / "wrmf.npz", self.workdir / "multvae.npz"
        rep.time("persist_save_s", wrmf.save_factor_model, fm, wrmf_path)
        rep.time("persist_save_s", multvae.save_vae_model, vm, vae_path)
        self.wrmf_model = rep.time("persist_load_s", wrmf.load_factor_model, wrmf_path, index_hash)
        self.vae_model = rep.time("persist_load_s", multvae.load_vae_model, vae_path, index_hash)
        rep.results["persist_bytes"] = float(wrmf_path.stat().st_size + vae_path.stat().st_size)
        w2, v2 = self.wrmf_model, self.vae_model
        self.checks.expect(
            _arrays_equal(fm, w2, ("row_factors", "col_factors"))
            and (fm.config, fm.index_hash, fm.objective_trace) == (w2.config, w2.index_hash, w2.objective_trace),
            "reloaded WRMF model differs from the saved one",
        )
        self.checks.expect(
            _arrays_equal(vm, v2, multvae.PARAM_NAMES) and (vm.config, vm.index_hash) == (v2.config, v2.index_hash),
            "reloaded autoencoder differs from the saved one",
        )
        self.checks.expect(
            w2.index_hash == index_hash and v2.index_hash == index_hash, "reloaded model carries the wrong index hash"
        )

    def evaluate(self, rep: Rep, cat: catalog.Catalog, with_models: bool, tracer) -> None:
        """Run the paired benchmark and check the reference scorers."""
        scorers: dict[str, evaluation.RankFn] = {}
        if with_models:
            wrmf_scorer = evaluation.make_wrmf_scorer(self.wrmf_model, cat)
            if tracer is not None:
                self.scored_trials = trials = []

                def wrmf_scorer(trial, rng, score=wrmf_scorer):
                    trials.append(trial)
                    return score(trial, rng)

            scorers["wrmf"] = wrmf_scorer
            scorers["multvae"] = evaluation.make_vae_scorer(self.vae_model, cat)
        scorers["random"] = evaluation.random_scorer
        scorers["oracle"] = evaluation.oracle_scorer
        if tracer is not None:
            scorers = {name: tracer.wrap(f"evaluation.score.{name}", fn) for name, fn in scorers.items()}

        config = evaluation.ExperimentConfig(trials_per_bin=self.trials_per_bin, master_seed=self.seed)
        report = rep.time("trials_s", evaluation.run_experiment, cat, scorers, config)
        rep.report = report
        rep.trials_attempted += len(config.bins) * config.trials_per_bin
        rep.trials_completed += sum(r.n_trials for r in report.rows if r.algorithm == "oracle")

        oracle = [r for r in report.rows if r.algorithm == "oracle" and r.n_trials]
        self.checks.expect(bool(oracle) and all(r.mean_auc == 1.0 for r in oracle), "oracle AUC is not exactly 1.0 in every bin")
        for name in scorers:
            means = [r.mean_auc for r in report.rows if r.algorithm == name and r.mean_auc is not None]
            if means:
                rep.results[f"auc_mean.{name}"] = float(np.mean(means))
        random_mean = rep.results.get("auc_mean.random", 0.0)
        self.checks.expect(
            abs(random_mean - 0.5) <= RANDOM_AUC_TOLERANCE, f"random scorer's mean AUC {random_mean:.3f} is not near 0.5"
        )

    def tie_counts(self) -> dict[str, tuple[int, int]]:
        """Per popularity bin of the last traced rep, how many WRMF candidate
        scores equal another candidate's score in the same trial, and how
        many scores there were. Computed apart from the scorer, with
        ``fold_in_user`` and the column factors."""
        counts: dict[str, tuple[int, int]] = {}
        model, cat = self.wrmf_model, self.catalog
        for trial in self.scored_trials:
            vec = wrmf.fold_in_user(model, catalog.UserVector.from_ids(cat, trial.seed_ids))
            scores = model.col_factors[[cat.index[cid] for cid in trial.candidate_ids]] @ vec
            _, inverse, repeats = np.unique(scores, return_inverse=True, return_counts=True)
            key = f"{trial.bin_lo}-{trial.bin_hi}"
            tied, total = counts.get(key, (0, 0))
            counts[key] = (tied + int(np.count_nonzero(repeats[inverse] > 1)), total + scores.size)
        return counts

    # --- the workload ------------------------------------------------------

    def setup(self) -> Rep:
        raise NotImplementedError

    def warm_up(self) -> None:
        self.rep(None)

    def rep(self, tracer) -> Rep:
        raise NotImplementedError


class Train5k(Workload):
    name = "train-5k"
    artists = 5000
    trials_per_bin = 10

    def setup(self) -> Rep:
        rep = Rep()
        self.catalog = self.build_catalog(rep, self.artists)
        return rep

    def rep(self, tracer) -> Rep:
        rep = Rep()
        self.train_models(rep, self.catalog)
        self.evaluate(rep, self.catalog, True, tracer)
        return rep


class Eval5k(Workload):
    name = "eval-5k"
    artists = 5000
    trials_per_bin = 25

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.first_report: evaluation.ExperimentReport | None = None

    def setup(self) -> Rep:
        rep = Rep()
        self.catalog = self.build_catalog(rep, self.artists)
        self.train_models(rep, self.catalog)
        return rep

    def rep(self, tracer) -> Rep:
        rep = Rep()
        self.evaluate(rep, self.catalog, True, tracer)
        if self.first_report is None:
            self.first_report = rep.report
        self.checks.expect(rep.report == self.first_report, "the same benchmark gave different results on a rerun")
        return rep


class Catalog50k(Workload):
    name = "catalog-50k"
    artists = 50_000
    trials_per_bin = 8

    def setup(self) -> Rep:
        # there is nothing to prepare but the seed; set-up runs the rep on a
        # 5k catalog, which also warms every code path the rep takes
        rep = Rep()
        self._pipeline(rep, 5000, None)
        return rep

    def warm_up(self) -> None:
        pass

    def rep(self, tracer) -> Rep:
        rep = Rep()
        self._pipeline(rep, self.artists, tracer)
        return rep

    def _pipeline(self, rep: Rep, artists: int, tracer) -> None:
        cat = self.build_catalog(rep, artists)
        rng = np.random.default_rng(self.seed)
        seeds = [cat.ids[i] for i in rng.choice(cat.n, size=CRAWL_SEEDS, replace=False)]
        start = time.perf_counter()
        provider = synth.FixtureProvider(self.workdir / "catalog.jsonl")
        crawled = synth.snowball_crawl(provider, seeds, CRAWL_LIMIT)
        rep.stages["crawl_s"] = time.perf_counter() - start
        rep.operations += 2
        rep.results["crawl_fetched"] = float(crawled.n)
        self.checks.expect(set(seeds) <= set(crawled.ids), "crawl lost a seed artist")
        self.checks.expect(_passes_validate(crawled.graph), "crawled catalog fails validate()")
        transposed = rep.time("transpose_s", cat.graph.transpose)
        self.checks.expect(transposed.edge_count == cat.graph.edge_count, "transpose changed the edge count")
        self.checks.expect(rep.time("validate_s", _passes_validate, cat.graph), "loaded catalog fails validate()")
        self.evaluate(rep, cat, False, tracer)


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Train5k, Eval5k, Catalog50k)}
