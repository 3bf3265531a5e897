"""Command-line entry point: generate catalogs, train models, run the
popularity-bin benchmark, and pretty-print reports.

Every subcommand is deterministic given its flags and seed. A JSON config
file (--config) supplies flag defaults; explicit flags win. Relative paths
resolve against $SCENEREC_DATA_DIR when it is set.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from scenerec import catalog as cat
from scenerec import evaluation, multvae, synth, wrmf
from scenerec.persist import ModelMismatchError

DATA_DIR_ENV = "SCENEREC_DATA_DIR"


def resolve_path(value: str) -> Path:
    path = Path(value)
    if path.is_absolute():
        return path
    base = os.environ.get(DATA_DIR_ENV)
    return (Path(base) / path) if base else path


def _print_percentiles(reports: list[cat.PercentileReport]) -> None:
    header = f"{'subset':<24}{'artists':>8}{'25%':>6}{'50%':>6}{'75%':>6}{'95%':>6}"
    print(header)
    for r in reports:
        print(f"{r.label:<24}{r.count:>8}{r.p25:>6}{r.p50:>6}{r.p75:>6}{r.p95:>6}")


def _parse_bins(text: str) -> tuple[tuple[int, int], ...]:
    bins = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        try:
            bins.append((int(lo), int(hi)))
        except ValueError:
            raise ValueError(f"--bins: bad range {part.strip()!r} (expected lo-hi)") from None
    return tuple(bins)


def _parse_id_list(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def cmd_synth(args: argparse.Namespace) -> int:
    out = resolve_path(args.out)
    if args.from_fixture:
        provider = synth.FixtureProvider(resolve_path(args.from_fixture))
        catalog = synth.snowball_crawl(provider, _parse_id_list(args.seeds or ""), args.limit)
        label = "crawled"
    else:
        config = synth.SynthConfig(
            seed=args.seed,
            artist_count=args.artists,
            genre_count=args.genres,
            popularity_exponent=args.exponent,
            intra_genre_prob=args.intra,
            cross_genre_prob=args.cross,
            similar_per_artist=args.similar_per_artist,
        )
        catalog = synth.generate_catalog(config)
        label = "generated"
    cat.save_catalog(catalog, out)
    print(f"wrote {catalog.n} artists, {catalog.graph.edge_count} similarity edges -> {out}")
    if catalog.n:
        _print_percentiles([cat.popularity_percentiles(catalog, label=label)])
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    catalog = cat.load_catalog(resolve_path(args.catalog))
    if catalog.n == 0:
        raise cat.CatalogError("catalog is empty; nothing to train on")
    out = resolve_path(args.out)
    if args.model == "wrmf":
        config = wrmf.WrmfConfig(k=args.k, lam=args.lam, alpha=args.alpha, sweeps=args.sweeps, seed=args.seed)
        model = wrmf.train_wrmf(catalog.graph, config, index_hash=catalog.index_hash())
        wrmf.save_factor_model(model, out)
        print(f"wrmf: k={config.k} lam={config.lam} alpha={config.alpha} sweeps={config.sweeps}")
        print("objective per half-sweep:")
        for i, value in enumerate(model.objective_trace):
            print(f"  {i:3d}  {value:.6f}")
    else:
        config = multvae.VaeConfig(
            n_items=catalog.n,
            hidden=args.hidden,
            bottleneck=args.bottleneck,
            dropout=args.dropout,
            batch_size=args.batch_size,
            epochs=args.epochs,
            learning_rate=args.learning_rate,
            kl_weight=args.kl_weight,
            seed=args.seed,
        )
        model, trace = multvae.train_multvae(catalog.graph, config, index_hash=catalog.index_hash())
        multvae.save_vae_model(model, out)
        print(
            f"multvae: hidden={config.hidden} bottleneck={config.bottleneck} dropout={config.dropout} "
            f"batch={config.batch_size} epochs={config.epochs} ({trace.updates} updates)"
        )
        for epoch, value in enumerate(trace.train_loss):
            print(f"  epoch {epoch:3d}  loss {value:.6f}")
    print(f"saved model -> {out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    catalog = cat.load_catalog(resolve_path(args.catalog))
    expected_hash = catalog.index_hash()
    scorers: dict[str, evaluation.RankFn] = {}
    for spec_item in args.model or []:
        name, _, path = spec_item.partition("=")
        if not path:
            raise ValueError(f"--model must look like name=path, got {spec_item!r}")
        model_path = resolve_path(path)
        if name == "wrmf":
            scorers[name] = evaluation.make_wrmf_scorer(wrmf.load_factor_model(model_path, expected_hash), catalog)
        elif name == "multvae":
            scorers[name] = evaluation.make_vae_scorer(multvae.load_vae_model(model_path, expected_hash), catalog)
        else:
            raise ValueError(f"unknown model kind {name!r} (expected wrmf or multvae)")
    scorers.setdefault("random", evaluation.random_scorer)
    scorers.setdefault("oracle", evaluation.oracle_scorer)

    algorithms = _parse_id_list(args.algorithms) if args.algorithms else tuple(n for n in scorers if n not in ("random", "oracle"))
    if not algorithms:
        raise ValueError("nothing to evaluate: give --model and/or --algorithms")
    config = evaluation.ExperimentConfig(bins=_parse_bins(args.bins), trials_per_bin=args.trials, master_seed=args.seed)
    missing = [name for name in algorithms if name not in scorers]
    if missing:
        raise ValueError(f"unknown algorithm name(s): {', '.join(missing)}")
    report = evaluation.run_experiment(catalog, {name: scorers[name] for name in algorithms}, config)
    out = resolve_path(args.out)
    evaluation.write_report_csv(report, out)
    print(f"wrote report -> {out}")
    if args.per_trial:
        evaluation.write_trials_csv(report, resolve_path(args.per_trial))
        print(f"wrote per-trial AUCs -> {resolve_path(args.per_trial)}")
    if args.plot_data:
        evaluation.write_plot_data_csv(report, resolve_path(args.plot_data))
        print(f"wrote plot data -> {resolve_path(args.plot_data)}")
    _print_report_rows(report.rows)
    return 0


def _print_report_rows(rows) -> None:
    print(f"{'algorithm':<12}{'bin':>8}{'n':>6}{'mean AUC':>10}{'stderr':>9}")
    for r in rows:
        mean = f"{r.mean_auc:.4f}" if r.mean_auc is not None else "-"
        err = f"{r.stderr:.4f}" if r.stderr is not None else "-"
        print(f"{r.algorithm:<12}{f'{r.bin_lo}-{r.bin_hi}':>8}{r.n_trials:>6}{mean:>10}{err:>9}")


def cmd_report(args: argparse.Namespace) -> int:
    path = resolve_path(args.infile)
    with open(path, "r", encoding="utf-8") as fh:
        # short rows read as empty fields, so a bad row fails in int()/float()
        reader = csv.DictReader(fh, restval="")
        missing = [c for c in evaluation.REPORT_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: not a report CSV (missing column(s) {', '.join(missing)})")
        rows = []
        for rec in reader:
            try:
                rows.append(
                    evaluation.BinResult(
                        algorithm=rec["algorithm"],
                        bin_lo=int(rec["bin_lo"]),
                        bin_hi=int(rec["bin_hi"]),
                        n_trials=int(rec["n_trials"]),
                        mean_auc=float(rec["mean_auc"]) if rec["mean_auc"] else None,
                        stderr=float(rec["stderr"]) if rec["stderr"] else None,
                        trial_aucs=(),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: bad report row ({exc})") from None
    _print_report_rows(rows)
    return 0


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenerec",
        description="Artist catalog generation, recommender training, and the popularity-bin ranking benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p_synth = sub.add_parser("synth", help="generate a synthetic catalog or crawl a fixture file", formatter_class=fmt)
    p_synth.add_argument("--config", help="JSON file of flag defaults")
    p_synth.add_argument("--out", help="catalog output path (JSON Lines)")
    p_synth.add_argument("--seed", type=int, help="generator seed")
    p_synth.add_argument("--artists", type=int, default=5000, help="artist count")
    p_synth.add_argument("--genres", type=int, default=20, help="genre count")
    p_synth.add_argument("--exponent", type=float, default=0.7, help="popularity power-law decay")
    p_synth.add_argument("--intra", type=float, default=0.9, help="same-genre similarity weight")
    p_synth.add_argument("--cross", type=float, default=0.05, help="cross-genre similarity weight")
    p_synth.add_argument("--similar-per-artist", type=int, default=20, help="similar-list length")
    p_synth.add_argument("--from-fixture", help="crawl this catalog file instead of generating")
    p_synth.add_argument("--seeds", help="comma-separated seed artist ids for the crawl")
    p_synth.add_argument("--limit", type=int, default=1000, help="max artists to fetch in a crawl")
    p_synth.set_defaults(func=cmd_synth, required_fields=("seed", "out"))

    p_train = sub.add_parser("train", help="train a recommender on a catalog", formatter_class=fmt)
    p_train.add_argument("model", choices=("wrmf", "multvae"))
    p_train.add_argument("--config", help="JSON file of flag defaults")
    p_train.add_argument("--catalog", help="catalog path")
    p_train.add_argument("--out", help="model output path (.npz)")
    p_train.add_argument("--seed", type=int, help="training seed")
    p_train.add_argument("--k", type=int, default=128, help="wrmf embedding dimension")
    p_train.add_argument("--lam", type=float, default=0.1, help="wrmf ridge regularization")
    p_train.add_argument("--alpha", type=float, default=15.0, help="wrmf confidence weight")
    p_train.add_argument("--sweeps", type=int, default=15, help="wrmf ALS sweeps")
    p_train.add_argument("--hidden", type=int, default=600, help="multvae hidden layer width")
    p_train.add_argument("--bottleneck", type=int, default=200, help="multvae latent dimension")
    p_train.add_argument("--dropout", type=float, default=0.2, help="multvae input dropout probability")
    p_train.add_argument("--batch-size", type=int, default=250, help="multvae mini-batch size")
    p_train.add_argument("--epochs", type=int, default=100, help="multvae training epochs")
    p_train.add_argument("--learning-rate", type=float, default=1e-3, help="multvae Adam step size")
    p_train.add_argument("--kl-weight", type=float, default=0.0, help="weight of the latent KL term")
    p_train.set_defaults(func=cmd_train, required_fields=("seed", "catalog", "out"))

    p_eval = sub.add_parser("eval", help="run the popularity-bin benchmark", formatter_class=fmt)
    p_eval.add_argument("--config", help="JSON file of flag defaults")
    p_eval.add_argument("--catalog", help="catalog path")
    p_eval.add_argument("--model", action="append", help="name=path, repeatable (wrmf=..., multvae=...)")
    p_eval.add_argument(
        "--algorithms",
        help="comma-separated subset to run; 'random' and 'oracle' are built in (default: the given models)",
    )
    p_eval.add_argument(
        "--bins",
        default="0-4,5-9,10-14,15-19,20-24,25-29,30-34,35-39,40-44,45-49,50-54,55-59,60-64,65-69,70-74,75-79",
        help="comma-separated lo-hi popularity ranges",
    )
    p_eval.add_argument("--trials", type=int, default=100, help="trials per bin")
    p_eval.add_argument("--seed", type=int, help="master seed for trial streams")
    p_eval.add_argument("--out", help="report CSV path")
    p_eval.add_argument("--per-trial", help="optional per-trial AUC CSV path")
    p_eval.add_argument("--plot-data", help="optional bin-midpoint/mean/stderr CSV path")
    p_eval.set_defaults(func=cmd_eval, required_fields=("seed", "catalog", "out"))

    p_report = sub.add_parser("report", help="pretty-print a report CSV", formatter_class=fmt)
    p_report.add_argument("--config", help="JSON file of flag defaults")
    p_report.add_argument("infile", help="report CSV produced by eval")
    p_report.set_defaults(func=cmd_report, required_fields=())

    if defaults:
        for sp in (p_synth, p_train, p_eval, p_report):
            known = {a.dest for a in sp._actions}
            sp.set_defaults(**{k: v for k, v in defaults.items() if k in known})
    return parser


def _peek_config(argv: list[str]) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    defaults = None
    config_path = _peek_config(argv)
    if config_path:
        try:
            with open(resolve_path(config_path), "r", encoding="utf-8") as fh:
                defaults = json.load(fh)
            if not isinstance(defaults, dict):
                raise ValueError("expected a JSON object of flag defaults")
        except (OSError, ValueError) as exc:
            print(f"error: --config {config_path}: {exc}", file=sys.stderr)
            return 1
    parser = build_parser(defaults)
    args = parser.parse_args(argv)
    missing = [f"--{name}" for name in args.required_fields if getattr(args, name) is None]
    if missing:
        parser.error(f"the following arguments are required: {', '.join(missing)}")
    try:
        return args.func(args)
    except (cat.CatalogError, ModelMismatchError, synth.CrawlError, ValueError, OSError,
            multvae.TrainingDiverged, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
