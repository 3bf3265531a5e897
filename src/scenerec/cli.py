"""Command-line entry point: generate catalogs, train models, and run the
popularity-bin benchmark.

Every subcommand is deterministic given its flags and seed; a trained model
file repeats bit for bit only at a fixed BLAS thread count, while eval
output from a given model file does not depend on it. Relative paths
resolve against $SCENEREC_DATA_DIR when it is set, as argparse parses them.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from scenerec import catalog as cat
from scenerec import evaluation, multvae, synth, wrmf
from scenerec.persist import ModelMismatchError

DATA_DIR_ENV = "SCENEREC_DATA_DIR"


def resolve_path(value: str) -> Path | str:
    """``value`` against $SCENEREC_DATA_DIR when it is relative (joining an
    absolute path keeps it as is); an empty value stays empty: not given."""
    return Path(os.environ.get(DATA_DIR_ENV, "")) / value if value else value


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
    cat.save_catalog(catalog, args.out)
    print(f"wrote {catalog.n} artists, {catalog.graph.edge_count} similarity edges -> {args.out}")
    if catalog.n:
        print(f"{'subset':<24}{'artists':>8}{'25%':>6}{'50%':>6}{'75%':>6}{'95%':>6}")
        print(f"{'generated':<24}{catalog.n:>8}" + "".join(f"{v:>6}" for v in cat.popularity_percentiles(catalog)))
    return 0


def _flag_values(config_cls: type, args: argparse.Namespace) -> dict:
    """The flags in ``args`` named like fields of ``config_cls``."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(config_cls) if hasattr(args, f.name)}


def cmd_train(args: argparse.Namespace) -> int:
    catalog = cat.load_catalog(args.catalog)
    if catalog.n == 0:
        raise cat.CatalogError("catalog is empty; nothing to train on")
    if args.model == "wrmf":
        config = wrmf.WrmfConfig(**_flag_values(wrmf.WrmfConfig, args))
        model = wrmf.train_wrmf(catalog.graph, config, index_hash=catalog.index_hash())
        wrmf.save_factor_model(model, args.out)
        print(f"wrmf: k={config.k} lam={config.lam} alpha={config.alpha} sweeps={config.sweeps}")
        print("objective per half-sweep:")
        for i, value in enumerate(model.objective_trace):
            print(f"  {i:3d}  {value:.6f}")
    else:
        config = multvae.VaeConfig(n_items=catalog.n, **_flag_values(multvae.VaeConfig, args))
        model, trace = multvae.train_multvae(catalog.graph, config, index_hash=catalog.index_hash())
        multvae.save_vae_model(model, args.out)
        print(
            f"multvae: hidden={config.hidden} bottleneck={config.bottleneck} dropout={config.dropout} "
            f"batch={config.batch_size} epochs={config.epochs} ({trace.updates} updates)"
        )
        for epoch, value in enumerate(trace.train_loss):
            print(f"  epoch {epoch:3d}  loss {value:.6f}")
    print(f"saved model -> {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    catalog = cat.load_catalog(args.catalog)
    expected_hash = catalog.index_hash()
    scorers: dict[str, evaluation.RankFn] = {}
    for spec_item in args.model or []:
        name, _, path = spec_item.partition("=")
        if not path:
            raise ValueError(f"--model must look like name=path, got {spec_item!r}")
        if name in scorers:
            raise ValueError(f"--model {name} given more than once")
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
    repeated = [name for name in dict.fromkeys(algorithms) if algorithms.count(name) > 1]
    if repeated:
        raise ValueError(f"repeated algorithm name(s): {', '.join(repeated)}")
    report = evaluation.run_experiment(catalog, {name: scorers[name] for name in algorithms}, config)
    evaluation.write_report_csv(report, args.out)
    print(f"wrote report -> {args.out}")
    if args.per_trial:
        evaluation.write_trials_csv(report, args.per_trial)
        print(f"wrote per-trial AUCs -> {args.per_trial}")
    if args.plot_data:
        evaluation.write_plot_data_csv(report, args.plot_data)
        print(f"wrote plot data -> {args.plot_data}")
    _print_report_rows(report.rows)
    return 0


def _print_report_rows(rows) -> None:
    print(f"{'algorithm':<12}{'bin':>8}{'n':>6}{'mean AUC':>10}{'stderr':>9}")
    for r in rows:
        mean = f"{r.mean_auc:.4f}" if r.mean_auc is not None else "-"
        err = f"{r.stderr:.4f}" if r.stderr is not None else "-"
        print(f"{r.algorithm:<12}{f'{r.bin_lo}-{r.bin_hi}':>8}{r.n_trials:>6}{mean:>10}{err:>9}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenerec",
        description="Artist catalog generation, recommender training, and the popularity-bin ranking benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter
    # each flag's default is the default of the config field it sets
    configs = (synth.SynthConfig, wrmf.WrmfConfig, multvae.VaeConfig, evaluation.ExperimentConfig)
    fd = {f.name: f.default for c in configs for f in dataclasses.fields(c)}

    p_synth = sub.add_parser("synth", help="generate a synthetic catalog", formatter_class=fmt)
    p_synth.add_argument("--out", type=resolve_path, help="catalog output path (JSON Lines)")
    p_synth.add_argument("--seed", type=int, help="generator seed")
    p_synth.add_argument("--artists", type=int, default=fd["artist_count"], help="artist count")
    p_synth.add_argument("--genres", type=int, default=fd["genre_count"], help="genre count")
    p_synth.add_argument("--exponent", type=float, default=fd["popularity_exponent"], help="popularity power-law decay")
    p_synth.add_argument("--intra", type=float, default=fd["intra_genre_prob"], help="same-genre similarity weight")
    p_synth.add_argument("--cross", type=float, default=fd["cross_genre_prob"], help="cross-genre similarity weight")
    p_synth.add_argument("--similar-per-artist", type=int, default=fd["similar_per_artist"], help="similar-list length")
    p_synth.set_defaults(func=cmd_synth, required_fields=("seed", "out"), subparser=p_synth)

    p_train = sub.add_parser("train", help="train a recommender on a catalog", formatter_class=fmt)
    p_train.add_argument("model", choices=("wrmf", "multvae"))
    p_train.add_argument("--catalog", type=resolve_path, help="catalog path")
    p_train.add_argument("--out", type=resolve_path, help="model output path (.npz)")
    p_train.add_argument("--seed", type=int, help="training seed")
    p_train.add_argument("--k", type=int, default=fd["k"], help="wrmf embedding dimension")
    p_train.add_argument("--lam", type=float, default=fd["lam"], help="wrmf ridge regularization")
    p_train.add_argument("--alpha", type=float, default=fd["alpha"], help="wrmf confidence weight")
    p_train.add_argument("--sweeps", type=int, default=fd["sweeps"], help="wrmf ALS sweeps")
    p_train.add_argument("--hidden", type=int, default=fd["hidden"], help="multvae hidden layer width")
    p_train.add_argument("--bottleneck", type=int, default=fd["bottleneck"], help="multvae latent dimension")
    p_train.add_argument("--dropout", type=float, default=fd["dropout"], help="multvae input dropout probability")
    p_train.add_argument("--batch-size", type=int, default=fd["batch_size"], help="multvae mini-batch size")
    p_train.add_argument("--epochs", type=int, default=fd["epochs"], help="multvae training epochs")
    p_train.add_argument("--learning-rate", type=float, default=fd["learning_rate"], help="multvae Adam step size")
    p_train.add_argument("--kl-weight", type=float, default=fd["kl_weight"], help="weight of the latent KL term")
    p_train.set_defaults(func=cmd_train, required_fields=("seed", "catalog", "out"), subparser=p_train)

    p_eval = sub.add_parser("eval", help="run the popularity-bin benchmark", formatter_class=fmt)
    p_eval.add_argument("--catalog", type=resolve_path, help="catalog path")
    p_eval.add_argument("--model", action="append", help="name=path, repeatable (wrmf=..., multvae=...)")
    p_eval.add_argument(
        "--algorithms",
        help="comma-separated subset to run; 'random' and 'oracle' are built in (default: the given models)",
    )
    bins = ",".join(f"{lo}-{hi}" for lo, hi in evaluation.DEFAULT_BINS)
    p_eval.add_argument("--bins", default=bins, help="comma-separated lo-hi popularity ranges")
    p_eval.add_argument("--trials", type=int, default=fd["trials_per_bin"], help="trials per bin")
    p_eval.add_argument("--seed", type=int, help="master seed for trial streams")
    p_eval.add_argument("--out", type=resolve_path, help="report CSV path")
    p_eval.add_argument("--per-trial", type=resolve_path, help="optional per-trial AUC CSV path")
    p_eval.add_argument("--plot-data", type=resolve_path, help="optional bin-midpoint/mean/stderr CSV path")
    p_eval.set_defaults(func=cmd_eval, required_fields=("seed", "catalog", "out"), subparser=p_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    # argparse hands a subcommand's unknown flags back to the top level; the
    # subcommand's own parser reports them, as it does its missing ones
    args, extra = build_parser().parse_known_args(sys.argv[1:] if argv is None else argv)
    if extra:
        args.subparser.error(f"unrecognized arguments: {' '.join(extra)}")
    missing = [f"--{name}" for name in args.required_fields if getattr(args, name) in (None, "")]
    if missing:
        args.subparser.error(f"the following arguments are required: {', '.join(missing)}")
    try:
        return args.func(args)
    except (ModelMismatchError, ValueError, OSError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
