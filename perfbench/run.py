"""scenerec benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload eval-5k --seed 1 --seconds 22 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``. A run sets up several times (reporting the median as
``setup_s``), warms up, then repeats the workload's rep for up to
``--seconds`` (at least once), and prints medians. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports per-layer metrics from spans
recorded around each module's functions, plus the tracing overhead. The
metric names and units are those BENCHMARK.json declares. Human-readable
tables go to standard output first, and the whole record (machine facts,
per-bin AUC table, slopes, stage timings, checks) to ``perfbench/out/``.
The last line of standard output is the result; the exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

NPROC = len(os.sched_getaffinity(0))
# Fixed before numpy loads OpenBLAS: at most nproc, and at most the 2
# threads the baseline figures were taken with, so runs compare across hosts.
BLAS_THREADS = min(NPROC, 2)
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

SETUP_RUNS = 3

# per-layer metrics read from a rep's results rather than from spans
FROM_RESULTS = {
    "synth.crawl_fetched": "crawl_fetched",
    "catalog.bytes": "catalog_bytes",
    "persist.bytes": "persist_bytes",
    "wrmf.objective": "wrmf_objective",
    "multvae.loss": "multvae_loss",
    "evaluation.auc_mean.wrmf": "auc_mean.wrmf",
    "evaluation.auc_mean.multvae": "auc_mean.multvae",
    "evaluation.auc_mean.random": "auc_mean.random",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the reps are measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric names with their units, as
    BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]})


def blas_facts(np) -> dict:
    facts: dict = {"name": None, "version": None, "threads": None, "threads_requested": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["name"], facts["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(dll, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                facts["threads"] = getter()
                return facts
    return facts


def source_facts() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=False
        )
        commit = done.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def median_of(reps, key) -> float:
    return statistics.median(key(r) for r in reps)


def auc_table(report) -> tuple[list[dict], dict[str, float]]:
    import numpy as np

    rows = [
        {"algorithm": r.algorithm, "bin": f"{r.bin_lo}-{r.bin_hi}", "n": r.n_trials, "mean_auc": r.mean_auc, "stderr": r.stderr}
        for r in report.rows
    ]
    slopes = {}
    for name in dict.fromkeys(r.algorithm for r in report.rows):
        means = [r.mean_auc for r in report.rows if r.algorithm == name]
        idx = [i for i, m in enumerate(means) if m is not None]
        if len(idx) > 1:
            slopes[name] = float(np.polyfit(idx, [means[i] for i in idx], 1)[0])
    return rows, slopes


def print_auc_table(rows: list[dict], slopes: dict[str, float]) -> None:
    names = list(dict.fromkeys(r["algorithm"] for r in rows))
    print(f"{'bin':>7}" + "".join(f"{n:>22}" for n in names))
    for b in dict.fromkeys(r["bin"] for r in rows):
        cells = []
        for n in names:
            r = next(x for x in rows if x["algorithm"] == n and x["bin"] == b)
            cells.append("-" if r["mean_auc"] is None else f"{r['mean_auc']:.3f}±{r['stderr']:.3f} n={r['n']}")
        print(f"{b:>7}" + "".join(f"{c:>22}" for c in cells))
    print("slope of mean AUC vs bin index: " + ", ".join(f"{n} {s:+.5f}" for n, s in slopes.items()))


def measure(work, tracer, seconds: float):
    """Set up, warm up, then run reps for up to ``seconds`` (at least one).
    With a tracer, untraced and traced reps alternate, untraced first, and
    at least one of each runs."""
    setups = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        setup = work.setup()
        setup.wall_s = time.perf_counter() - start
        setups.append(setup)
    work.warm_up()

    plain, traced = [], []
    begin = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(plain) > len(traced)
        if use_tracer:
            tracer.spans = []
            tracer.install()
        start = time.perf_counter()
        try:
            rep = work.rep(tracer if use_tracer else None)
            rep.wall_s = time.perf_counter() - start
        finally:
            if use_tracer:
                tracer.uninstall()
        if use_tracer:
            rep.spans = tracer.spans
        (traced if use_tracer else plain).append(rep)
        # stop before a rep that would end past ``seconds``
        enough = bool(plain) if tracer is None else bool(traced)
        if enough and time.perf_counter() - begin + rep.wall_s > seconds:
            return setups, plain, traced


def layer_report(work, tracer, plain, traced, results) -> dict[str, float]:
    """Per-layer metrics: medians over traced reps, results, tie shares and
    the tracing overhead."""
    per_rep = [tracer.layer_metrics(r.spans, r.wall_s) for r in traced]
    out = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    for metric, key in FROM_RESULTS.items():
        out[metric] = results.get(key, 0.0)
    attempted = sum(r.trials_attempted for r in traced)
    failed = sum(sum(r.report.failed_trials_per_bin) for r in traced)
    out["evaluation.failed_trial_frac"] = failed / attempted if attempted else 0.0
    ties = work.tie_counts()
    if ties:
        out["evaluation.tie_frac.wrmf"] = sum(t for t, _ in ties.values()) / sum(n for _, n in ties.values())
        for bin_name, (tied, total) in ties.items():
            out[f"evaluation.tie_frac.wrmf.{bin_name}"] = tied / total
    traced_s = statistics.median(r.wall_s for r in traced)
    out["trace.overhead_pct"] = 100.0 * (traced_s / statistics.median(r.wall_s for r in plain) - 1.0)
    # the rep-to-rep comparison above carries the machine's noise; the
    # calibrated cost per span times the span count does not
    span_s = tracer.span_cost_s()
    out["trace.span_cost_us"] = span_s * 1e6
    out["trace.estimated_overhead_pct"] = 100.0 * out["trace.spans"] * span_s / (traced_s - out["trace.spans"] * span_s)
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "scenerec" / "__init__.py").is_file():
        print(f"perfbench: no scenerec sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scenerec

    if Path(scenerec.__file__).resolve().parent != SRC / "scenerec":
        print(f"perfbench: imported scenerec from {scenerec.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = declared_metrics()
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "blas": blas_facts(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **source_facts(),
    }
    checks = workloads.Checks()
    threads = facts["blas"]["threads"]
    checks.expect(threads is None or threads <= NPROC, f"BLAS runs {threads} threads on {NPROC} processors")

    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        work = workloads.WORKLOADS[args.workload](args.seed, Path(tmp), checks)
        setups, plain, traced = measure(work, tracer, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reps = plain + traced
    for group in (setups, reps):
        checks.expect(all(r.results == group[0].results for r in group), "results differ between repetitions of one run")
    last = reps[-1]
    results = {**setups[-1].results, **last.results}
    stages = {
        name: median_of(reps if name in last.stages else setups, lambda r: r.stages.get(name))
        for name in dict.fromkeys([*setups[-1].stages, *last.stages])
    }
    stages["trials_per_s"] = median_of(reps, lambda r: r.trials_completed / r.stages["trials_s"])
    results["failed_trial_frac"] = sum(sum(r.report.failed_trials_per_bin) for r in reps) / sum(
        r.trials_attempted for r in reps
    )
    end_to_end = {
        "setup_s": statistics.median(s.wall_s for s in setups),
        "wall_s": median_of(plain, lambda r: r.wall_s),
        "peak_rss_mb": peak_rss_mb,
    }
    per_layer: dict[str, float] = {}
    if tracer is None:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in end_to_end_units.items()}
    else:
        per_layer = layer_report(work, tracer, plain, traced, results)
        absent = tracer.absent_metrics()
        if absent:
            print("absent (wrapped function not found): " + ", ".join(sorted(absent)))
        metrics = {
            name: {"value": per_layer.get(name, 0.0), "unit": unit}
            for name, unit in per_layer_units.items()
            if name not in absent
        }

    rows, slopes = auc_table(last.report)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {len(setups)} set-ups, "
          f"{len(plain)} plain reps, {len(traced)} traced reps; BLAS {facts['blas']['name']} "
          f"{facts['blas']['version']} threads={threads} nproc={NPROC}")
    for name, value in stages.items():
        print(f"  stage {name:<18} {value:.4f}{'' if name.endswith('_s') else ' 1/s'}")
    for name, value in results.items():
        print(f"  result {name:<17} {value!r}")
    print_auc_table(rows, slopes)
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "facts": facts,
        "correct": not checks.failures,
        "failures": checks.failures,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "stages": stages,
        "results": results,
        "auc_table": rows,
        "auc_slopes": slopes,
        "rep_walls_s": {"setup": [r.wall_s for r in setups], "plain": [r.wall_s for r in plain], "traced": [r.wall_s for r in traced]},
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for rep_idx, rep in enumerate(traced):
                for s in rep.spans:
                    fh.write(json.dumps([rep_idx, s.name, s.parent, s.start, s.end, s.failed]) + "\n")

    failed_trials = sum(sum(r.report.failed_trials_per_bin) for r in reps)
    attempted = sum(r.operations + r.trials_attempted for r in reps)
    result = {"correct": not checks.failures, "attempted": attempted, "failed": failed_trials, "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
