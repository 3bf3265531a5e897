"""Spans around the calls into each scenerec module, recorded from outside.

``Tracer.install`` replaces each wrapped function with a recording wrapper
in every scenerec module that holds a reference to it, so call sites inside
the library (``sample_trial`` inside ``run_experiment``, ``solve_row``
inside ``half_sweep``) are traced as well as the benchmark's own calls.
``uninstall`` puts the originals back. Nothing under ``src/`` is edited.

A span's layer is the first component of its name. Its self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from scenerec import catalog, evaluation, multvae, synth, wrmf

LAYERS = ("synth", "catalog", "wrmf", "multvae", "evaluation", "persist")

# (owner, attribute, span name). A name missing from its owner is skipped,
# and the metrics that only it feeds are left out of the report.
WRAPPED: tuple[tuple[object, str, str], ...] = (
    (synth, "generate_catalog", "synth.generate"),
    (synth, "snowball_crawl", "synth.crawl"),
    (synth.FixtureProvider, "__init__", "synth.fixture"),
    (catalog, "save_catalog", "catalog.save"),
    (catalog, "load_catalog", "catalog.load"),
    (catalog, "artists_in_range", "catalog.query"),
    (catalog, "top_popular_in_genre", "catalog.query"),
    (catalog.SimilarityGraph, "transpose", "catalog.transpose"),
    (catalog.SimilarityGraph, "validate", "catalog.validate"),
    (wrmf, "train_wrmf", "wrmf.train"),
    (wrmf, "half_sweep", "wrmf.half_sweep"),
    (wrmf, "solve_row", "wrmf.solve"),
    (wrmf, "fold_in_user", "wrmf.fold_in"),
    (wrmf, "_objective_value", "wrmf.objective"),
    (wrmf, "rank_candidates", "wrmf.rank"),
    (multvae, "train_multvae", "multvae.train"),
    (multvae, "loss_and_gradients", "multvae.fwd_bwd"),
    (multvae, "adam_step", "multvae.adam"),
    (multvae, "rows_to_dense", "multvae.densify"),
    (multvae, "predict", "multvae.predict"),
    (multvae, "rank_candidates_vae", "multvae.rank"),
    (evaluation, "run_experiment", "evaluation.run"),
    (evaluation, "sample_trial", "evaluation.sample"),
    (evaluation, "auc", "evaluation.auc"),
    (wrmf, "save_factor_model", "persist.save"),
    (multvae, "save_vae_model", "persist.save"),
    (wrmf, "load_factor_model", "persist.load"),
    (multvae, "load_vae_model", "persist.load"),
)

# metric: (recorded span name, "s" for summed duration or "count", the
# wrapped names that record it)
SPAN_METRICS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "synth.generate_s": ("synth.generate", "s", ("synth.generate",)),
    "synth.fixture_s": ("synth.fixture", "s", ("synth.fixture",)),
    "synth.crawl_s": ("synth.crawl", "s", ("synth.crawl",)),
    "catalog.query_s": ("catalog.query", "s", ("catalog.query",)),
    "catalog.query_calls": ("catalog.query", "count", ("catalog.query",)),
    "catalog.save_s": ("catalog.save", "s", ("catalog.save",)),
    "catalog.load_s": ("catalog.load", "s", ("catalog.load",)),
    "catalog.transpose_s": ("catalog.transpose", "s", ("catalog.transpose",)),
    "catalog.validate_s": ("catalog.validate", "s", ("catalog.validate",)),
    "wrmf.train_s": ("wrmf.train", "s", ("wrmf.train",)),
    "wrmf.half_sweep_s.rows": ("wrmf.half_sweep.rows", "s", ("wrmf.half_sweep",)),
    "wrmf.half_sweep_s.cols": ("wrmf.half_sweep.cols", "s", ("wrmf.half_sweep",)),
    "wrmf.row_solve_s": ("wrmf.row_solve", "s", ("wrmf.solve",)),
    "wrmf.row_solves": ("wrmf.row_solve", "count", ("wrmf.solve",)),
    "wrmf.objective_s": ("wrmf.objective", "s", ("wrmf.objective",)),
    "wrmf.objective_calls": ("wrmf.objective", "count", ("wrmf.objective",)),
    "wrmf.fold_in_s": ("wrmf.fold_in", "s", ("wrmf.solve", "wrmf.fold_in")),
    "wrmf.fold_ins": ("wrmf.fold_in", "count", ("wrmf.solve", "wrmf.fold_in")),
    "wrmf.rank_s": ("wrmf.rank", "s", ("wrmf.rank",)),
    "multvae.train_s": ("multvae.train", "s", ("multvae.train",)),
    "multvae.fwd_bwd_s": ("multvae.fwd_bwd", "s", ("multvae.fwd_bwd",)),
    "multvae.updates": ("multvae.fwd_bwd", "count", ("multvae.fwd_bwd",)),
    "multvae.adam_s": ("multvae.adam", "s", ("multvae.adam",)),
    "multvae.densify_s": ("multvae.densify", "s", ("multvae.densify",)),
    "multvae.predict_s": ("multvae.predict", "s", ("multvae.predict",)),
    "multvae.predict_calls": ("multvae.predict", "count", ("multvae.predict",)),
    "multvae.rank_s": ("multvae.rank", "s", ("multvae.rank",)),
    "evaluation.run_s": ("evaluation.run", "s", ("evaluation.run",)),
    "evaluation.sample_s": ("evaluation.sample", "s", ("evaluation.sample",)),
    "evaluation.auc_s": ("evaluation.auc", "s", ("evaluation.auc",)),
    "persist.save_s": ("persist.save", "s", ("persist.save",)),
    "persist.load_s": ("persist.load", "s", ("persist.load",)),
}


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans; -1 when called by the benchmark itself
    start: float
    end: float = 0.0
    child_s: float = 0.0
    failed: bool = False
    nested: bool = False  # inside another open span of the same name

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    absent: set[str] = field(default_factory=set)  # wrapped span names not found
    _stack: list[int] = field(default_factory=list)
    _open: Counter = field(default_factory=Counter)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)
    _half_sweeps: int = 0

    def wrap(self, name: str | Callable[[], str], fn: Callable) -> Callable:
        """``fn``, recording one span per call. ``name`` may be a function
        that picks the span name when the call starts."""

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name()
            parent = self._stack[-1] if self._stack else -1
            span = Span(span_name, parent, 0.0, failed=True, nested=self._open[span_name] > 0)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            self._open[span_name] += 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span.failed = False
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self._open[span_name] -= 1
                if parent >= 0:
                    self.spans[parent].child_s += span.duration

        traced.__wrapped__ = fn
        return traced

    def _namer(self, name: str) -> str | Callable[[], str]:
        if name == "wrmf.train":
            def train() -> str:
                self._half_sweeps = 0
                return name

            return train
        if name == "wrmf.half_sweep":
            # each ALS sweep updates the rows of X first, then the rows of Y
            def half_sweep() -> str:
                self._half_sweeps += 1
                return "wrmf.half_sweep.rows" if self._half_sweeps % 2 else "wrmf.half_sweep.cols"

            return half_sweep
        if name == "wrmf.solve":
            # one closed form serves both training rows and user fold-in
            def solve() -> str:
                in_sweep = self._open["wrmf.half_sweep.rows"] or self._open["wrmf.half_sweep.cols"]
                return "wrmf.row_solve" if in_sweep else "wrmf.fold_in"

            return solve
        return name

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "scenerec" or key.startswith("scenerec.")]
        found: set[str] = set()
        wrapped: set[str] = set()
        for owner, attr, name in WRAPPED:
            wrapped.add(name)
            is_class = isinstance(owner, type)
            original = vars(owner).get(attr) if is_class else getattr(owner, attr, None)
            if original is None:
                continue
            found.add(name)
            traced = self.wrap(self._namer(name), original)
            if is_class:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, traced)
        self.absent = wrapped - found

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def absent_metrics(self) -> set[str]:
        """Metrics that only wrapped functions missing from the library feed."""
        missing = {m for m, (_, _, sources) in SPAN_METRICS.items() if all(src in self.absent for src in sources)}
        if "evaluation.sample" in self.absent:
            missing |= {"evaluation.trials", "evaluation.resamples", "evaluation.sample_yield"}
        return missing

    @staticmethod
    def layer_metrics(spans: list[Span], rep_s: float) -> dict[str, float]:
        """Per-layer figures from the spans of one traced repetition that took
        ``rep_s`` seconds. Durations and counts take only the outermost span of
        a name; self times are summed over every span of the layer."""
        outer: dict[str, list[Span]] = {}
        for s in spans:
            if not s.nested:
                outer.setdefault(s.name, []).append(s)

        out: dict[str, float] = {}
        for metric, (name, kind, _) in SPAN_METRICS.items():
            found = outer.get(name, [])
            out[metric] = float(sum(s.duration for s in found)) if kind == "s" else float(len(found))
        samples = outer.get("evaluation.sample", [])
        sampled = sum(1 for s in samples if not s.failed)
        out["evaluation.trials"] = float(sampled)
        out["evaluation.resamples"] = float(len(samples) - sampled)
        out["evaluation.sample_yield"] = sampled / len(samples) if samples else 0.0
        for name, found in outer.items():
            if name.startswith("evaluation.score."):
                out["evaluation.score_s." + name.rsplit(".", 1)[1]] = float(sum(s.duration for s in found))
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(
                sum(s.duration - s.child_s for s in spans if s.name.split(".", 1)[0] == layer)
            )
        out["bench.self_s"] = rep_s - float(sum(s.duration for s in spans if s.parent < 0))
        out["trace.spans"] = float(len(spans))
        return out

    @staticmethod
    def span_cost_s(calls: int = 20_000) -> float:
        """Time one traced call adds to an untraced one, the best of three
        loops of ``calls`` calls of a no-op."""

        def noop() -> None:
            return None

        traced = Tracer().wrap("calibration", noop)

        def loop(fn: Callable) -> float:
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            return time.perf_counter() - start

        return max(0.0, min(loop(traced) for _ in range(3)) - min(loop(noop) for _ in range(3))) / calls
