"""Span tracer that wraps reviewpipe's public functions from outside.

Each layer is a set of public functions.  The tracer replaces every
binding of such a function in the package's module namespaces, so calls
between modules (``run_pipeline`` -> ``load_reviews``) and inside one
(``calibrate_meta`` -> ``fit_hyperparams``) both pass through it.  A call
records a span (layer, start, end, parent, run id) and the tracemalloc
peak above the memory in use when it started; a few calls also record
counts.  Spans stay in memory until the caller writes them out.

A layer's self time is its spans' durations minus the time of their
direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass

# layer -> (module under reviewpipe, public function) whose calls are its spans
SPANNED = {
    "records.load": [("records", "load_reviews")],
    "records.validate": [("records", "validate")],
    "scoring.build_score_table": [("scoring", "build_score_table")],
    "scoring.rank_and_cut": [("scoring", "rank_and_cut")],
    "dequant.dequantize": [("dequant", "dequantize")],
    "calibration.fit": [("calibration", "fit_hyperparams")],
    "calibration.posterior": [("calibration", "posterior")],
    "calibration.sample": [("calibration", "acceptance_probability")],
    "calibration.meta": [("calibration", "calibrate_meta")],
    "pipeline.run": [("pipeline", "run_pipeline")],
    "pipeline.report": [
        ("pipeline", "write_atomic"),
        ("pipeline", "gray_area"),
        ("scoring", "score_table_csv"),
        ("scoring", "score_table_json"),
        ("scoring", "decision_list_csv"),
    ],
    "plots.emit": [("pipeline", "emit_plots")],
    "assignment.assign": [("assignment", "assign")],
    "assignment.check": [("assignment", "check_constraints")],
}

# Functions called once per review or grid point: a span each would cost
# more than the call, so only completed calls are counted.
COUNTED = {
    "scoring.review_score": ("scoring", "review_score"),
    "calibration.nll": ("calibration", "nll"),
}


def _grid_points(a, _result):
    from reviewpipe.calibration import GridSpec

    return {"grid_points": (a["grid"] or GridSpec()).points ** 2}


# function name -> counts taken from its bound arguments and result
HOOKS = {
    "load_reviews": lambda a, r: {
        "rows": len(r.reviews) + len(r.metas) + len(r.report.rejected),
        "rejected": len(r.report.rejected),
    },
    "dequantize": lambda a, r: {"papers": len(a["groups"])},
    "fit_hyperparams": _grid_points,
    "acceptance_probability": lambda a, r: {"draws": a["inputs"].n * a["n_samples"]},
    "write_atomic": lambda a, r: {"bytes": len(a["text"].encode("utf-8"))},
    "gray_area": lambda a, r: {"gray_disagree": len(r.disagree)},
    "assign": lambda a, r: {"candidates": len(a["sources"]), "pairs": len(r.pairs)},
}


@dataclass
class Span:
    layer: str
    start: float
    parent: int  # index of the enclosing span, -1 at the top
    run: int  # operation the span belongs to
    mem_start: int  # tracemalloc bytes in use at the start
    peak: int  # highest tracemalloc bytes seen inside the span
    end: float = 0.0


class Tracer:
    """Wraps the layer functions while installed; ``run`` tags new spans.

    With ``memory`` set, each span also takes its tracemalloc peak; the
    caller starts tracemalloc.  tracemalloc slows allocation-heavy code
    several times over, so times and peaks come from separate tracers.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.missing: list[str] = []
        self.hook_errors: list[str] = []
        self.run = 0
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self):
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "reviewpipe" or name.startswith("reviewpipe.")
        ]
        targets = [(layer, mod, fn, True) for layer, fns in SPANNED.items() for mod, fn in fns]
        targets += [(layer, mod, fn, False) for layer, (mod, fn) in COUNTED.items()]
        for layer, modname, fname, spanned in targets:
            try:
                fn = getattr(importlib.import_module(f"reviewpipe.{modname}"), fname)
            except (ImportError, AttributeError):
                self.missing.append(f"{layer}: reviewpipe.{modname}.{fname}")
                continue
            wrapper = self._spanned(layer, fn) if spanned else self._counted(layer, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _enter(self, layer: str) -> Span:
        parent = self.spans[self._open[-1]] if self._open else None
        if layer == "pipeline.report" and parent is not None and parent.layer == "plots.emit":
            layer = "plots.emit"  # figure files are written by the plots layer
        current = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
        span = Span(layer, 0.0, self._open[-1] if self._open else -1, self.run, current, current)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span):
        span.end = time.perf_counter()
        if self.memory:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
        self._open.pop()
        if self._open:
            parent = self.spans[self._open[-1]]
            parent.peak = max(parent.peak, span.peak)

    def _spanned(self, layer, fn):
        hook = HOOKS.get(fn.__name__)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if hook is not None:
                self._count(span, hook, sig, args, kwargs, result)
            return result

        return traced

    def _counted(self, layer, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[(self.run, f"{layer}.calls")] += 1
            return result

        return counted

    def _count(self, span, hook, sig, args, kwargs, result):
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            values = hook(bound.arguments, result)
        except (AttributeError, KeyError, TypeError) as exc:
            self.hook_errors.append(f"{span.layer}: {exc!r}")
            return
        for key, value in values.items():
            self.counts[(span.run, f"{span.layer}.{key}")] += value

    def per_run(self) -> dict[int, dict[str, float]]:
        """Per operation: every count, and ``<layer>.peak_mb`` (largest span
        peak) with memory or else ``<layer>.self_s``."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        runs: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            d = runs[s.run]
            if self.memory:
                key = f"{s.layer}.peak_mb"
                d[key] = max(d[key], (s.peak - s.mem_start) / 2**20)
            else:
                d[f"{s.layer}.self_s"] += (s.end - s.start) - child[i]
        for (run, name), value in self.counts.items():
            runs[run][name] += value
        return runs

    def layers_seen(self) -> set[str]:
        return {s.layer for s in self.spans} | {name.rsplit(".", 1)[0] for _, name in self.counts}

    def span_records(self) -> list[dict]:
        return [
            dict(asdict(s), index=i, peak_mb=(s.peak - s.mem_start) / 2**20)
            for i, s in enumerate(self.spans)
        ]
