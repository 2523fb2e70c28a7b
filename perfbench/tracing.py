"""Per-layer spans for one traced `sfr` command, recorded from outside the package.

While a Tracer is entered, the public functions and methods listed in TARGETS
are replaced by timing wrappers in every loaded `sfr.*` module namespace that
holds them (the CLI imports functions by name, so patching the defining module
alone would miss its calls). Leaving the Tracer restores the originals, so
untraced commands in the same process run the unmodified program.

A target that no longer exists is skipped, and the metrics that read its span
are reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

MB = float(1 << 20)


class Span:
    """Calls, total time, self time (total minus directly nested spans),
    per-call durations and counters of one layer boundary."""

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []
        self.tally: defaultdict[str, float] = defaultdict(float)
        self.depth = 0

    def percentile(self, q: float, scale: float) -> float:
        return float(np.percentile(self.durations, q)) * scale if self.durations else 0.0


def _tally_load(tracer, span, args, result):
    span.tally["bytes"] += result.values.nbytes + 20  # payload plus the SFRF header


def _tally_pool(tracer, span, args, result):
    span.tally["columns"] += result.shape[1] if isinstance(result, np.ndarray) else result.count


def _tally_degenerate(tracer, span, args, result):
    span.tally["degenerate"] += len(result.degenerate_columns)


def _tally_pairs(tracer, span, args, result):
    span.tally["pairs"] += len(result.scored)


def _tally_mine_pairs(tracer, span, args, result):
    n = len(args[0].samples)
    span.tally["pairs"] += n * (n - 1)


def _tally_active(tracer, span, args, result):
    span.tally["active"] += result[1].active_triplets


def _tally_samples(tracer, span, args, result):
    # A sample is one (input grid, kernel) pair. Both arrays are kept alive
    # until the tracer is dropped so that their ids cannot be reused.
    x, kernel = args[0], args[1]
    tracer.conv_inputs[(id(x), id(kernel))] = (x, kernel)
    span.tally["distinct"] = len(tracer.conv_inputs)


# (span, module, function or Class.method, counter hook)
TARGETS = (
    ("features.load", "sfr.features", "load_feature_map", _tally_load),
    ("features.pool", "sfr.features", "pyramid_pool", _tally_pool),
    ("features.pool", "sfr.features", "pool_columns", _tally_pool),
    ("features.normalize", "sfr.features", "l2_normalize_columns", _tally_degenerate),
    ("reconstruction.factor", "sfr.reconstruction", "DictionaryFactor.__init__", None),
    ("reconstruction.solve", "sfr.reconstruction", "DictionaryFactor.solve", None),
    ("reconstruction.reconstruct", "sfr.reconstruction", "DictionaryFactor.reconstruct", None),
    ("retrieval.manifest", "sfr.retrieval", "load_manifest", None),
    ("retrieval.gallery", "sfr.retrieval", "build_gallery", None),
    ("retrieval.match", "sfr.retrieval", "match_probe", _tally_pairs),
    ("retrieval.evaluate", "sfr.retrieval", "evaluate", None),
    ("metric.distance", "sfr.metric", "euclidean_distance", None),
    ("metric.build_batch", "sfr.metric", "build_batch", None),
    ("metric.mine", "sfr.metric", "batch_hard_mine", _tally_mine_pairs),
    ("metric.step", "sfr.metric", "training_step", _tally_active),
    ("metric.pool_backward", "sfr.metric", "_pool_backward", None),
    ("encoder.conv_forward", "sfr.encoder", "conv2d_valid", _tally_samples),
    ("encoder.forward", "sfr.encoder", "encode_raw", None),
    ("encoder.backward", "sfr.encoder", "encode_backward", None),
    ("toydata.pools", "sfr.toydata", "make_identity_pools", None),
)

# (metric, unit, span it reads, value from that span)
SPAN_METRICS = (
    ("features.load_calls", "count", "features.load", lambda s: s.calls),
    ("features.load_s", "s", "features.load", lambda s: s.total),
    ("features.load_mb", "MB", "features.load", lambda s: s.tally["bytes"] / MB),
    ("features.pool_calls", "count", "features.pool", lambda s: s.calls),
    ("features.pool_s", "s", "features.pool", lambda s: s.total),
    ("features.columns", "count", "features.pool", lambda s: s.tally["columns"]),
    ("features.normalize_s", "s", "features.normalize", lambda s: s.total),
    ("features.degenerate_columns", "count", "features.normalize", lambda s: s.tally["degenerate"]),
    ("reconstruction.factor_calls", "count", "reconstruction.factor", lambda s: s.calls),
    ("reconstruction.factor_s", "s", "reconstruction.factor", lambda s: s.total),
    ("reconstruction.solve_calls", "count", "reconstruction.solve", lambda s: s.calls),
    ("reconstruction.solve_s", "s", "reconstruction.solve", lambda s: s.total),
    ("reconstruction.solve_p50_us", "us", "reconstruction.solve", lambda s: s.percentile(50, 1e6)),
    ("reconstruction.solve_p99_us", "us", "reconstruction.solve", lambda s: s.percentile(99, 1e6)),
    ("retrieval.manifest_s", "s", "retrieval.manifest", lambda s: s.total),
    ("retrieval.gallery_s", "s", "retrieval.gallery", lambda s: s.total),
    ("retrieval.match_calls", "count", "retrieval.match", lambda s: s.calls),
    ("retrieval.match_s", "s", "retrieval.match", lambda s: s.total),
    ("retrieval.match_self_s", "s", "retrieval.match", lambda s: s.self_time),
    ("retrieval.match_p50_ms", "ms", "retrieval.match", lambda s: s.percentile(50, 1e3)),
    ("retrieval.match_p99_ms", "ms", "retrieval.match", lambda s: s.percentile(99, 1e3)),
    ("retrieval.pairs_scored", "count", "retrieval.match", lambda s: s.tally["pairs"]),
    ("retrieval.evaluate_s", "s", "retrieval.evaluate", lambda s: s.total),
    ("metric.build_batch_calls", "count", "metric.build_batch", lambda s: s.calls),
    ("metric.build_batch_s", "s", "metric.build_batch", lambda s: s.total),
    ("metric.mine_calls", "count", "metric.mine", lambda s: s.calls),
    ("metric.mine_s", "s", "metric.mine", lambda s: s.total),
    ("metric.mine_pairs", "count", "metric.mine", lambda s: s.tally["pairs"]),
    ("metric.step_calls", "count", "metric.step", lambda s: s.calls),
    ("metric.step_s", "s", "metric.step", lambda s: s.total),
    ("metric.step_self_s", "s", "metric.step", lambda s: s.self_time),
    ("metric.pool_backward_s", "s", "metric.pool_backward", lambda s: s.total),
    ("metric.active_triplets", "count", "metric.step", lambda s: s.tally["active"]),
    ("encoder.conv_forward_calls", "count", "encoder.conv_forward", lambda s: s.calls),
    ("encoder.forward_s", "s", "encoder.forward", lambda s: s.total),
    ("encoder.backward_calls", "count", "encoder.backward", lambda s: s.calls),
    ("encoder.backward_s", "s", "encoder.backward", lambda s: s.total),
    (
        "encoder.forwards_per_sample", "ratio", "encoder.conv_forward",
        lambda s: s.calls / s.tally["distinct"] if s.tally["distinct"] else 0.0,
    ),
    ("toydata.pools_s", "s", "toydata.pools", lambda s: s.total),
)


class Tracer:
    """Context manager that records spans of the `sfr` layers for one command."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = defaultdict(Span)
        self.present: set[str] = set()
        self.top_level_s = 0.0  # time inside outermost spans
        self.conv_inputs: dict = {}
        self._open: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items()) if name == "sfr" or name.startswith("sfr.")]
        for span_name, module_name, attr, hook in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None:
                continue
            original = vars(owner).get(name)
            if not callable(original):
                continue
            wrapper = self._wrap(span_name, original, hook)
            self.present.add(span_name)
            if owner_name:
                self._patch(owner, name, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, span_name: str, fn, hook):
        span = self.spans[span_name]
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span.depth:  # nested call into the same span, e.g. pyramid_pool -> pool_columns
                return fn(*args, **kwargs)
            span.depth += 1
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                span.depth -= 1
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                else:
                    self.top_level_s += elapsed
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - children
                span.durations.append(elapsed)
            if hook is not None:
                try:
                    hook(self, span, args, result)
                except Exception:  # a later version returns something else: drop the span
                    self.present.discard(span_name)
            return result

        return traced

    def metrics(self, wall_s: float, rankings_bytes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced command, as name -> (value, unit)."""
        out = {
            name: (float(value(self.spans[span])), unit)
            for name, unit, span, value in SPAN_METRICS
            if span in self.present
        }
        if {"reconstruction.factor", "reconstruction.solve"} <= self.present:
            factors = self.spans["reconstruction.factor"].calls
            solves = self.spans["reconstruction.solve"].calls
            out["reconstruction.solves_per_factor"] = (solves / factors if factors else 0.0, "ratio")
        out["cli.self_s"] = (wall_s - self.top_level_s, "s")
        out["cli.rankings_mb"] = (rankings_bytes / MB, "MB")
        return out


def absent_metrics(reported) -> list[str]:
    """Per-layer metric names that a traced command could not report."""
    names = [m[0] for m in SPAN_METRICS] + ["reconstruction.solves_per_factor"]
    return [n for n in names if n not in reported]
