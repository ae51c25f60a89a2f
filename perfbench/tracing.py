"""Spans recorded by the benchmark around calls into nnops' public functions.

Only the traced run (``--trace 1``) uses this module.  It wraps the public
functions the workloads call, and the ``eval_kernel`` that ``nnops.operators``
calls, for the duration of one :func:`instrumented` block; the untraced run
calls the library unwrapped.  Spans stay in memory and are written out once,
when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
import types
from dataclasses import dataclass, field

import numpy as np

#: the library's layers, in report order
LAYERS = ("kernels", "operators", "quadrature", "metrics", "signals")

#: a weight is significant when it is at least this share of its row maximum
SIGNIFICANT = 2.0**-53


@dataclass
class Span:
    """One call: name, layer, wall interval, the span that caused it, counts."""

    name: str
    layer: str
    parent: int | None
    start_ns: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)
    key: str | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, layer, parent, time.perf_counter_ns())
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        span = self._open(name, layer)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, fn, layer: str, count=None):
        """Record a span around every call of ``fn``.

        ``count(result, *args, **kwargs)`` returns the call's counts.  It runs
        after the span closes, in a span of the ``trace`` layer, so its cost
        lands in ``trace.unattributed_s`` and not in any library layer.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(fn.__name__, layer)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                span.counts["errors"] = 1
                raise
            finally:
                self._close(span)
            if count is not None:
                with self.span(fn.__name__ + ".count", "trace"):
                    counts = count(out, *args, **kwargs)
                    span.key = counts.pop("key", None)
                    span.counts.update(counts)
            return out

        return traced

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(vars(s)) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over the spans under the ``workload`` roots (one
        per traced pass), averaged over those passes.

        A span's self time is its duration minus its children's.  Calls run
        on one thread, so children never overlap and their durations add up
        to the part of the parent's interval they cover.
        """
        spans = self.spans
        self_ns = [s.duration_ns for s in spans]
        top = list(range(len(spans)))
        for i, s in enumerate(spans):
            if s.parent is not None:
                self_ns[s.parent] -= s.duration_ns
                top[i] = top[s.parent]
        roots = [i for i, s in enumerate(spans) if s.parent is None and s.name == "workload"]
        chosen = set(roots)
        under = [i for i in range(len(spans)) if top[i] in chosen]
        reps = max(len(roots), 1)

        out: dict[str, float] = {}
        sums: dict[str, float] = {}
        for layer in LAYERS:
            mine = [i for i in under if spans[i].layer == layer]
            out[f"{layer}.self_s"] = sum(self_ns[i] for i in mine) / 1e9 / reps
            out[f"{layer}.calls"] = len(mine) / reps
            for i in mine:
                for name, value in spans[i].counts.items():
                    sums[f"{layer}.{name}"] = sums.get(f"{layer}.{name}", 0) + value

        evals = sums.get("kernels.evals", 0)
        grid_points = sums.get("operators.grid_points", 0)
        out["kernels.evals"] = evals / reps
        out["kernels.bytes_computed"] = 8 * evals / reps
        out["kernels.significant_ratio"] = (
            sums.get("kernels.significant", 0) / evals if evals else 0.0
        )
        distinct = []
        for r in roots:
            keys = [spans[i].key for i in under if top[i] == r and spans[i].layer == "kernels"]
            if keys:
                distinct.append(len(set(keys)) / len(keys))
        out["kernels.distinct_ratio"] = statistics.fmean(distinct) if distinct else 0.0
        out["operators.grid_points"] = grid_points / reps
        out["operators.nodes_per_row"] = evals / grid_points if grid_points else 0.0
        out["operators.errors"] = sums.get("operators.errors", 0) / reps
        out["quadrature.cells"] = sums.get("quadrature.cells", 0) / reps
        out["metrics.norm_points"] = sums.get("metrics.norm_points", 0) / reps
        out["signals.samples"] = sums.get("signals.samples", 0) / reps

        walls = [spans[r].duration_ns / 1e9 for r in roots]
        out["trace.wall_s"] = statistics.fmean(walls) if walls else 0.0
        out["trace.unattributed_s"] = out["trace.wall_s"] - sum(
            out[f"{layer}.self_s"] for layer in LAYERS
        )
        return out

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [s.duration_ns / 1e9 for s in self.spans if s.name == name]


# ---------------------------------------------------------------------------
# what each wrapped function counts


def _fingerprint(k, x: np.ndarray) -> str:
    """Identify a kernel argument matrix by its kernel, shape and a strided
    sample of its entries (hashing every entry would dominate the trace)."""
    flat = x.reshape(-1)
    sample = flat[:: max(1, flat.size // 4096)]
    return f"{k!r}|{x.shape}|{hash(sample.tobytes())}|{flat[-1]!r}"


def _count_kernel(w, k, x) -> dict:
    w = np.asarray(w, dtype=float)
    rows = np.atleast_2d(w)
    peak = rows.max(axis=1, keepdims=True)
    return {
        "evals": w.size,
        "significant": int(np.count_nonzero(rows >= peak * SIGNIFICANT)),
        "key": _fingerprint(k, np.asarray(x, dtype=float)),
    }


def _count_grid(out, spec, data, grid) -> dict:
    return {"grid_points": len(grid)}


def _count_nodes(out, *args, **kwargs) -> dict:
    return {"cells": len(out.values)}


def _count_norm(out, g, h, p, domain, grid_points=100_000) -> dict:
    return {"norm_points": grid_points}


def _count_samples(out, *args, **kwargs) -> dict:
    return {"samples": len(out.samples)}


#: public nnops function -> (layer, counter)
WRAPPED = {
    "make_kernel": ("kernels", None),
    "eval_grid": ("operators", _count_grid),
    "sample_node_values": ("quadrature", _count_nodes),
    "cell_averages_exact": ("quadrature", _count_nodes),
    "cell_averages_sampled": ("quadrature", _count_nodes),
    "lp_error": ("metrics", _count_norm),
    "sample_function": ("signals", _count_samples),
    "add_gaussian_noise": ("signals", _count_samples),
}


@contextlib.contextmanager
def instrumented(nnops, tracer: Tracer):
    """Yield a stand-in for the ``nnops`` package whose layer functions
    record spans, with ``nnops.operators.eval_kernel`` wrapped meanwhile."""
    api = types.SimpleNamespace(**vars(nnops))
    for name, (layer, count) in WRAPPED.items():
        setattr(api, name, tracer.wrap(getattr(nnops, name), layer, count))
    operators = nnops.operators
    original = operators.eval_kernel
    operators.eval_kernel = tracer.wrap(original, "kernels", _count_kernel)
    try:
        yield api
    finally:
        operators.eval_kernel = original
