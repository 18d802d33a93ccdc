"""Spans around the calls between evorate's modules, recorded from outside.

A traced pass replaces module attributes with timing wrappers.  Each
call records a span: label, thread, start, end, the enclosing span on
the same thread, the exception it raised if any, and a few counts read
from its arguments or result.  A span's self time is its duration minus
the time its child spans cover.

The wrapped names are the ones each module imports from the next, so a
refactor that renames or removes one makes `Tracer.install` raise
instead of silently losing a layer.
"""

import importlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np


def _kernel_meta(args, kwargs, result):
    reach = kwargs.get("reachable_from", args[5] if len(args) > 5 else None)
    return {"reach": reach is not None, "nnz": result.matrix.nnz, "states": result.num_states}


def _stationary_meta(args, kwargs, result):
    return {"method": result.method, "iterations": result.iterations or 0}


def _evaluate_meta(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    return {"config": config, "result": result}


def _rows_meta(args, kwargs, result):
    return {"rows": len(args[2] if len(args) > 2 else kwargs["fractions"])}


def _rank_meta(args, kwargs, result):
    return {"rows": len(result)}


def _result_meta(args, kwargs, result):
    return {"result": result}


# (module, attribute, label, meta): the calls between modules.
WRAPPED = (
    ("evorate.cli", "main", "cli.main", None),
    ("evorate.cli", "run_sweep", "sweep.run", None),
    ("evorate.cli", "evaluate_process", "sweep.evaluate", _evaluate_meta),
    ("evorate.sweep", "evaluate_process", "sweep.evaluate", _evaluate_meta),
    ("evorate.sweep", "build_kernel", "kernel.build", _kernel_meta),
    ("evorate.kernel", "build_kernel", "kernel.build", _kernel_meta),
    ("evorate.sweep", "recurrent_classes", "kernel.classes", None),
    ("evorate.sweep", "restrict_to_states", "kernel.classes", None),
    ("evorate.stationary", "is_irreducible", "kernel.classes", None),
    ("evorate.kernel", "incentive_values_batch", "dynamics.incentive", _rows_meta),
    ("evorate.kernel", "rank_states", "simplex.rank", _rank_meta),
    ("evorate.kernel", "_states_cached", "simplex.enumerate", None),
    ("evorate.stationary", "_states_cached", "simplex.enumerate", None),
    ("evorate.sweep", "solve_stationary", "stationary.solve", _stationary_meta),
    ("evorate.sweep", "reversible_stationary", "stationary.solve", _stationary_meta),
    ("evorate.sweep", "neutral_stationary", "stationary.solve", _stationary_meta),
    ("evorate.sweep", "entropy_rate", "entropy.rate", None),
    ("evorate.sampler", "sample_trajectory", "sampler.sample", _result_meta),
    ("evorate.entropy", "plug_in_entropy_rate", "entropy.plugin", None),
)


@dataclass
class Span:
    label: str
    thread: int
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    meta: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Installs the wrappers, collects spans, and restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def install(self, modules: dict | None = None) -> None:
        """Wrap every name in WRAPPED; raise if any of them is missing.

        `modules` maps module names to modules, by default the imported ones.
        """
        if modules is None:
            modules = {mod: importlib.import_module(mod) for mod, _, _, _ in WRAPPED}
        missing = [
            f"{mod}.{attr}"
            for mod, attr, _, _ in WRAPPED
            if not callable(getattr(modules[mod], attr, None))
        ]
        if missing:
            raise LookupError(f"traced names no longer exist: {', '.join(missing)}")
        for mod, attr, label, meta in WRAPPED:
            module = modules[mod]
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, label, meta))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    def _wrap(self, original, label, meta):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(label, threading.get_ident(), stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.duration
                with self._lock:
                    self.spans.append(span)
            if meta is not None:
                span.meta = meta(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced


def _sum(spans, label, value=lambda s: s.self_time):
    return float(sum(value(s) for s in spans if s.label == label))


def layer_metrics(spans: list[Span], wall: float, main_thread: int) -> dict:
    """Per-layer numbers for one traced pass of `wall` seconds."""
    built = [s.meta for s in spans if s.label == "kernel.build" and s.meta]
    solved = [s for s in spans if s.label == "stationary.solve"]
    methods = [s.meta.get("method") for s in solved if s.meta]
    evaluated = [s for s in spans if s.label == "sweep.evaluate"]
    results = [s.meta["result"] for s in evaluated if s.meta]
    residuals = [r.stationary.residual for r in results if r.stationary.residual is not None]
    runs = [s for s in spans if s.label == "sweep.run"]
    points = [
        s for s in evaluated if any(r.start <= s.start and s.end <= r.end for r in runs)
    ]
    run_s = float(sum(s.duration for s in runs))
    busy_s = float(sum(s.duration for s in points))
    states = sum(b["states"] for b in built)
    incentive_rows = _sum(spans, "dynamics.incentive", lambda s: s.meta.get("rows", 0))
    trajectories = [s.meta["result"] for s in spans if s.label == "sampler.sample" and s.meta]
    steps = sum(len(t) - 1 for t in trajectories)
    sample_s = _sum(spans, "sampler.sample")
    main_self = sum(s.self_time for s in spans if s.thread == main_thread)
    return {
        "stationary.solve_s": _sum(spans, "stationary.solve"),
        "stationary.iterations": float(sum(s.meta.get("iterations", 0) for s in solved)),
        "stationary.calls.iterative": float(methods.count("iterative")),
        "stationary.calls.reversible_exact": float(methods.count("reversible_exact")),
        "stationary.calls.closed_form": float(methods.count("closed_form")),
        "stationary.reversible_fallbacks": float(
            sum(1 for s in solved if s.error == "NotReversibleError")
        ),
        "stationary.residual_max": float(max(residuals, default=0.0)),
        "kernel.build_s": float(
            sum(s.self_time for s in spans if s.label == "kernel.build" and not s.meta.get("reach"))
        ),
        "kernel.reach_s": float(
            sum(s.self_time for s in spans if s.label == "kernel.build" and s.meta.get("reach"))
        ),
        "kernel.classes_s": _sum(spans, "kernel.classes"),
        "kernel.nnz": float(sum(b["nnz"] for b in built)),
        "simplex.rank_s": _sum(spans, "simplex.rank"),
        "simplex.rank_calls": _sum(spans, "simplex.rank", lambda s: 1),
        "simplex.states": float(states),
        "simplex.enumerate_s": _sum(spans, "simplex.enumerate"),
        "dynamics.incentive_s": _sum(spans, "dynamics.incentive"),
        "dynamics.incentive_rows": incentive_rows,
        "dynamics.rows_per_state": incentive_rows / states if states else 0.0,
        "sweep.run_s": run_s,
        "sweep.workers": float(len({s.thread for s in points})),
        "sweep.busy_s": busy_s,
        "sweep.parallel_ratio": busy_s / run_s if run_s else 0.0,
        "sweep.evaluate_self_s": _sum(spans, "sweep.evaluate"),
        "sweep.evaluate_calls": float(len(evaluated)),
        "sampler.sample_s": sample_s,
        "sampler.steps": float(steps),
        "sampler.ns_per_step": sample_s / steps * 1e9 if steps else 0.0,
        "sampler.rows_visited": float(sum(np.unique(t).size for t in trajectories)),
        "entropy.plugin_s": _sum(spans, "entropy.plugin"),
        "entropy.plugin_pairs": float(
            sum(np.unique(t[:-1] * (t.max() + 1) + t[1:]).size for t in trajectories)
        ),
        "entropy.rate_s": _sum(spans, "entropy.rate"),
        "cli.self_s": _sum(spans, "cli.main"),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - main_self,
    }


UNITS = {
    "stationary.solve_s": "s",
    "stationary.iterations": "count",
    "stationary.calls.iterative": "count",
    "stationary.calls.reversible_exact": "count",
    "stationary.calls.closed_form": "count",
    "stationary.reversible_fallbacks": "count",
    "stationary.residual_max": "prob",
    "kernel.build_s": "s",
    "kernel.reach_s": "s",
    "kernel.classes_s": "s",
    "kernel.nnz": "count",
    "simplex.rank_s": "s",
    "simplex.rank_calls": "count",
    "simplex.states": "count",
    "simplex.enumerate_s": "s",
    "dynamics.incentive_s": "s",
    "dynamics.incentive_rows": "count",
    "dynamics.rows_per_state": "ratio",
    "sweep.run_s": "s",
    "sweep.workers": "count",
    "sweep.busy_s": "s",
    "sweep.parallel_ratio": "ratio",
    "sweep.evaluate_self_s": "s",
    "sweep.evaluate_calls": "count",
    "sampler.sample_s": "s",
    "sampler.steps": "count",
    "sampler.ns_per_step": "ns",
    "sampler.rows_visited": "count",
    "entropy.plugin_s": "s",
    "entropy.plugin_pairs": "count",
    "entropy.rate_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
}
