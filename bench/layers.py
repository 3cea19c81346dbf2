"""Outside-in layer trace for one in-process experiment run.

The trace wraps, from outside the package, the module-level names that the
experiment functions call, in every ``roommates`` module that binds them, and
keeps one span per call in memory.  A layer's self time is its spans' total
duration minus the time of the spans nested inside them and minus the time
spent computing its counters.  Nothing under ``src/`` changes, so the trace
sees layer boundaries only, never phases inside a function.

Counters come from each call's arguments and return value, so they repeat
exactly for a fixed config.  ``bytes_computed`` is computed from array
shapes and dtypes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

import numpy as np

# Entries above this go through the per-row exact correction in
# stability_log_rows instead of the power series.
_SERIES_THRESHOLD = 0.5


def _irving_counts(out, *args, **kwargs):
    partner, proposals, rotations = out
    return {"proposals": proposals, "rotations": rotations, "found": partner is not None}


def _pref_score_counts(out, *args, **kwargs):
    pref, u = out
    # the utilities plus the full argsort that the preference rows slice
    return {"bytes_computed": u.nbytes + u.size * pref.itemsize}


def _stability_counts(out, X, *args, **kwargs):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return {
        "rows": X.shape[0],
        "corrected_rows": int((X > _SERIES_THRESHOLD).any(axis=1).sum()),
        "bytes_computed": X.nbytes,
    }


def _neighbors_counts(out, *args, **kwargs):
    return {"found": len(out)}


def _enumerate_counts(out, *args, **kwargs):
    return {"stable_total": out.X}


# (metric prefix, home module, function names, metrics, counter function).
# A prefix with several names is one layer reached through any of them.
LAYERS = [
    ("solvers.irving_decide", "roommates.solvers", ("irving_decide",),
     ("calls", "self_s", "proposals", "rotations", "found"), _irving_counts),
    ("experiments.random_pref_score", "roommates.experiments", ("_random_pref_score",),
     ("calls", "self_s", "bytes_computed"), _pref_score_counts),
    ("numerics.stability_log_rows", "roommates._numerics", ("stability_log_rows",),
     ("calls", "rows", "corrected_rows", "self_s", "bytes_computed"), _stability_counts),
    ("estimators.conditional_x_batch", "roommates.estimators", ("_conditional_x_batch",),
     ("calls", "self_s"), None),
    ("estimators.fill_conditional_pairs", "roommates.estimators", ("_fill_conditional_pairs",),
     ("calls", "self_s"), None),
    ("experiments.stable_single_cycle_neighbors", "roommates.experiments",
     ("stable_single_cycle_neighbors",), ("calls", "self_s", "found"), _neighbors_counts),
    ("experiments.neighbor_is_stable", "roommates.experiments", ("_neighbor_is_stable",),
     ("calls", "self_s"), None),
    ("solvers.enumerate_stable", "roommates.solvers", ("enumerate_stable",),
     ("calls", "self_s", "stable_total"), _enumerate_counts),
    ("instances.rank_from_utilities", "roommates.instances", ("rank_from_utilities",),
     ("calls", "self_s"), None),
    ("experiments.chunk", "roommates.experiments",
     ("_scaling_chunk", "_ex_chunk", "_census_chunk"),
     ("calls", "self_s", "p50_s", "max_s"), None),
    ("experiments.run", "roommates.experiments",
     ("run_scaling", "run_ex_scaling", "run_conditional_census"), ("self_s",), None),
    ("experiments.write_experiment", "roommates.experiments", ("write_experiment",),
     ("self_s",), None),
]


class Tracer:
    """Installs the layer wrappers and accumulates their spans."""

    def __init__(self):
        self.missing: list[str] = []
        self._metrics: dict[str, tuple[str, ...]] = {}
        self._stats: dict[str, dict] = {}
        self._durations: dict[str, list[float]] = {}
        self._stack: list[float] = []  # child time of each open span

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "roommates" or name.startswith("roommates.")]
        for prefix, home, names, metrics, count in LAYERS:
            try:
                module = importlib.import_module(home)
            except ImportError:
                module = None
            fns = [getattr(module, name, None) for name in names]
            if not all(callable(fn) for fn in fns):
                self.missing.append(prefix)
                continue
            self._metrics[prefix] = metrics
            self._stats[prefix] = dict.fromkeys(("calls", "self_s") + metrics, 0)
            for fn in fns:
                wrapper = self._wrap(prefix, fn, count)
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is fn]:
                        setattr(m, attr, wrapper)

    def _wrap(self, prefix, fn, count):
        stat = self._stats[prefix]
        durations = None
        if "p50_s" in self._metrics[prefix]:
            durations = self._durations.setdefault(prefix, [])
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = stack.pop()
            if count is not None:
                for key, value in count(out, *args, **kwargs).items():
                    stat[key] += value
            if stack:
                stack[-1] += time.perf_counter() - t0
            stat["calls"] += 1
            stat["self_s"] += (t1 - t0) - child
            if durations is not None:
                durations.append(t1 - t0)
            return out

        return span

    def report(self) -> dict[str, float | int]:
        """Flat ``prefix.metric`` values of every layer that was installed."""
        out = {}
        for prefix, metrics in self._metrics.items():
            stat = self._stats[prefix]
            durations = self._durations.get(prefix, [])
            for metric in metrics:
                if metric == "p50_s":
                    value = statistics.median(durations) if durations else 0.0
                elif metric == "max_s":
                    value = max(durations, default=0.0)
                else:
                    value = stat[metric]
                out[f"{prefix}.{metric}"] = value
        return out
