"""Spans around the public functions of each fpgrad layer, from outside.

The program is not edited: `Tracer.install()` replaces each traced
function with a wrapper in every fpgrad module that holds a reference to
it, because callers look names up in different places (`training`
imports `rbp_gradient` and `eqprop_gradient` by name, `relax_free`
reaches `relax` through the globals of `dynamics`, the CLI goes through
module attributes).  `uninstall()` puts the originals back.

Spans are recorded only while `op` is set, so the benchmark's own output
checks leave none.  A span is (name, start, end, parent, op id, counts).
Spans stay in memory until `write_csv` is called at the end of a run.  A
span's self time is its duration minus the durations of its direct
children; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict


def _steps_of_trajectory(args, kwargs, result):
    traj = result[1]
    return {"steps": traj.steps_taken, "converged": int(bool(traj.converged))}


def _steps_of_estimate(args, kwargs, result):
    return {"steps": int(round(result.horizon_t / result.step))}


def _steps_of_path(args, kwargs, result):
    return {"steps": len(result) - 1}


def _steps_of_error_path(args, kwargs, result):
    return {"steps": len(result[0]) - 1}


def _samples_of_training(args, kwargs, result):
    ds, cfg = args[0], args[3]
    return {"samples": (cfg.epochs - kwargs.get("start_epoch", 0)) * len(ds.samples)}


# (module, function, counter) for every traced boundary, outermost first
TRACED = (
    ("cli", "main", None),
    ("training", "sgd_train", _samples_of_training),
    ("equivalence", "compare_processes", None),
    ("equivalence", "error_process_path", _steps_of_error_path),
    ("eqprop", "eqprop_gradient", _steps_of_estimate),
    ("eqprop", "temporal_derivative_process", None),
    ("rbp", "rbp_gradient", _steps_of_estimate),
    ("oracle", "fd_objective_gradient", None),
    ("dynamics", "relax_free", _steps_of_trajectory),
    ("dynamics", "relax_nudged", _steps_of_trajectory),
    ("dynamics", "relax", _steps_of_trajectory),
    ("dynamics", "path", _steps_of_path),
)


def _patch(replacements):
    """Rebind every fpgrad module attribute that is a key of
    `replacements` to its value; returns what `_unpatch` needs."""
    modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "fpgrad" or n.startswith("fpgrad."))
    ]
    undo = []
    for original, replacement in replacements.items():
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    undo.append((module, attr, original))
    return undo


def _unpatch(undo):
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, counts]
        self.op = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:  # outside an op, e.g. an output check
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            idx = len(spans)
            span = [name, clock(), None, parent, self.op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        replacements = {}
        for mod, fn_name, counter in TRACED:
            original = getattr(sys.modules[f"fpgrad.{mod}"], fn_name)
            replacements[original] = self._wrap(f"{mod}.{fn_name}", original, counter)
        self._undo = _patch(replacements)
        return self

    def uninstall(self):
        _unpatch(self._undo)
        self._undo = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self):
        """Per span name: calls, total_s, self_s and the summed counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, counts in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, op, counts) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            for key, value in (counts or {}).items():
                entry[key] += value
        return out

    def child_counts(self, parent_name, child_name, skip_first=0):
        """Calls and summed counts of the `child_name` spans directly under
        each `parent_name` span, less the first `skip_first` of each."""
        seen = defaultdict(int)
        out = defaultdict(float)
        for name, start, end, parent, op, counts in self.spans:
            if name != child_name or parent is None or self.spans[parent][0] != parent_name:
                continue
            seen[parent] += 1
            if seen[parent] <= skip_first:
                continue
            out["calls"] += 1
            for key, value in (counts or {}).items():
                out[key] += value
        return out

    def write_csv(self, path):
        with open(path, "w") as f:
            f.write("id,op,parent,name,start_s,end_s\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, op, _) in enumerate(self.spans):
                p = "" if parent is None else parent
                f.write(f"{i},{op},{p},{name},{start - t0:.9f},{end - t0:.9f}\n")


class PeakMemory:
    """While active, traces allocations and records the peak traced memory
    of each `compare_processes` call above what was live when it began."""

    def __enter__(self):
        self.peaks = []
        original = sys.modules["fpgrad.equivalence"].compare_processes

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = original(*args, **kwargs)
            self.peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return result

        self._undo = _patch({original: wrapper})
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        _unpatch(self._undo)
