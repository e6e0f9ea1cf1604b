"""Span tracing around the public callables of each specseq module.

The tracer wraps, from outside the library, every public function of the
modules below, every public method of their public classes (plus the
arithmetic operators of ``WindowedSequence``), the ``ResolventPlan`` and
``ManifoldProblem`` constructors, and the lazy eigen decomposition of
``BoundedOperator``.  A function is rebound in every ``specseq.*``
namespace that holds it, so calls between modules are traced too.

Each span records its parent span, a key naming ``(module, callable)``,
start and end (``perf_counter_ns``) and the pass it belongs to.  Spans stay
in memory until :meth:`Tracer.write_spans`.  Work counts are read from
arguments and return values at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

MODULES = ("cli", "io", "sequences", "ztransform", "operators", "resolvent", "solver", "manifold")
_CONSTRUCTORS = {"ResolventPlan", "ManifoldProblem"}
_OPERATORS = {"__add__", "__sub__", "__neg__"}

#: Per-layer metrics of the traced run: name -> unit.
LAYER_METRICS = {
    "cli.self_ms": "ms",
    "cli.errors": "count",
    "io.self_ms": "ms",
    "io.bytes_out": "B",
    "io.bytes_in": "B",
    "io.errors": "count",
    "sequences.self_ms": "ms",
    "sequences.calls": "count",
    "sequences.errors": "count",
    "ztransform.self_ms": "ms",
    "ztransform.samples": "count",
    "ztransform.errors": "count",
    "operators.self_ms": "ms",
    "operators.circle_sup_ms": "ms",
    "operators.circle_sup_nodes": "count",
    "operators.norm_calls": "count",
    "operators.riesz_ms": "ms",
    "operators.quad_nodes": "count",
    "operators.quad_useful_ratio": "ratio",
    "operators.resolvent_at_calls": "count",
    "operators.eigendata_ms": "ms",
    "operators.errors": "count",
    "resolvent.self_ms": "ms",
    "resolvent.plan_ms": "ms",
    "resolvent.tail_cut": "count",
    "resolvent.apply_ms": "ms",
    "resolvent.apply_calls": "count",
    "resolvent.errors": "count",
    "solver.self_ms": "ms",
    "solver.ivp_ms": "ms",
    "solver.contraction_iterations": "count",
    "solver.stencil_calls": "count",
    "solver.errors": "count",
    "manifold.self_ms": "ms",
    "manifold.problem_ms": "ms",
    "manifold.points": "count",
    "manifold.lp_iterations": "count",
    "manifold.lp_apply_calls": "count",
    "manifold.errors": "count",
    "trace.overhead_ratio": "ratio",
}

#: Inclusive span time of these callables, per round.
_INCLUSIVE_MS = {
    "operators.circle_sup_ms": {("operators", "circle_sup_resolvent")},
    "operators.riesz_ms": {("operators", "riesz_split")},
    "operators.eigendata_ms": {("operators", "BoundedOperator._eigendata")},
    "resolvent.plan_ms": {("resolvent", "ResolventPlan.__init__")},
    "resolvent.apply_ms": {
        ("resolvent", f"apply_resolvent_{mode}") for mode in ("causal", "split", "frequency")
    },
    "manifold.problem_ms": {("manifold", "ManifoldProblem.__init__")},
    "solver.ivp_ms": {("solver", "solve_ivp")},
}

#: Number of calls of these callables, per round.
_CALL_COUNTS = {
    "operators.norm_calls": {("operators", "operator_norm")},
    "operators.resolvent_at_calls": {("operators", "resolvent_at")},
    "resolvent.apply_calls": _INCLUSIVE_MS["resolvent.apply_ms"],
    "manifold.points": {("manifold", "stable_manifold_point")},
    "manifold.lp_apply_calls": {("manifold", "lp_apply")},
    "solver.stencil_calls": {("solver", "StencilMap.apply"), ("solver", "StencilMap.eval_at")},
}


def _bound(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _riesz_nodes(count, fn, args, kwargs, split):
    # Node counts double from max(16, quad_points) up to the count used.
    n = max(16, int(_bound(fn, args, kwargs, "quad_points")))
    evaluated = n
    while n < split.quad_points:
        n = min(2 * n, split.quad_points)
        evaluated += n
    count("operators.quad_nodes", split.quad_points)
    count("operators.quad_evaluated", evaluated)


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


#: (module, callable) -> hook(count, fn, args, kwargs, result) reading work
#: counts from arguments and return values.
_HOOKS = {
    ("operators", "circle_sup_resolvent"): lambda c, fn, a, k, r: c(
        "operators.circle_sup_nodes", _bound(fn, a, k, "samples")
    ),
    ("operators", "riesz_split"): _riesz_nodes,
    ("resolvent", "ResolventPlan.__init__"): lambda c, fn, a, k, r: c(
        "resolvent.tail_cut", a[0].tail_cut
    ),
    ("manifold", "lp_fixed_point"): lambda c, fn, a, k, r: c("manifold.lp_iterations", r.iterations),
    ("solver", "solve_contraction"): lambda c, fn, a, k, r: c(
        "solver.contraction_iterations", r.iterations
    ),
    ("ztransform", "ztransform"): lambda c, fn, a, k, r: c("ztransform.samples", r.n_samples),
    ("ztransform", "inverse_ztransform"): lambda c, fn, a, k, r: c(
        "ztransform.samples", a[0].n_samples
    ),
    ("io", "dump_json"): lambda c, fn, a, k, r: c("io.bytes_out", len(r.encode("utf-8"))),
    ("io", "write_sequence_csv"): lambda c, fn, a, k, r: c("io.bytes_out", _file_size(a[1])),
    ("io", "write_circle_csv"): lambda c, fn, a, k, r: c("io.bytes_out", _file_size(a[1])),
    ("io", "load_json"): lambda c, fn, a, k, r: c("io.bytes_in", _file_size(a[0])),
    ("cli", "main"): lambda c, fn, a, k, r: c("cli.errors", 1 if r else 0),
}


class Tracer:
    """Installs and removes the wrappers; holds spans and counts."""

    def __init__(self):
        self.keys: list[tuple[str, str]] = []
        self.spans: list = []
        self.counts = defaultdict(float)
        self.pass_id = None
        self._stack: list[tuple[int, str]] = []
        self._function_wrappers: dict[int, tuple[object, object]] = {}
        self._method_patches: list[tuple[type, str, object, object]] = []
        self._installed: list[tuple[object, str, object]] = []
        self._last_error = None
        self._error_modules: set[str] = set()
        self._error_type = importlib.import_module("specseq.errors").SpecseqError
        for module in MODULES:
            self._collect(module, importlib.import_module(f"specseq.{module}"))

    def _collect(self, module, mod):
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                self._function_wrappers[id(obj)] = (obj, self._wrap(module, name, obj))
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if not inspect.isfunction(fn):
                        continue
                    if attr == "_eigendata":
                        wrapper = self._wrap_lazy(module, f"{name}.{attr}", fn)
                    elif (
                        not attr.startswith("_")
                        or attr in _OPERATORS
                        or (attr == "__init__" and name in _CONSTRUCTORS)
                    ):
                        wrapper = self._wrap(module, f"{name}.{attr}", fn)
                    else:
                        continue
                    self._method_patches.append((obj, attr, fn, wrapper))

    def _wrap(self, module, name, fn):
        key = len(self.keys)
        self.keys.append((module, name))
        hook = _HOOKS.get((module, name))
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(key, module, fn, hook, args, kwargs)

        return wrapper

    def _wrap_lazy(self, module, name, fn):
        # The eigen decomposition is computed once per operator and cached;
        # only the computing call gets a span.
        key = len(self.keys)
        self.keys.append((module, name))
        call = self._call

        @functools.wraps(fn)
        def wrapper(op):
            if getattr(op, "_eig", None) is not None:
                return fn(op)
            return call(key, module, fn, None, (op,), {})

        return wrapper

    def _call(self, key, module, fn, hook, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        stack.append((sid, module))
        t0 = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except self._error_type as exc:
            if exc is not self._last_error:
                self._last_error, self._error_modules = exc, set()
            if module not in self._error_modules:
                self._error_modules.add(module)
                self.count(f"{module}.errors", 1)
            raise
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            self.spans[sid] = (parent, key, t0, t1, self.pass_id)
        if hook is not None:
            hook(self.count, fn, args, kwargs, result)
        return result

    def count(self, metric, value):
        self.counts[(self.pass_id, metric)] += value

    def install(self):
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "specseq" or name.startswith("specseq.")):
                continue
            for attr, val in list(vars(mod).items()):
                entry = self._function_wrappers.get(id(val))
                if entry is not None and entry[0] is val:
                    setattr(mod, attr, entry[1])
                    self._installed.append((mod, attr, val))
        for cls, attr, fn, wrapper in self._method_patches:
            setattr(cls, attr, wrapper)
            self._installed.append((cls, attr, fn))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------

    def per_pass(self):
        """``{pass_id: {metric: value}}`` from the recorded spans and counts."""
        child_ns = [0] * len(self.spans)
        for parent, _key, t0, t1, _pid in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        inclusive = {key: metric for metric, keys in _INCLUSIVE_MS.items() for key in keys}
        calls = {key: metric for metric, keys in _CALL_COUNTS.items() for key in keys}
        out = defaultdict(lambda: defaultdict(float))
        for sid, (_parent, key, t0, t1, pid) in enumerate(self.spans):
            module_name = self.keys[key]
            module = module_name[0]
            dur = t1 - t0
            values = out[pid]
            values[f"{module}.self_ms"] += (dur - child_ns[sid]) / 1e6
            if module == "sequences":
                values["sequences.calls"] += 1
            if module_name in inclusive:
                values[inclusive[module_name]] += dur / 1e6
            if module_name in calls:
                values[calls[module_name]] += 1
        for (pid, metric), value in self.counts.items():
            out[pid][metric] += value
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,module,callable,start_ns,end_ns,round,d\n")
            for sid, (parent, key, t0, t1, pid) in enumerate(self.spans):
                module, name = self.keys[key]
                fh.write(f"{sid},{parent},{module},{name},{t0},{t1},{pid[0]},{pid[1]}\n")


def layer_metrics(per_pass, traced_rounds, count_rounds, overhead_ratio):
    """Per-round per-layer metrics.

    Times are medians over all traced rounds of the per-round sums.  Counts
    and ratios are per-round means over the first ``count_rounds`` traced
    rounds, whose inputs depend only on the seed, so they repeat exactly.
    """
    rounds = defaultdict(lambda: defaultdict(float))
    for (rnd, _d), values in per_pass.items():
        for metric, value in values.items():
            rounds[rnd][metric] += value
    head = traced_rounds[:count_rounds]
    out = {}
    for metric, unit in LAYER_METRICS.items():
        if unit == "ms":
            out[metric] = statistics.median(rounds[r][metric] for r in traced_rounds)
        elif unit != "ratio":
            out[metric] = sum(rounds[r][metric] for r in head) / len(head)
    evaluated = sum(rounds[r]["operators.quad_evaluated"] for r in head)
    used = sum(rounds[r]["operators.quad_nodes"] for r in head)
    out["operators.quad_useful_ratio"] = used / evaluated if evaluated else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    return out
