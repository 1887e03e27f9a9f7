"""In-memory span tracer for the hyperapprox package, kept outside the library.

`Tracer` wraps every public function of the package's modules (the names in
each module's `__all__`) at every place the function object is bound, so a
call through `from .sets_metrics import fiber_profile` in `forward` is traced
as well as a call through `sets_metrics.fiber_profile`.  Three methods are
patched on their classes: `Multigraph.graph_points`,
`Polynomial.evaluate_many` and `Pseudopolynomial.coefficients_at`.

Each call records a span `[name, start, end, parent]` in memory; a few
functions also feed counters from their arguments and results (Lawson
iterations, root-solver rows, Hausdorff pair counts).  Leaving the `with`
block restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("algebra", "roots", "sets_metrics", "chebyshev", "forward", "converse",
           "extremal", "demos", "cli")
METHODS = (
    ("sets_metrics", "Multigraph", "graph_points"),
    ("algebra", "Polynomial", "evaluate_many"),
    ("algebra", "Pseudopolynomial", "coefficients_at"),
)
# the library answers a Hausdorff query by brute force up to this many point
# pairs and by a k-d tree above it (sets_metrics._BRUTE_PAIR_LIMIT when this
# benchmark was written); the ratio is computed from input sizes
BRUTE_PAIR_LIMIT = 4_000_000
LAWSON_CAP = 200

PACKAGE = "hyperapprox"
_MARK = "__bench_traced__"


def _points(obj) -> np.ndarray:
    """(N, m) points of a SampledCompact or of an array."""
    return np.atleast_2d(np.asarray(obj.points if hasattr(obj, "points") else obj))


def _best_approx(c, args, kwargs, result):
    d = args[2]
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "minimax")
    n_pts, m = _points(args[1]).shape
    dim = math.comb(int(d) + m, m)
    c["lstsq_calls"] += result.iterations
    c["rank_sum"] += result.rank
    c["dim_sum"] += dim
    c["lstsq_flops"] += result.iterations * n_pts * dim * dim
    if mode == "minimax":
        c["minimax_solves"] += 1
        c["lawson_iterations"] += result.iterations
        c["lawson_cap_hits"] += int(result.iterations >= LAWSON_CAP)


def _solve_monic_batch(c, args, kwargs, result):
    _roots, _res, iters, tol_used, converged = result
    tol = args[1] if len(args) > 1 else kwargs.get("tol", 1e-12)
    c["dk_rows"] += int(iters.shape[0])
    c["dk_iters"] += int(iters.sum())
    c["dk_relaxed"] += int(np.count_nonzero(tol_used > tol))
    c["dk_converged"] += int(np.count_nonzero(converged))


def _fiber_profile(c, args, kwargs, result):
    c["fibers"] += int(result.shape[0])


def _hausdorff(c, args, kwargs, result):
    pairs = _points(args[0]).shape[0] * _points(args[1]).shape[0]
    c["hausdorff_pairs"] += pairs
    c["hausdorff_kdtree"] += int(pairs > BRUTE_PAIR_LIMIT)


HOOKS = {
    "chebyshev.best_approx": _best_approx,
    "roots.solve_monic_batch": _solve_monic_batch,
    "sets_metrics.fiber_profile": _fiber_profile,
    "sets_metrics.hausdorff": _hausdorff,
}


class Tracer:
    """Context manager that records spans for every public library call.

    `capture` names spans whose most recent return value is kept in
    `captured` (the checks read the experiment objects from there).
    """

    def __init__(self, capture=()):
        self.capture = set(capture)
        self.spans: list = []
        self.counters: defaultdict = defaultdict(int)
        self.captured: dict = {}
        self._stack: list = []
        self._patched: list = []

    def reset(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack.clear()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        keep = name in self.capture
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            if keep:
                self.captured[name] = result
            return result

        setattr(traced, _MARK, True)
        return traced

    def __enter__(self):
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        originals = {}
        for short, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (f"{short}.{attr}", obj)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        # every module of the package that binds one of the originals
        bound_in = [importlib.import_module(PACKAGE), *modules.values()]
        for mod in bound_in:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][1] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{short}.{meth}", original))
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False


def self_times(spans) -> list:
    """Per-span self time: duration minus the time covered by direct children.

    Children of one span never overlap (the library is single-threaded), so
    the covered time is the sum of the children's durations.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def installed_wrappers() -> list:
    """Names of traced wrappers still bound anywhere in the package."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, obj in vars(mod).items():
            if getattr(obj, _MARK, False):
                found.append(f"{mod_name}.{attr}")
            elif inspect.isclass(obj):
                found.extend(f"{mod_name}.{attr}.{k}" for k, v in vars(obj).items()
                             if getattr(v, _MARK, False))
    return found


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# per-layer metrics of one traced pass: (name, unit, source); a source is a
# span statistic (span name, "calls" | "self_s") or a function of the pass
_SPAN_METRICS = (
    ("chebyshev.best_approx", ("calls", "self_s")),
    ("roots.solve_monic_batch", ("calls", "self_s")),
    ("roots.match_roots", ("calls", "self_s")),
    ("roots.hoelder_check", ("self_s",)),
    ("sets_metrics.fiber_profile", ("calls", "self_s")),
    ("sets_metrics.hausdorff", ("calls", "self_s")),
    ("sets_metrics.graph_points", ("self_s",)),
    ("sets_metrics.fit_geometric_rate", ("self_s",)),
    ("sets_metrics.kuratowski_check", ("self_s",)),
    ("algebra.coefficients_at", ("self_s",)),
    ("algebra.evaluate_many", ("calls", "self_s")),
    ("algebra.vieta_from_roots", ("calls", "self_s")),
    ("forward.forward_rate_experiment", ("self_s",)),
    ("forward.sample_multigraph", ("calls", "self_s")),
    ("converse.converse_experiment", ("self_s",)),
    ("converse.reconstruct_coefficients", ("self_s",)),
    ("converse.detect_covering_number", ("self_s",)),
    ("extremal.continuity_probe", ("calls", "self_s")),
    ("demos.counterexample_rates", ("self_s",)),
    ("demos.fiberwise_constant_probe", ("calls", "self_s")),
    ("demos.closure_failure_demo", ("self_s",)),
    ("cli.run", ("self_s",)),
)
# metric names shorten a few span names
_RENAME = {"algebra.vieta_from_roots": "algebra.vieta"}

_DERIVED = (
    ("chebyshev.lstsq_calls", "count", lambda c, k: c["lstsq_calls"]),
    ("chebyshev.lawson_cap_ratio", "ratio",
     lambda c, k: _ratio(c["lawson_cap_hits"], c["minimax_solves"])),
    ("chebyshev.rank_ratio", "ratio", lambda c, k: _ratio(c["rank_sum"], c["dim_sum"])),
    ("chebyshev.lstsq_flops_computed", "flop", lambda c, k: c["lstsq_flops"]),
    ("roots.solve_monic_batch.rows", "count", lambda c, k: c["dk_rows"]),
    ("roots.dk_iters_mean", "iter", lambda c, k: _ratio(c["dk_iters"], c["dk_rows"])),
    ("roots.relaxed_ratio", "ratio", lambda c, k: _ratio(c["dk_relaxed"], c["dk_rows"])),
    ("roots.converged_ratio", "ratio", lambda c, k: _ratio(c["dk_converged"], c["dk_rows"])),
    ("roots.solves_per_check", "ratio",
     lambda c, k: _ratio(k["solves_in_check"], k["calls"]["roots.hoelder_check"])),
    ("sets_metrics.fiber_profile.fibers", "count", lambda c, k: c["fibers"]),
    ("sets_metrics.hausdorff.pairs", "count", lambda c, k: c["hausdorff_pairs"]),
    ("sets_metrics.hausdorff.kdtree_ratio", "ratio",
     lambda c, k: _ratio(c["hausdorff_kdtree"], k["calls"]["sets_metrics.hausdorff"])),
    ("cli.results_bytes", "B", lambda c, k: c["results_bytes"]),
)


def layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, stats in _SPAN_METRICS:
        base = _RENAME.get(span, span)
        for stat in stats:
            units[f"{base}.{stat}"] = "count" if stat == "calls" else "s"
    for name, unit, _ in _DERIVED:
        units[name] = unit
    return units


def layer_metrics(spans, counters) -> dict:
    """Per-layer metrics of one traced pass."""
    calls = Counter()
    own = defaultdict(float)
    for span, st in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        own[span[0]] += st
    solves_in_check = 0
    for span in spans:
        if span[0] != "roots.solve_monic_batch":
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != "roots.hoelder_check":
            parent = spans[parent][3]
        solves_in_check += parent >= 0
    out = {}
    for span, stats in _SPAN_METRICS:
        base = _RENAME.get(span, span)
        for stat in stats:
            out[f"{base}.{stat}"] = calls[span] if stat == "calls" else own[span]
    ctx = {"calls": calls, "solves_in_check": solves_in_check}
    for name, _unit, fn in _DERIVED:
        out[name] = fn(counters, ctx)
    return out
