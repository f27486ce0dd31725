"""Span tracer installed around the public functions of ``targetzone``.

The wrappers live here, not in the package: :meth:`Tracer.install` walks
every ``targetzone`` module and replaces each public function (the names
in the module's ``__all__``) plus ``RngStream.generator`` with a timing
wrapper.  Because ``from .x import y`` copies the binding, every module
attribute that holds the original function object is rebound, so calls
between modules go through the wrapper too.  A name a later version
removes is simply never wrapped and reports zero calls.

Each call records a span ``[name, start, end, parent]``; spans stay in
memory until :meth:`Tracer.metrics` derives the per-layer numbers.  A
layer is the module part of the span name, and a layer's self time is the
sum over its spans of the span's duration minus its child spans.  The
tracer keeps one call stack, so callers must be single-threaded
(``--threads 1``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "params",
    "mc",
    "stationary",
    "transient",
    "quadrature",
    "spectral",
    "roots",
    "specfun",
    "honeymoon",
    "cli",
)
METHODS = (("params", "RngStream", "generator"),)

# metric name -> qualified span name whose top-level inclusive time it reports
INCLUSIVE = {
    "params.rng_setup_s": "params.RngStream.generator",
    "mc.simulate_s": "mc.simulate",
    "mc.exchange_paths_s": "mc.exchange_paths",
    "mc.estimate_density_s": "mc.estimate_density",
    "mc.classify_shape_s": "mc.classify_shape",
    "stationary.solve_smooth_pasting_s": "stationary.solve_smooth_pasting",
    "stationary.eval_s": "stationary.eval_stationary",
    "transient.build_s": "transient.build_transient",
    "transient.fourier_coeffs_s": "transient.fourier_coeffs",
    "transient.eval_s": "transient.eval_transient",
    "transient.surface_s": "transient.surface",
    "quadrature.s": "quadrature.adaptive_gauss_legendre",
    "spectral.build_spectrum_s": "spectral.build_spectrum",
    "spectral.regime_scan_s": "spectral.regime_scan",
    "roots.bisect_newton_s": "roots.bisect_newton",
    "specfun.kummer_s": "specfun.kummer_1f1",
    "honeymoon.classify_s": "honeymoon.classify_honeymoon",
    "cli.run_command_s": "cli.run_command",
}
# metric name -> span name whose top-level calls it counts
CALLS = {
    "params.rng_streams": "params.RngStream.generator",
    "quadrature.calls": "quadrature.adaptive_gauss_legendre",
    "roots.calls": "roots.bisect_newton",
    "specfun.kummer_calls": "specfun.kummer_1f1",
}
# counts accumulated by the hooks below
HOOK_COUNTS = (
    "mc.path_steps",
    "mc.interventions",
    "mc.transient_columns",
    "stationary.eval_points",
    "transient.eval_points",
    "quadrature.points",
    "spectral.roots",
    "cli.out_bytes",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records spans and counts; collects solver results for health checks."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.collected: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._columns = 0

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every module of ``package``."""
        wrappers: dict[int, object] = {}
        for info in pkgutil.iter_modules(package.__path__):
            mod = importlib.import_module(f"{package.__name__}.{info.name}")
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(f"{info.name}.{name}", obj)
        prefix = package.__name__ + "."
        modules = [
            m for key, m in list(sys.modules.items())
            if key == package.__name__ or key.startswith(prefix)
        ]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth in METHODS:
            mod = sys.modules.get(f"{package.__name__}.{mod_name}")
            cls = getattr(mod, cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if inspect.isfunction(fn):
                self._saved.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{mod_name}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.collected.clear()
        self._columns = 0

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.split(".")[-1], None)
        after = getattr(self, "_after_" + name.split(".")[-1], None)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, span)
            return result

        return traced

    # -- hooks: counts made where the work happens -------------------------

    def _before_adaptive_gauss_legendre(self, args, kwargs):
        func = _arg(args, kwargs, 0, "func")
        counts = self.counts

        def counted(x):
            counts["quadrature.points"] += np.size(x)
            return func(x)

        if args:
            return (counted,) + tuple(args[1:]), kwargs
        return args, dict(kwargs, func=counted)

    def _after_simulate(self, args, kwargs, ens, span):
        n, cols = ens.fundamentals.shape
        self.counts["mc.path_steps"] += n * (cols - 1)
        self.counts["mc.interventions"] += ens.n_interventions

    def _after_exchange_paths(self, args, kwargs, result, span):
        self._columns += result.shape[1]

    def _after_eval_stationary(self, args, kwargs, result, span):
        self.counts["stationary.eval_points"] += np.size(_arg(args, kwargs, 1, "f"))

    def _after_eval_transient(self, args, kwargs, result, span):
        ts = _arg(args, kwargs, 0, "ts")
        f = _arg(args, kwargs, 2, "f")
        self.counts["transient.eval_points"] += np.size(f) * len(ts.coeffs)
        parent = span[3]
        if parent >= 0 and self.spans[parent][0] == "mc.exchange_paths":
            self.counts["mc.transient_columns"] += 1

    def _after_build_spectrum(self, args, kwargs, spec, span):
        self.counts["spectral.roots"] += len(spec.eigenvalues)
        self.collected["spectrum"].append(spec)

    def _after_solve_smooth_pasting(self, args, kwargs, sol, span):
        self.collected["stationary"].append(sol)

    def _after_build_transient(self, args, kwargs, ts, span):
        self.collected["transient"].append(ts)

    def _after_run_command(self, args, kwargs, path, span):
        self.counts["cli.out_bytes"] += os.path.getsize(path)

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers from the spans and counts recorded so far."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        by_name_self: dict[str, float] = defaultdict(float)
        top_s: dict[str, float] = defaultdict(float)
        top_calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(spans):
            own = end - start - child[i]
            layer = name.split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + own
            by_name_self[name] += own
            if not self._nested(i):
                top_s[name] += end - start
                top_calls[name] += 1
        out: dict[str, float] = {}
        for metric, span_name in INCLUSIVE.items():
            out[metric] = top_s.get(span_name, 0.0)
        for metric, span_name in CALLS.items():
            out[metric] = float(top_calls.get(span_name, 0))
        for metric in HOOK_COUNTS:
            out[metric] = float(self.counts.get(metric, 0.0))
        out["mc.simulate_self_s"] = by_name_self.get("mc.simulate", 0.0)
        out["mc.transient_column_ratio"] = (
            out["mc.transient_columns"] / self._columns if self._columns else 0.0
        )
        calls = out["quadrature.calls"]
        out["quadrature.points_per_call"] = out["quadrature.points"] / calls if calls else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out

    def _nested(self, i: int) -> bool:
        """True when span ``i`` runs inside another span of the same name."""
        name = self.spans[i][0]
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
