"""Harness-side tracing of psido's layers.

The tracer replaces module attributes that psido code resolves at call
time (``psido.calculus.compose``, ``psido.calculus.is_zero``,
``psido.expr.ev_cached``, ``psido.hamilton.solve_ivp``, ...) with wrappers
that record a span (name, start, end, parent) and a few counts.  No file of
the program changes.  Spans stay in memory until the run writes them out.

A layer's self time is its span's duration minus the time its child spans
cover; spans nest only within one thread, so the children of a span never
overlap and their durations simply add.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Span recorder; the wrappers record nothing while ``active`` is off."""

    def __init__(self):
        self.active = False
        self.spans = []         # [name, start, end, parent index]
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.label = ""         # input kind the harness is submitting
        self._stack = []
        self._patched = []

    def timed(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = _clock()
            self._stack.pop()

    def traced(self, name, fn):
        """fn() as a span ``name``, with the wrappers recording."""
        self.active = True
        try:
            return self.timed(name, fn)
        finally:
            self.active = False

    def current(self):
        """Index of the innermost open span."""
        return self._stack[-1] if self._stack else -1

    def count(self, key, by=1.0):
        self.counts[key] += by

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima[key], float(value))

    def adopt(self, spans, parent):
        """Append spans recorded by another process (the CLI child), with
        their roots placed under ``parent``.  perf_counter is the system
        wide monotonic clock on Linux, so the times are comparable."""
        base = len(self.spans)
        for name, t0, t1, par in spans:
            self.spans.append([name, t0, t1, parent if par < 0
                               else par + base])

    # -- patching ------------------------------------------------------------
    def wrap(self, module, attr, name, hook=None):
        """Replace ``module.attr`` by a recording wrapper.  ``name`` is the
        span name or a function of (args, kwargs) giving it; ``hook``
        (tracer, args, kwargs, result) records counts, inside a span of
        its own so its cost is not charged to the caller's self time."""
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            out = self.timed(label, orig, *args, **kwargs)
            self.count(label + ".calls")
            if hook is not None:
                self.timed("trace.hooks", hook, self, args, kwargs, out)
            return out

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, orig))

    def install(self):
        """Wrap the public entry points of every psido layer."""
        import psido.calculus as calculus
        import psido.cli as cli
        import psido.expr as ex
        import psido.hamilton as hamilton
        import psido.hodge as hodge
        import psido.parser as parser
        import psido.quantize as quantize
        import psido.symbols as symbols

        self.wrap(ex, "ev_cached", "expr.ev_cached", _count_points)
        self.wrap(ex, "evaluate", "expr.evaluate")
        # calculus and symbols each hold a binding of is_zero
        for mod in (symbols, calculus):
            self.wrap(mod, "is_zero", "symbols.is_zero", _count_useful)
        self.wrap(symbols, "check_homogeneity", "symbols.check_homogeneity")
        self.wrap(calculus, "compose", "calculus.compose")
        self.wrap(calculus, "is_elliptic", "calculus.is_elliptic")
        self.wrap(calculus, "parametrix", "calculus.parametrix", _count_dag)
        self.wrap(calculus, "sqrt_approx", "calculus.sqrt_approx", _count_dag)
        self.wrap(quantize, "op_apply",
                  lambda a, k: f"quantize.op_apply.{self.label or 'other'}",
                  _count_modes)
        self.wrap(quantize, "sobolev_norm", "quantize.sobolev_norm")
        self.wrap(quantize, "oscint_eval", _oscint_name)
        self.wrap(quantize, "circle_index", "quantize.circle_index")
        self.wrap(hamilton, "solve_ivp", "hamilton.solve_ivp", _count_ivp)
        self.wrap(hamilton, "flow", "hamilton.flow", _count_drift)
        self.wrap(hamilton, "propagate_wavefront",
                  "hamilton.propagate_wavefront")
        self.wrap(hodge, "hodge_decompose", "hodge.hodge_decompose")
        self.wrap(hodge, "complex_parametrix_check",
                  "hodge.complex_parametrix_check")
        # the CLI imports both parser entry points by name
        for mod in (parser, cli):
            self.wrap(mod, "parse_symbol_text", "parser.parse_symbol_text")
            self.wrap(mod, "parse_expr", "parser.parse_expr")

    def uninstall(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    # -- aggregation ---------------------------------------------------------
    def snapshot(self, first_span=0):
        """Self time per span name over spans[first_span:], plus the counts
        and maxima recorded so far, as one flat dict of metrics."""
        spans = self.spans[first_span:]
        out = defaultdict(float)
        for (name, t0, t1, _), c in zip(spans, _child_time(spans,
                                                           first_span)):
            out[name + ".s"] += (t1 - t0) - c
        out.update(self.counts)
        out.update(self.maxima)
        return dict(out)

    def reset_counts(self):
        self.counts.clear()
        self.maxima.clear()

    def breakdown(self, root):
        """Inclusive time of spans named ``root`` and how it splits into
        the self time of the spans below them, by name."""
        below = defaultdict(float)
        inclusive = 0.0
        child = _child_time(self.spans)
        # a span is under the root if one of its ancestors is a root span
        under = np.zeros(len(self.spans), dtype=bool)
        for i, (name, t0, t1, par) in enumerate(self.spans):
            if name == root and not (par >= 0 and under[par]):
                inclusive += t1 - t0
                under[i] = True
            elif par >= 0 and under[par]:
                under[i] = True
            if under[i]:
                below[name] += (t1 - t0) - child[i]
        return inclusive, dict(below)


def _child_time(spans, offset=0):
    """Time covered by each span's children; parents precede children, and
    parent indices count from ``offset``."""
    child = np.zeros(len(spans))
    for name, t0, t1, par in spans:
        if par >= offset:
            child[par - offset] += t1 - t0
    return child


# -- hooks: counts recorded at the layer boundary ---------------------------

def _count_points(tr, args, kwargs, out):
    x = args[1]
    tr.count("expr.ev_cached.points", x.shape[1] if x.ndim == 2 else 1)


def _count_useful(tr, args, kwargs, out):
    # a zero test is useful when it finds a level that still needs killing
    tr.count("symbols.is_zero.useful", 0.0 if out else 1.0)


def dag_nodes(exprs):
    """Distinct node objects reachable from ``exprs``."""
    seen = set()
    stack = list(exprs)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for attr in ("terms", "factors"):
            stack.extend(getattr(node, attr, ()))
        for attr in ("num", "den", "base", "arg"):
            sub = getattr(node, attr, None)
            if sub is not None:
                stack.append(sub)
    return len(seen)


def _count_dag(tr, args, kwargs, out):
    for t in out.terms:
        tr.peak("expr.dag_nodes_max", dag_nodes([t.expr]))
    tr.count("expr.dag_nodes_total", dag_nodes([t.expr for t in out.terms]))


def _count_modes(tr, args, kwargs, out):
    tr.count("quantize.op_apply.calls")
    spec = np.abs(np.fft.fftn(args[1].values))
    mx = float(spec.max())
    if mx > 0.0:
        tr.count("quantize.op_apply.active_modes",
                 int(np.count_nonzero(spec > 1e-12 * mx)))


def _oscint_name(args, kwargs):
    method = kwargs.get("method", args[2] if len(args) > 2 else "both")
    return "quantize.oscint." + {"epsilon-cutoff": "epsilon"}.get(method,
                                                                  method)


def _count_ivp(tr, args, kwargs, sol):
    tr.count("hamilton.rhs_evals", sol.nfev)
    tr.count("hamilton.steps", len(sol.t) - 1)


def _count_drift(tr, args, kwargs, curve):
    tr.peak("hamilton.drift_max", curve.conservation_drift())
