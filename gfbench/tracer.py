"""Per-layer spans and counts, installed from outside the package.

After ``import gasketflow`` the tracer replaces each target function at
every module binding that holds it.  ``cli`` and ``verify`` import
``evolve``, ``build_level`` and the other targets by name, so patching
only the defining module would silently miss their calls.

A span is ``(name, start, end, parent, maxrss_kb)``.  Spans stay in memory
and are reduced once, by :meth:`Tracer.summary`, when the traced operation
has finished.  A span's self time is its duration minus the time covered by
its direct children.  The tracer assumes one thread, which holds because the
benchmark leaves ``GASKETFLOW_THREADS`` unset.

A target that a refactor deleted or renamed is listed in ``missing`` and
does not stop the run.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import Counter

#: functions that get a span, by module of ``gasketflow``
SPANNED = {
    "gasket": ("build_level",),
    "measure": ("vertex_measure",),
    "energy": ("stiffness_matrix", "harmonic_extend", "harmonic_function"),
    "robin": ("perturbed_energy",),
    "flow": ("evolve", "poisson_solve"),
    "verify": ("run_suite",),
    "cli": ("main",),
}

#: methods that are only counted: a span per call would cost more than
#: the call itself
COUNTED = {"robin": ("BoundaryFunctional.prox",)}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _operator_key(form, measure, tau):
    """Identity of the implicit operator: (graph, measure, tau)."""
    graph = form.graph
    return (graph.n, graph.level, hash(measure.masses.tobytes()), tau)


class Tracer:
    def __init__(self, package: str = "gasketflow"):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_residual = 0.0
        self.operators: set = set()
        self.missing: list[str] = []
        self._build_level = None
        self._misses_at_install = 0

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == self.package or name.startswith(self.package + "."))
        ]

    def install(self) -> None:
        modules = self._modules()
        for layer, names in SPANNED.items():
            defining = sys.modules.get(f"{self.package}.{layer}")
            for name in names:
                original = getattr(defining, name, None)
                if original is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._spanned(f"{layer}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                if (layer, name) == ("gasket", "build_level"):
                    self._build_level = original
                    info = getattr(original, "cache_info", None)
                    self._misses_at_install = info().misses if info else 0
        for layer, names in COUNTED.items():
            defining = sys.modules.get(f"{self.package}.{layer}")
            for dotted in names:
                owner_name, _, method = dotted.partition(".")
                owner = getattr(defining, owner_name, None)
                original = getattr(owner, method, None)
                if original is None:
                    self.missing.append(f"{layer}.{dotted}")
                    continue
                setattr(owner, method, self._counted(f"{layer}.{method}", original))

    def _spanned(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else None, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                span[4] = _maxrss_kb()
            self._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name, args, kwargs, result) -> None:
        """Work counts read from what the flow layer returns."""
        try:
            if name == "flow.evolve":
                config = _arg(args, kwargs, 4, "config")
                self.operators.add(
                    _operator_key(
                        _arg(args, kwargs, 0, "form"),
                        _arg(args, kwargs, 1, "measure"),
                        config.tau,
                    )
                )
                diags = result.diagnostics
                self.counts["flow.steps"] += len(diags)
                self.counts["flow.inner_iters"] += sum(d.iterations for d in diags)
                residuals = [d.residual for d in diags]
            elif name == "flow.poisson_solve":
                self.operators.add(
                    _operator_key(
                        _arg(args, kwargs, 0, "form"),
                        _arg(args, kwargs, 1, "measure"),
                        None,
                    )
                )
                report = result[1]
                self.counts["flow.steps"] += 1
                self.counts["flow.inner_iters"] += report.iterations
                residuals = [report.kkt_residual]
            else:
                return
        except (AttributeError, IndexError, TypeError):
            # a refactored signature loses the counts, not the run
            self.counts["trace.unobserved"] += 1
            return
        if residuals:
            self.max_residual = max(self.max_residual, max(residuals))

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Self time, calls and peak RSS per span name, plus the counts."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        maxrss_kb: dict[str, int] = {}
        top_level_s = 0.0
        min_self_s = float("inf")
        for (name, start, end, parent, rss), cover in zip(self.spans, covered):
            own = (end - start) - cover
            min_self_s = min(min_self_s, own)
            self_s[name] += own
            calls[name] += 1
            maxrss_kb[name] = max(maxrss_kb.get(name, 0), rss)
            if parent is None:
                top_level_s += end - start
        counts = dict(self.counts)
        if self._build_level is not None:
            info = getattr(self._build_level, "cache_info", None)
            counts["gasket.build_level.misses"] = (
                info().misses - self._misses_at_install
                if info
                else calls["gasket.build_level"]
            )
        stiffness_calls = calls["energy.stiffness_matrix"]
        counts["flow.factorizations_per_operator"] = (
            stiffness_calls / len(self.operators) if self.operators else 0.0
        )
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "maxrss_kb": maxrss_kb,
            "counts": counts,
            "max_residual": self.max_residual,
            "top_level_s": top_level_s,
            "min_self_s": min_self_s if self.spans else 0.0,
            "spans": len(self.spans),
            "missing": sorted(self.missing),
        }
