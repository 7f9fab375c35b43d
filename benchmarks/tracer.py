"""Outside-in tracer: spans around the public names stieltjes modules share.

The library is not edited.  While a :class:`Tracer` is active, each traced
function is replaced by a wrapper in *every* loaded ``stieltjes`` module
namespace that holds it -- the defining module, the package and each
consumer that imported the name (``core``, ``validate``, ``quad``,
``alteta``, ``cli``) -- so calls between modules pass through a span.
Leaving the ``with`` block puts every original object back.

Spans are aggregated as they close: per span name the call count, the
inclusive time and the self time (inclusive minus the time of child
spans), plus the inclusive time per (parent, child) pair.  The quadrature
wrapper also counts integrals, evaluations and unconverged results, and
wraps the integrand so that integrand calls (one per refinement level for
vectorised integrands) and integrand time are measured.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

import numpy as np

ROUTES = ("hasse", "coffey", "bell", "brede", "limit")


def _public_functions(module_name: str) -> list:
    module = importlib.import_module(module_name)
    return [
        name
        for name in module.__all__
        if callable(getattr(module, name)) and not isinstance(getattr(module, name), type)
    ]


def _targets() -> dict:
    """{defining module: {function name: span name}}."""
    targets = {
        "stieltjes.core": {
            "gamma_hasse": "route.hasse",
            "gamma_coffey": "route.coffey",
            "gamma_bell_family": "route.bell",
            "gamma_brede": "route.brede",
            "gamma_limit": "route.limit",
        },
        "stieltjes.quad": {
            "integrate_semiaxis": "quad.engine",
            "integrate_finite": "quad.engine",
            "binet_bracket": "kernel.binet",
            "binet_bracket_over_v": "kernel.binet",
        },
        "stieltjes.validate": {"run_suite": "validate.run_suite"},
    }
    for module in ("bellpoly", "specfun", "alteta"):
        name = f"stieltjes.{module}"
        targets[name] = {fn: module for fn in _public_functions(name)}
    return targets


class Tracer:
    """Context manager that wraps, aggregates and restores."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.edge_ns = defaultdict(int)
        self.integrals = 0
        self.evaluations = 0
        self.unconverged = 0
        self.binet_elements = 0
        self._stack = []
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter_ns(), 0])

    def _leave(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter_ns() - start
        self.calls[name] += 1
        self.incl_ns[name] += duration
        self.self_ns[name] += duration - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            self.edge_ns[(parent[0], name)] += duration

    @contextmanager
    def span(self, name: str):
        """A span around a block of the caller's own (e.g. ``cli.main``)."""
        self._enter(name)
        try:
            yield
        finally:
            self._leave()

    # -- wrappers ------------------------------------------------------------

    def _plain(self, fn, name):
        enter, leave = self._enter, self._leave

        @wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return wrapper

    def _kernel(self, fn, name):
        enter, leave = self._enter, self._leave

        @wraps(fn)
        def wrapper(v, *args, **kwargs):
            self.binet_elements += int(np.size(v))
            enter(name)
            try:
                return fn(v, *args, **kwargs)
            finally:
                leave()

        return wrapper

    def _engine(self, fn, name):
        enter, leave = self._enter, self._leave
        integrand = self._plain

        @wraps(fn)
        def wrapper(f, *args, **kwargs):
            traced_f = integrand(f, "quad.integrand")
            enter(name)
            try:
                result = fn(traced_f, *args, **kwargs)
            finally:
                leave()
                self.integrals += 1
            self.evaluations += result.evaluations
            self.unconverged += not result.converged
            return result

        return wrapper

    def __enter__(self):
        makers = {"quad.engine": self._engine, "kernel.binet": self._kernel}
        namespaces = [m for k, m in sys.modules.items() if k == "stieltjes" or k.startswith("stieltjes.")]
        try:
            for module_name, names in _targets().items():
                module = sys.modules[module_name]
                for fn_name, span_name in names.items():
                    original = getattr(module, fn_name)
                    wrapper = makers.get(span_name, self._plain)(original, span_name)
                    for namespace in namespaces:
                        for attr, value in list(vars(namespace).items()):
                            if value is original:
                                setattr(namespace, attr, wrapper)
                                self._patched.append((namespace, attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()

    def restore(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    # -- per-layer table -----------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer figures per pass of the workload (see README.md)."""

        def per_pass_s(ns):
            return ns / 1e9 / passes

        integrals = self.integrals
        metrics = {
            "core.hasse_head_s": per_pass_s(self.self_ns["route.hasse"]),
            "core.hasse_tail_s": per_pass_s(self.edge_ns[("route.hasse", "quad.engine")]),
            "core.bell_assembly_s": per_pass_s(self.self_ns["route.bell"]),
        }
        for route in ROUTES:
            metrics[f"core.route_s.{route}"] = per_pass_s(self.incl_ns[f"route.{route}"])
            metrics[f"core.route_calls.{route}"] = self.calls[f"route.{route}"] / passes
        metrics.update(
            {
                "quad.integrals": integrals / passes,
                "quad.evaluations": self.evaluations / passes,
                "quad.evals_per_integral": self.evaluations / integrals if integrals else 0.0,
                "quad.levels_per_integral": self.calls["quad.integrand"] / integrals if integrals else 0.0,
                "quad.unconverged": self.unconverged / passes,
                "quad.engine_self_s": per_pass_s(self.self_ns["quad.engine"]),
                "quad.integrand_s": per_pass_s(self.self_ns["quad.integrand"]),
                "quad.ns_per_eval": self.incl_ns["quad.engine"] / self.evaluations if self.evaluations else 0.0,
                "kernel.binet_calls": self.calls["kernel.binet"] / passes,
                "kernel.binet_elements": self.binet_elements / passes,
                "kernel.binet_s": per_pass_s(self.incl_ns["kernel.binet"]),
                "bellpoly.s": per_pass_s(self.self_ns["bellpoly"]),
                "bellpoly.calls": self.calls["bellpoly"] / passes,
                "specfun.s": per_pass_s(self.self_ns["specfun"]),
                "specfun.calls": self.calls["specfun"] / passes,
                "alteta.s": per_pass_s(self.self_ns["alteta"]),
                "cli.self_s": per_pass_s(self.self_ns["cli.main"]),
            }
        )
        return metrics

