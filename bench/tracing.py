"""Outside-in spans around the public functions of each ``wflow`` layer.

Wrappers are installed at every name a caller looks up (for example both
``wflow.operators.resolvent`` and ``wflow.flows.resolvent``), so calls made
inside the library are seen as well as the benchmark's own.  They are
installed only around traced jobs, so untraced runs and the output checks
call the library directly.  Spans are aggregated in memory: calls, busy time
(outermost span of a name only), self time (span minus its child spans), the
longest span, and how often a span was a direct child of another.
"""

from __future__ import annotations

import functools
import math
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stats = {}
        self.child_calls = {}
        self.counters = {}
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def _record(self, name, dur, child_time):
        stack = self._stack
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "max_s": 0.0}
        st["calls"] += 1
        st["self_s"] += dur - child_time
        if dur > st["max_s"]:
            st["max_s"] = dur
        if not any(frame[0] == name for frame in stack):
            st["busy_s"] += dur
        if stack:
            parent = stack[-1]
            parent[1] += dur
            key = (parent[0], name)
            self.child_calls[key] = self.child_calls.get(key, 0) + 1

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, fn, namer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = namer(args, kwargs)
            frame = [name, 0.0]
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                tracer._stack.pop()
                tracer._record(name, dur, frame[1])

        return wrapper

    # -- installation ----------------------------------------------------

    def install_function(self, original, namer):
        """Replace ``original`` under every name a loaded ``wflow`` module binds it to."""
        wrapper = self._wrap(original, namer)
        found = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "wflow" or mod_name.startswith("wflow.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))
                    found += 1
        if not found:
            raise RuntimeError(f"no caller binds {original.__qualname__}; cannot trace it")

    def install_method(self, cls, attr, namer):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(original, namer))
        self._patches.append((cls, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries -------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, {}).get("calls", 0)

    def value(self, name, field):
        return self.stats.get(name, {}).get(field, 0.0)


def _static(name):
    return lambda args, kwargs: name


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


SMALL_TRANSPORT = 16


def install_layers(tracer, wf):
    """Wrap the public entry points of every layer; ``wf`` holds the imported modules."""

    def w2_name(args, kwargs):
        mu, nu = _arg(args, kwargs, 0, "mu"), _arg(args, kwargs, 1, "nu")
        n = math.lcm(mu.denominator, nu.denominator)
        if n <= SMALL_TRANSPORT:
            return "transport.w2_exact.small"
        tracer.count("transport.w2_exact.large.particles", n)
        return "transport.w2_exact.large"

    def iota_name(args, kwargs):
        eps = _arg(args, kwargs, 1, "merge_eps")
        return "measures.iota_project.merge" if eps > 0.0 else "measures.iota_project.exact"

    tracer.install_function(wf.transport.w2_exact, w2_name)
    tracer.install_function(wf.transport.w_infinity, _static("transport.w_infinity"))
    tracer.install_function(wf.transport.geodesic_decompose, _static("transport.geodesic_decompose"))
    tracer.install_function(wf.measures.iota_project, iota_name)
    tracer.install_method(wf.fields.VelocityField, "evaluate_batch", _static("fields.evaluate_batch"))
    tracer.install_function(
        wf.fields.total_dissipativity_check, _static("fields.total_dissipativity_check")
    )
    tracer.install_function(wf.operators.resolvent, _static("operators.resolvent"))
    tracer.install_method(wf.operators.LagrangianOperator, "apply", _static("operators.apply"))
    for name in ("evolve", "jko_step", "evi_residual", "contraction_check", "mean_field_study"):
        tracer.install_function(getattr(wf.flows, name), _static(f"flows.{name}"))
    tracer.install_function(wf.cli.main, _static("cli.main"))
