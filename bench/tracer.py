"""Aggregated spans around rcbij's public functions, for the traced run.

A wrapper is bound in place of the original object in every rcbij module
namespace that holds it, so calls made through ``from ... import`` names
are seen as well as calls through the defining module.  Wrappers sit
outside ``functools.lru_cache``, so a cache hit counts as a call (and
costs a span like any other call).

Spans are not stored one by one: a deep verify makes over a million
calls.  Each finished span adds to per-name totals, to a per-edge count
keyed by (parent span name, span name) and, for the span names in
``ANCESTORS``, to a count of the calls made anywhere below them.  A span's
self time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name, count the length of the result)
TARGETS = (
    ("rcbij.cartan", "kac_data", "cartan.kac_data", False),
    ("rcbij.cartan", "form2_matrix", "cartan.form2_matrix", False),
    ("rcbij.cartan", "simple_root_vectors", "cartan.simple_root_vectors", False),
    ("rcbij.cartan", "coroot_pairings", "cartan.coroot_pairings", False),
    ("rcbij.cartan", "is_dominant", "cartan.is_dominant", False),
    ("rcbij.cartan", "iota_image", "cartan.iota_image", False),
    ("rcbij.cartan", "dominant_weights", "cartan.dominant_weights", False),
    ("rcbij.qpoly", "qbinom", "qpoly.qbinom", False),
    ("rcbij.qpoly", "QPoly.__init__", "qpoly.QPoly.__init__", False),
    ("rcbij.qpoly", "QPoly.__add__", "qpoly.QPoly.__add__", False),
    ("rcbij.qpoly", "QPoly.__mul__", "qpoly.QPoly.__mul__", False),
    ("rcbij.qpoly", "QPoly.__eq__", "qpoly.QPoly.__eq__", False),
    ("rcbij.qpoly", "QPoly.__str__", "qpoly.QPoly.__str__", False),
    ("rcbij.crystal", "enumerate_highest", "crystal.enumerate_highest", True),
    ("rcbij.energy", "xbar", "energy.xbar", False),
    ("rcbij.energy", "dbar", "energy.dbar", False),
    ("rcbij.rc", "vacancy2", "rc.vacancy2", False),
    ("rcbij.rc", "validate_rc", "rc.validate_rc", False),
    ("rcbij.rc", "enumerate_rc", "rc.enumerate_rc", True),
    ("rcbij.rc", "rc_genfun", "rc.rc_genfun", False),
    ("rcbij.rc", "fermionic_m", "rc.fermionic_m", False),
    ("rcbij.rc", "cc2_total", "rc.cc2_total", False),
    ("rcbij.bijection", "delta", "bijection.delta", False),
    ("rcbij.bijection", "delta_inverse", "bijection.delta_inverse", False),
    ("rcbij.bijection", "phi", "bijection.phi", False),
    ("rcbij.bijection", "phi_inverse", "bijection.phi_inverse", False),
    ("rcbij.cli", "_verify_cell", "cli.verify_cell", False),
)


# span names whose nested calls are counted by name, at any depth below
ANCESTORS = ("bijection.delta_inverse",)


class Tracer:
    """Counts, inclusive and self seconds per span name, and edge counts."""

    def __init__(self):
        self.calls = Counter()
        self.returns = Counter()  # calls that returned rather than raised
        self.sizes = Counter()  # summed len() of results, where asked for
        self.edges = Counter()  # (parent name, name) -> calls
        self.below = Counter()  # (ancestor name, name) -> calls
        self._open = Counter()  # ancestor name -> spans of it now open
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self._stack = []  # [name, seconds spent in direct children]

    def wrap(self, name: str, fn, count_len: bool):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            for anc in ANCESTORS:
                if self._open[anc]:
                    self.below[anc, name] += 1
            if name in ANCESTORS:
                self._open[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if name in ANCESTORS:
                    self._open[name] -= 1
                if stack:
                    stack[-1][1] += dt
                self.calls[name] += 1
                self.edges[parent, name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - frame[1]
            self.returns[name] += 1
            if count_len:
                self.sizes[name] += len(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded rcbij module that binds it."""
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "rcbij" or k.startswith("rcbij."))
        ]
        for modname, attr, name, count_len in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, vars(cls)[meth], count_len))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, count_len)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def dump(self) -> dict:
        return {
            "calls": dict(self.calls),
            "returns": dict(self.returns),
            "sizes": dict(self.sizes),
            "edges": [[p, c, k] for (p, c), k in sorted(self.edges.items())],
            "below": [[a, c, k] for (a, c), k in sorted(self.below.items())],
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
        }
