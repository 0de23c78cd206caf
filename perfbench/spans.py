"""Span recorder for the traced run.

``Recorder.install`` replaces each listed public function of the program by
a wrapper, from outside: every module attribute and class attribute bound to
the original object is rebound, so names copied by ``from .exact import ...``
and operator aliases such as ``__rmul__ = __mul__`` are wrapped too.  No file
of the program changes.

A span is (name, parent span, start, end).  Spans stay in memory in flat
arrays until ``summary`` turns them into per-function calls, inclusive time
and self time (duration minus the time covered by child spans), plus the
counters the benchmark reports.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# layer (module) -> public functions; "Class.op" names an operator method
TARGETS = {
    "cli": ("main",),
    "surfaces": (
        "thm1_point", "thm2_point", "thm2_parametrize", "gaussian_point",
        "fifth_power_solution", "mixed_point", "mixed_special_maps",
        "symmetric_gaussian_point", "symmetric_rational_point",
    ),
    "quintic": ("residual", "classify", "residual_symbolic", "scale_to_integers"),
    "poly": (
        "MultiPoly.substitute", "RationalFunction.substitute", "MultiPoly.mul",
        "MultiPoly.pow",
    ),
    "quadform": (
        "normalize", "represents_zero", "find_zero", "ternary_solvable",
        "ternary_base_solution", "question3_family",
    ),
    "elliptic": (
        "add", "mul", "on_curve", "is_nontorsion", "verify_row", "load_table",
        "integral_model", "search_points", "conjecture2_search",
    ),
    "exact": (
        "rational_square_root", "factor_trial", "squarefree_decompose",
        "GaussianRational.mul", "GaussianRational.add",
    ),
}
_OPERATORS = {"mul": "__mul__", "add": "__add__", "pow": "__pow__"}
CACHED = ("surfaces.thm2_parametrize", "surfaces.mixed_special_maps")

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# per-layer metrics beyond calls / time_s / self_s: name -> (unit, better)
COUNTERS = {
    "elliptic.search_points.survivors": ("count/op", "lower"),
    "elliptic.search_points.hit_ratio": ("ratio", "higher"),
    "elliptic.conjecture2_search.t_tried": ("count/op", "lower"),
    "quadform.find_zero.cells": ("computed/op", "lower"),
    "quadform.find_zero.hit_ratio": ("ratio", "higher"),
    "poly.MultiPoly.mul.terms_out": ("count/op", "lower"),
    "surfaces.thm2_parametrize.cache_hit_ratio": ("ratio", "higher"),
    "surfaces.mixed_special_maps.cache_hit_ratio": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in NAMES:
        out.append((f"{name}.calls", "count/op", "lower"))
        out.append((f"{name}.time_s", "s/op", "lower"))
        out.append((f"{name}.self_s", "s/op", "lower"))
    out.extend((name, unit, better) for name, (unit, better) in COUNTERS.items())
    return out


def _resolve(package: str, name: str):
    module_name, _, attr = name.partition(".")
    module = sys.modules[f"{package}.{module_name}"]
    if "." in attr:
        cls_name, op = attr.split(".")
        owner = getattr(module, cls_name)
        return owner, owner.__dict__[_OPERATORS.get(op, op)]
    return module, getattr(module, attr)


class Recorder:
    """Wraps the target functions and keeps their spans in memory."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 unless an enclosing span has the same name
        self.stack = [-1]
        self.active = [0] * len(NAMES)
        self.points_found = 0
        self.zero_calls = 0
        self.zero_hits = 0
        self.cells = 0
        self.terms_out = 0
        self.originals: dict[str, object] = {}

    # -- installation ------------------------------------------------------

    def install(self, package: str = "quinticpoints") -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.startswith(package + ".")]
        for nid, name in enumerate(NAMES):
            owner, original = _resolve(package, name)
            self.originals[name] = original
            wrapper = self._wrap(original, nid, self._hook(name))
            if isinstance(owner, type):
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)
            else:
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _hook(self, name: str):
        if name == "elliptic.search_points":
            def hook(args, kwargs, result):
                self.points_found += len(result)
        elif name == "quadform.find_zero":
            def hook(args, kwargs, result):
                bound = args[1] if len(args) > 1 else kwargs["search_bound"]
                self.zero_calls += 1
                self.zero_hits += result is not None
                self.cells += (2 * bound + 1) ** 3
        elif name == "poly.MultiPoly.mul":
            def hook(args, kwargs, result):
                if result is not NotImplemented:
                    self.terms_out += len(result.terms)
        else:
            hook = None
        return hook

    def _wrap(self, fn, nid: int, hook):
        names, parents, starts, ends, outer = (
            self.name, self.parent, self.start, self.end, self.outer,
        )
        stack, active = self.stack, self.active

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            outer.append(active[nid] == 0)
            ends.append(0.0)
            active[nid] += 1
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
                active[nid] -= 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    # -- results -------------------------------------------------------------

    def span_arrays(self) -> dict[str, bytes]:
        return {
            "name": self.name.tobytes(),
            "parent": self.parent.tobytes(),
            "start": self.start.tobytes(),
            "end": self.end.tobytes(),
        }

    def summary(self) -> dict:
        """Per-op totals: calls, inclusive and self time per function, and
        the raw counter values (sums, for the runner to aggregate)."""
        n_names = len(NAMES)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - covered
        calls = np.bincount(name, minlength=n_names)
        inclusive = np.bincount(name[outer], weights=dur[outer], minlength=n_names)
        self_sum = np.bincount(name, weights=self_time, minlength=n_names)
        parent_name = np.full(len(name), -1, dtype=np.int32)
        parent_name[has_parent] = name[parent[has_parent]]
        idx = {n: i for i, n in enumerate(NAMES)}
        survivors = int(np.count_nonzero(
            (name == idx["exact.rational_square_root"])
            & (parent_name == idx["elliptic.search_points"])
        ))
        t_tried = int(np.count_nonzero(
            (name == idx["elliptic.search_points"])
            & (parent_name == idx["elliptic.conjecture2_search"])
        ))
        counts = {
            "survivors": survivors,
            "points_found": self.points_found,
            "t_tried": t_tried,
            "zero_calls": self.zero_calls,
            "zero_hits": self.zero_hits,
            "cells": self.cells,
            "terms_out": self.terms_out,
            "spans": len(name),
        }
        for cached in CACHED:
            info = self.originals[cached].cache_info()
            counts[f"{cached}.hits"] = info.hits
            counts[f"{cached}.misses"] = info.misses
        return {
            "calls": calls.tolist(),
            "time_s": inclusive.tolist(),
            "self_s": self_sum.tolist(),
            "counts": counts,
        }
