"""Per-layer tracing for the deflap benchmark.

A :class:`Tracer` wraps the public functions of each deflap module (the
layers: scalar, trees, diagonalize, recurrence, shearer, limits,
properties) and the ``PROPERTY_CHECKS`` registry entries. Every binding
site inside the package is replaced, so calls one module makes into
another are seen too. Each wrapped call records a span (name, start,
end, parent span, op id) in memory; Scalar arithmetic and comparisons
are only counted, since one span per bigfloat operation would cost more
than the operation. ``uninstall`` puts the originals back.

``layer_metrics`` reduces the spans to the per-layer metrics of
BENCHMARK.json. Self time is a span's duration minus the time covered by
its direct children.
"""

import json
import os
import statistics
import sys
import time
import timeit

import deflap
from deflap import properties, trees
from deflap.scalar import Scalar

# Scalar methods counted by scalar.calls: arithmetic and comparisons
SCALAR_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__abs__", "__pow__",
    "sqrt", "cbrt", "halved",
    "__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__", "sign",
)

# module-level public functions on the workloads' paths that get a span,
# by layer
SPANNED = {
    "scalar": ("bisect_monotone_root",),
    "trees": ("caterpillar_to_tree", "dense_adjacency"),
    "diagonalize": ("approximate_radius", "count_eigenvalues", "diagonalize_tree"),
    "recurrence": ("recurrence_params",),
    "shearer": ("generate", "epsilon_k", "beta_sequence"),
    "limits": ("s_star", "tau0", "convergence_margin", "tau0_quartic_residual"),
    "properties": ("sweep",),
}

# calls that build a Tree; nested builds (delete_leaf calls from_edges)
# count once, at the outermost one
BUILDS = ("trees.from_edges", "trees.delete_leaf", "trees.caterpillar_to_tree")


def _extra(name, args, result):
    """The size or outcome a span keeps, for the counters below."""
    if name == "diagonalize.diagonalize_tree":
        return args[0].n
    if name == "diagonalize.approximate_radius":
        return (result.iterations, result.early_breaks)
    if name == "shearer.generate":
        return result.generation_digits
    if name in BUILDS:
        return result.n
    if name == "properties.sweep":
        return len(result.reports) // max(1, len(args[0]))
    if name.startswith("properties.check."):
        return result.applicable
    return None


class Tracer:
    """Spans and counters for the calls made while it is installed."""

    def __init__(self):
        # one span: [name, start, end, parent index, op id, extra]
        self.spans = []
        self.scalar_calls = 0
        self.op = None
        self._stack = []
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            rec[5] = _extra(name, args, result)
            return result

        return wrapper

    def _counted(self, fn):
        def wrapper(*args):
            self.scalar_calls += 1
            return fn(*args)

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, orig, wrapper):
        # every module of the package that holds orig gets the wrapper
        for name, mod in sorted(sys.modules.items()):
            if mod is not None and (name == "deflap" or name.startswith("deflap.")):
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, attr, wrapper)

    def install(self):
        for layer, names in SPANNED.items():
            home = sys.modules["deflap." + layer]
            for fname in names:
                orig = getattr(home, fname)
                self._rebind(orig, self._spanned("%s.%s" % (layer, fname), orig))
        # free_trees is a generator: the span covers the whole enumeration
        gen = trees.free_trees
        listed = self._spanned("trees.free_trees", lambda n: list(gen(n)))
        self._rebind(gen, lambda n: iter(listed(n)))
        from_edges = trees.Tree.__dict__["from_edges"].__func__
        self._set(trees.Tree, "from_edges",
                  classmethod(self._spanned("trees.from_edges", from_edges)))
        delete_leaf = trees.Tree.__dict__["delete_leaf"]
        self._set(trees.Tree, "delete_leaf", self._spanned("trees.delete_leaf", delete_leaf))
        eig = trees.DenseMatrix.__dict__["eigenvalues"]
        self._set(trees.DenseMatrix, "eigenvalues", self._spanned("trees.dense_eig", eig))
        for meth in SCALAR_METHODS:
            self._set(Scalar, meth, self._counted(Scalar.__dict__[meth]))
        is_zero = Scalar.__dict__["is_zero"]
        self._set(Scalar, "is_zero", property(self._counted(is_zero.fget)))
        for pid, fn in list(properties.PROPERTY_CHECKS.items()):
            self._undo.append((properties.PROPERTY_CHECKS, pid, fn))
            properties.PROPERTY_CHECKS[pid] = self._spanned("properties.check." + pid, fn)

    def uninstall(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = val
            else:
                setattr(owner, attr, val)

    # -- output --------------------------------------------------------------

    def write(self, path):
        """Write the spans as JSON lines: id, name, start, end, parent, op."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op, _) in enumerate(self.spans):
                fh.write(json.dumps([i, name, t0, t1, parent, op]) + "\n")

    def layer_metrics(self):
        """Per-layer counts and times (seconds) from the recorded spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        by_name = {}
        self_s = dict.fromkeys(SPANNED, 0.0)
        for i, (name, t0, t1, parent, op, extra) in enumerate(spans):
            by_name.setdefault(name, []).append((t1 - t0, extra, op, parent))
            self_s[name.split(".")[0]] += (t1 - t0) - child_time[i]

        def calls(name):
            return len(by_name.get(name, ()))

        def total(name):
            return sum(d for d, _, _, _ in by_name.get(name, ()))

        def extras(name):
            return [e for _, e, _, _ in by_name.get(name, ()) if e is not None]

        def outermost_build(i):
            parent = spans[i][3]
            while parent is not None:
                if spans[parent][0] in BUILDS or spans[parent][0] == "trees.free_trees":
                    return False
                parent = spans[parent][3]
            return True

        builds = [i for i, rec in enumerate(spans) if rec[0] in BUILDS and outermost_build(i)]
        radius = extras("diagonalize.approximate_radius")
        iterations = sum(it for it, _ in radius)
        probes = sum(it + 2 for it, _ in radius)
        flagship = [e for _, e, op, _ in by_name.get("diagonalize.approximate_radius", ())
                    if op == "flagship" and e is not None]
        checks = [e for name, recs in by_name.items() if name.startswith("properties.check.")
                  for _, e, _, _ in recs]
        m = {
            "scalar.calls": self.scalar_calls,
            "trees.build_calls": len(builds),
            "trees.build_s": sum(spans[i][2] - spans[i][1] for i in builds),
            "trees.vertices_built": sum(spans[i][5] or 0 for i in builds),
            "trees.enumerate_s": total("trees.free_trees"),
            "trees.dense_eig_calls": calls("trees.dense_eig"),
            "trees.dense_eig_s": total("trees.dense_eig"),
            "diagonalize.count_calls": calls("diagonalize.count_eigenvalues"),
            "diagonalize.count_s": total("diagonalize.count_eigenvalues"),
            "diagonalize.vertices_swept": sum(extras("diagonalize.diagonalize_tree")),
            "diagonalize.radius_calls": calls("diagonalize.approximate_radius"),
            "diagonalize.radius_s": total("diagonalize.approximate_radius"),
            "diagonalize.probes": probes,
            "diagonalize.probes_per_radius": probes / len(radius) if radius else 0.0,
            "diagonalize.early_break_ratio":
                sum(eb for _, eb in radius) / iterations if iterations else 0.0,
            "diagonalize.flagship_probes": sum(it + 2 for it, _ in flagship),
            "recurrence.params_calls": calls("recurrence.recurrence_params"),
            "recurrence.params_s": total("recurrence.recurrence_params"),
            "shearer.generate_calls": calls("shearer.generate"),
            "shearer.generate_s": total("shearer.generate"),
            "shearer.generation_digits_max": max(extras("shearer.generate"), default=0),
            "shearer.epsilon_calls": calls("shearer.epsilon_k"),
            "shearer.epsilon_s": total("shearer.epsilon_k"),
            "shearer.beta_calls": calls("shearer.beta_sequence"),
            "shearer.beta_s": total("shearer.beta_sequence"),
            "limits.s_star_calls": calls("limits.s_star"),
            "limits.s_star_s": total("limits.s_star"),
            "limits.tau0_calls": calls("limits.tau0"),
            "limits.tau0_s": total("limits.tau0"),
            "properties.cells": sum(extras("properties.sweep")),
            "properties.applicable_ratio":
                sum(1 for e in checks if e) / len(checks) if checks else 0.0,
        }
        for pid in deflap.PROPERTY_IDS:
            m["properties.check_s." + pid] = total("properties.check." + pid)
        for layer in ("trees", "diagonalize", "recurrence", "shearer", "limits", "properties"):
            m[layer + ".self_s"] = self_s[layer]
        m["trace.spans"] = len(spans)
        return m


def scalar_microbench(number=20000, repeat=7):
    """Median ns per Scalar add, mul and div at 50 and 250 digits.

    The operands are full-mantissa values (sqrt 2 and sqrt 3), like the
    pivots in the middle of a sweep.
    """
    out = {}
    for digits in (50, 250):
        ctx = deflap.PrecisionContext(digits)
        names = {"x": ctx.scalar(2).sqrt(), "y": ctx.scalar(3).sqrt()}
        for op, stmt in (("add", "x + y"), ("mul", "x * y"), ("div", "x / y")):
            runs = timeit.repeat(stmt, globals=names, number=number, repeat=repeat)
            out["scalar.%s_ns.d%d" % (op, digits)] = statistics.median(runs) / number * 1e9
    return out
