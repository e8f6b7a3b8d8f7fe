"""Spans around slepkit's public functions, recorded by the benchmark itself.

``Tracer.install`` replaces every public function of every slepkit module at
each module attribute that is bound to it (so ``slepkit.fredholm.nystrom_eigs``
and ``slepkit.planeslep.nystrom_eigs`` both go through one wrapper).  It also
wraps three scipy functions the library calls through their modules, and
charges what they do to the innermost open span: ``scipy.sparse.linalg.eigsh``
(matvecs of the operator gridprojector hands to it, and ``ncv``),
``scipy.special.jv`` (Bessel values returned) and ``scipy.linalg.eigh``
(eigenpairs returned).  ``Tracer.uninstall`` puts every original back.  Spans
are kept in memory while ``problem`` is set and are written out by the caller.

Counts are computed from argument and result array sizes, not timed.
"""

import inspect
import math
import os
import statistics
import sys
import time
import types

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
import scipy.special

MODULES = ("geometry", "quadrature", "kernels", "specialfn", "fredholm", "diskanalytic",
           "planeslep", "gridprojector", "pswf1d", "cli")

NAME, START, END, PARENT, PROBLEM, COUNTS = range(6)

# (owner, attribute, count key, amount(result)) of the scipy calls counted in spans
COUNTED_CALLS = (
    (scipy.special, "jv", "jv_evals", lambda out: int(np.size(out))),
    (scipy.linalg, "eigh", "eigh_pairs",
     lambda out: int(np.size(out[0] if isinstance(out, tuple) else out))),
)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, problem id, counts]
        self.problem = None      # spans are recorded only while this is set
        self._stack = []
        self._saved = []         # (owner, attribute, original)

    # ------------------------------------------------------------ install

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod in _slepkit_modules():
            for attr, obj in list(vars(mod).items()):
                if not _is_public_function(obj):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        self._saved.append((scipy.sparse.linalg, "eigsh", scipy.sparse.linalg.eigsh))
        scipy.sparse.linalg.eigsh = self._counting_eigsh(scipy.sparse.linalg.eigsh)
        for owner, attr, key, amount in COUNTED_CALLS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._counting(fn, key, amount))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # ------------------------------------------------------------ wrappers

    def _wrap(self, fn):
        name = f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"
        hook = COUNT_HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            if self.problem is None:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.problem, {}]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                self._stack.pop()
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[COUNTS].update(hook(bound.arguments, out))
            return out

        traced.__wrapped__ = fn
        traced.perfbench_span = name
        return traced

    def _counting_eigsh(self, eigsh):
        def counting(a, *args, **kwargs):
            if self.problem is None or not self._stack:
                return eigsh(a, *args, **kwargs)
            counts = self.spans[self._stack[-1]][COUNTS]
            counts["ncv"] = counts.get("ncv", 0) + int(kwargs.get("ncv") or 0)
            counts.setdefault("matvecs", 0)
            op = scipy.sparse.linalg.aslinearoperator(a)

            def matvec(v):
                counts["matvecs"] += 1
                return op.matvec(v)

            wrapped = scipy.sparse.linalg.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
            return eigsh(wrapped, *args, **kwargs)

        counting.__wrapped__ = eigsh
        counting.perfbench_span = "scipy.eigsh"
        return counting

    def _counting(self, fn, key, amount):
        def counting(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.problem is not None and self._stack:
                counts = self.spans[self._stack[-1]][COUNTS]
                counts[key] = counts.get(key, 0) + amount(out)
            return out

        counting.__wrapped__ = fn
        counting.perfbench_span = f"scipy.{fn.__name__}"
        return counting


def _slepkit_modules():
    return [sys.modules["slepkit"]] + [sys.modules[f"slepkit.{m}"] for m in MODULES]


def _is_public_function(obj):
    return (isinstance(obj, types.FunctionType) and obj.__module__.startswith("slepkit.")
            and not obj.__name__.startswith("_"))


def traced_bindings():
    """(owner, attribute) pairs currently bound to a tracing wrapper."""
    found = [(mod.__name__, attr) for mod in _slepkit_modules()
             for attr, obj in vars(mod).items() if hasattr(obj, "perfbench_span")]
    for owner, attr in [(scipy.sparse.linalg, "eigsh")] + [c[:2] for c in COUNTED_CALLS]:
        if hasattr(getattr(owner, attr), "perfbench_span"):
            found.append((owner.__name__, attr))
    return found


# ---------------------------------------------------------------- counts

def _points(pts):
    return int(np.size(pts) // 2)


def _broadcast_pairs(x, xp):
    shape = np.broadcast_shapes(np.shape(x)[:-1], np.shape(xp)[:-1])
    return int(math.prod(shape))


def _rule_size(rule):
    weights = rule.weights if hasattr(rule, "weights") else rule[1]
    return int(np.size(weights))


def _file_bytes(path, *suffixes):
    return sum(os.path.getsize(str(path) + s) for s in ("",) + suffixes)


def tree_bytes(path):
    """Total size of the regular files under `path`."""
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, names in os.walk(path) for f in names)


def _cli_bytes(a, out):
    argv = list(a["argv"] or [])
    if "--out" not in argv:
        return {"bytes_written": 0}
    return {"bytes_written": tree_bytes(argv[argv.index("--out") + 1])}


COUNT_HOOKS = {
    "geometry.contains_many": lambda a, out: {"points": _points(a["points"])},
    "quadrature.region_quadrature": lambda a, out: {"nodes": int(np.size(out.weights))},
    "kernels.disk_kernel": lambda a, out: {"entries": _broadcast_pairs(a["x"], a["xp"])},
    "specialfn.bessel_j1_over_x": lambda a, out: {"evals": int(np.size(a["x"]))},
    "fredholm.nystrom_eigs": lambda a, out: {"order": _rule_size(a["rule"]),
                                             "kept": int(np.size(out.eigenvalues))},
    "fredholm.nystrom_extend": lambda a, out: {
        "points": int(np.size(a["x"]) // max(1, np.ndim(a["solution"].nodes)))},
    # branches whose lambda is the quadrature value rather than the closed form
    "diskanalytic.fixed_order_solution": lambda a, out: {"lam_quad_used": sum(
        1 for b in out.branches if b.lam == b.lam_quad != b.lam_formula)},
    "diskanalytic.evaluate_disk_entry": lambda a, out: {"points": _points(a["points"])},
    "planeslep.evaluate_g": lambda a, out: {"points": a["grid"].nx * a["grid"].ny},
    "planeslep.write_grid": lambda a, out: {"bytes": _file_bytes(a["path"], ".hdr")},
    "planeslep.write_grid_text": lambda a, out: {"bytes": _file_bytes(a["path"])},
    "gridprojector.build_problem": lambda a, out: {
        "cells": out.grid.nx * out.grid.ny, "support_cells": int(out.spatial_mask.sum())},
    "cli.main": _cli_bytes,
}


# ---------------------------------------------------------------- metrics

def _self_times(spans):
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def _sum_count(spans, name, key):
    return sum(r[COUNTS].get(key, 0) for r in spans if r[NAME] == name)


def _ratio(num, den):
    return num / den if den else 0.0


def _count(name, key):
    return lambda spans, self_s, parents: _sum_count(spans, name, key)


def _self(name):
    return lambda spans, self_s, parents: sum(s for r, s in zip(spans, self_s) if r[NAME] == name)


def _calls(name):
    return lambda spans, self_s, parents: sum(1 for r in spans if r[NAME] == name)


def _children(spans, parents, name, parent_name):
    """(span, parent) pairs of the `name` spans opened directly under a `parent_name` span."""
    return [(r, p) for r, p in zip(spans, parents)
            if r[NAME] == name and p is not None and p[NAME] == parent_name]


FIXED_ORDER = "diskanalytic.fixed_order_solution"


def _l_max_grows(spans, self_s, parents):
    # every coefficient solve after the first one of an order is a retry with a larger l_max
    per_order = {}
    for _, p in _children(spans, parents, "diskanalytic.coeff_tridiagonal", FIXED_ORDER):
        per_order[id(p)] = per_order.get(id(p), 0) + 1
    return sum(n - 1 for n in per_order.values())


def _kept_ratio(spans, self_s, parents):
    return _ratio(_sum_count(spans, "fredholm.nystrom_eigs", "kept"),
                  _sum_count(spans, "fredholm.nystrom_eigs", "eigh_pairs"))


def _lam_quad_used_ratio(spans, self_s, parents):
    computed = sum(r[COUNTS].get("eigh_pairs", 0)
                   for r, _ in _children(spans, parents, "fredholm.nystrom_eigs", FIXED_ORDER))
    return _ratio(_sum_count(spans, FIXED_ORDER, "lam_quad_used"), computed)


# (metric, unit, better, extractor(spans of one pass, their self times, their parent spans))
PER_LAYER = [
    ("geometry.contains_many.points", "count", "lower", _count("geometry.contains_many", "points")),
    ("geometry.contains_many.self_s", "s", "lower", _self("geometry.contains_many")),
    ("quadrature.region_quadrature.nodes", "count", "lower",
     _count("quadrature.region_quadrature", "nodes")),
    ("quadrature.region_quadrature.self_s", "s", "lower", _self("quadrature.region_quadrature")),
    ("kernels.disk_kernel.entries", "count", "lower", _count("kernels.disk_kernel", "entries")),
    ("kernels.disk_kernel.self_s", "s", "lower", _self("kernels.disk_kernel")),
    ("specialfn.bessel_j1_over_x.evals", "count", "lower",
     _count("specialfn.bessel_j1_over_x", "evals")),
    ("specialfn.bessel_j1_over_x.self_s", "s", "lower", _self("specialfn.bessel_j1_over_x")),
    ("kernels.fixedm_kernel.bessel_evals", "count", "lower",
     _count("kernels.fixedm_kernel", "jv_evals")),
    ("kernels.fixedm_kernel.self_s", "s", "lower", _self("kernels.fixedm_kernel")),
    ("fredholm.nystrom_eigs.calls", "count", "lower", _calls("fredholm.nystrom_eigs")),
    ("fredholm.nystrom_eigs.order_max", "count", "lower",
     lambda spans, self_s, parents: max([r[COUNTS].get("order", 0) for r in spans
                                         if r[NAME] == "fredholm.nystrom_eigs"] or [0])),
    ("fredholm.nystrom_eigs.self_s", "s", "lower", _self("fredholm.nystrom_eigs")),
    ("fredholm.nystrom_eigs.kept_ratio", "ratio", "higher",
     _kept_ratio),
    ("fredholm.nystrom_extend.points", "count", "lower", _count("fredholm.nystrom_extend", "points")),
    ("fredholm.nystrom_extend.self_s", "s", "lower", _self("fredholm.nystrom_extend")),
    ("diskanalytic.fixed_order_solution.calls", "count", "lower",
     _calls("diskanalytic.fixed_order_solution")),
    ("diskanalytic.fixed_order_solution.self_s", "s", "lower",
     _self("diskanalytic.fixed_order_solution")),
    ("diskanalytic.coeff_tridiagonal.self_s", "s", "lower", _self("diskanalytic.coeff_tridiagonal")),
    ("diskanalytic.l_max_grows", "count", "lower", _l_max_grows),
    ("diskanalytic.lam_quad_used_ratio", "ratio", "higher", _lam_quad_used_ratio),
    ("diskanalytic.evaluate_disk_entry.points", "count", "lower",
     _count("diskanalytic.evaluate_disk_entry", "points")),
    ("diskanalytic.phi_space.self_s", "s", "lower", _self("diskanalytic.phi_space")),
    ("diskanalytic.phi_bessel.self_s", "s", "lower", _self("diskanalytic.phi_bessel")),
    ("planeslep.solve_region_disk.self_s", "s", "lower", _self("planeslep.solve_region_disk")),
    ("planeslep.evaluate_g.points", "count", "lower", _count("planeslep.evaluate_g", "points")),
    ("planeslep.evaluate_g.self_s", "s", "lower", _self("planeslep.evaluate_g")),
    ("planeslep.evaluate_h.self_s", "s", "lower", _self("planeslep.evaluate_h")),
    ("planeslep.weighted_sumsq.self_s", "s", "lower", _self("planeslep.weighted_sumsq")),
    ("planeslep.periodogram.self_s", "s", "lower", _self("planeslep.periodogram")),
    ("planeslep.write_grid.bytes", "bytes", "lower", _count("planeslep.write_grid", "bytes")),
    ("planeslep.write_grid.self_s", "s", "lower", _self("planeslep.write_grid")),
    ("planeslep.write_grid_text.bytes", "bytes", "lower",
     _count("planeslep.write_grid_text", "bytes")),
    ("planeslep.write_grid_text.self_s", "s", "lower", _self("planeslep.write_grid_text")),
    ("gridprojector.build_problem.cells", "count", "lower",
     _count("gridprojector.build_problem", "cells")),
    ("gridprojector.build_problem.support_cells", "count", "lower",
     _count("gridprojector.build_problem", "support_cells")),
    ("gridprojector.build_problem.self_s", "s", "lower", _self("gridprojector.build_problem")),
    ("gridprojector.solve.matvecs", "count", "lower", _count("gridprojector.solve", "matvecs")),
    ("gridprojector.solve.ncv", "count", "lower", _count("gridprojector.solve", "ncv")),
    ("gridprojector.solve.self_s", "s", "lower", _self("gridprojector.solve")),
    ("gridprojector.weighted_periodogram_sum.self_s", "s", "lower",
     _self("gridprojector.weighted_periodogram_sum")),
    ("pswf1d.solve_1d.self_s", "s", "lower", _self("pswf1d.solve_1d")),
    ("pswf1d.dpss.self_s", "s", "lower", _self("pswf1d.dpss")),
    ("cli.main.self_s", "s", "lower", _self("cli.main")),
    ("cli.bytes_written", "bytes", "lower", _count("cli.main", "bytes_written")),
]
OVERHEAD = ("trace.overhead_s", "s", "lower", None)


def per_layer(spans, traced_walls, untraced_walls):
    """Counts from the first traced pass, times as medians over traced passes,
    and tracing overhead as median traced minus median untraced pass wall time.
    Also returns whether every count repeated exactly across traced passes."""
    by_pass = {}
    for rec, s in zip(spans, _self_times(spans)):
        recs, selfs, parents = by_pass.setdefault(rec[PROBLEM][0], ([], [], []))
        recs.append(rec)
        selfs.append(s)
        parents.append(spans[rec[PARENT]] if rec[PARENT] >= 0 else None)
    passes = [{name: extract(*by_pass[p]) for name, _, _, extract in PER_LAYER}
              for p in sorted(by_pass)]
    out, repeated = {}, True
    for name, unit, _, _ in PER_LAYER:
        values = [p[name] for p in passes]
        if unit == "s":
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            repeated &= all(v == values[0] for v in values)
    out[OVERHEAD[0]] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return out, repeated
