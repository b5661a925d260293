"""Outside-in tracing of the hopf2d layers.

The tracer wraps the public functions and methods of the layer modules
(grids, coalgebra, linops, uqsu2, rmatrix, peps, cli) from outside the
package: every module attribute and class attribute that is bound to an
original function is replaced by a wrapper while a traced pass runs, so a
function imported by name into another module (``from .linops import
evaluate``) is traced at that binding too.  Nothing under ``src/`` changes.

Each call records a span (id, name, start, end, parent span, self time) in
memory; spans of one pass share the pass id.  Self time is the span's
duration minus the time covered by its child spans.  A few counters are read
from call arguments and results at the same boundaries.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time

LAYERS = ("grids", "coalgebra", "linops", "uqsu2", "rmatrix", "peps", "cli")

# Classes whose methods are traced, by module.  Word-level data classes
# (Symbol, GridShape, GridWord, Alphabet), report records (CheckInstance,
# CheckReport, BoundarySolveResult) and PEPS data classes stay untraced: their
# cost is part of the caller's self time, which keeps report writing inside
# the cli layer and keeps the wrapper out of the per-cell hot loops.
TRACED_METHODS = {
    "grids": {"FormalSum": ("__init__", "__add__", "__sub__", "__mul__", "items",
                            "__iter__", "map_words", "to_json")},
    "coalgebra": {"Splitter": ("__call__",), "CounitRule": ("__call__",),
                  "MultiplicationRule": ("__call__",), "AntipodeRule": ("__call__",),
                  "CoalgebraExample": ("samples",)},
    "linops": {"SparseOperator": ("__init__", "__add__", "__sub__", "__mul__", "__matmul__",
                                  "entries", "toarray", "max_abs", "write_matrix_market")},
}

# Public module functions left untraced: per-cell or per-entry leaves called
# in inner loops, whose time stays with the caller.
UNTRACED_FUNCTIONS = {"grids.site_index", "grids.word1", "uqsu2.singlet_amplitude"}

SPAN_FIELDS = ("pass", "span", "parent", "name", "start", "end", "self")
KEPT_PASSES = 1


def _sized_terms(args):
    """FormalSum(shape, terms) with a terms iterator turned into a list, so
    the counter can take its length without consuming it."""
    if len(args) > 2 and args[2] is not None and not hasattr(args[2], "__len__"):
        return args[:2] + (list(args[2]),) + args[3:]
    return args


class Tracer:
    """Span recorder with install/uninstall of the wrappers around one pass."""

    def __init__(self, modules):
        self.modules = modules          # layer name -> module object
        self.kept = []                  # [(pass id, spans)] of the first traced passes
        self._pass_id = None
        self._stack = []
        self._spans = None
        self._counts = None
        self._next_id = 0
        self._patches = self._plan()

    # -- wrapping ---------------------------------------------------------

    def _targets(self):
        """(span name, original function) for every traced function."""
        out = []
        for layer in LAYERS:
            mod = self.modules[layer]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or f"{layer}.{attr}" in UNTRACED_FUNCTIONS):
                    continue
                out.append((f"{layer}.{attr}", obj))
            for cls_name, methods in TRACED_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    out.append((f"{layer}.{cls_name}.{meth}", cls.__dict__[meth]))
        return out

    def _plan(self):
        """Every (owner, attribute, original, wrapper) binding to patch.

        Aliases such as ``FormalSum.__rmul__ = __mul__`` are found by identity
        and share the wrapper of the name they alias.
        """
        wrappers = {}
        for name, fn in self._targets():
            if id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        owners = [m for n, m in sys.modules.items()
                  if m is not None and (n == "hopf2d" or n.startswith("hopf2d."))]
        for layer in LAYERS:
            mod = self.modules[layer]
            owners += [c for c in vars(mod).values()
                       if inspect.isclass(c) and c.__module__ == mod.__name__]
        patches = []
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((owner, attr, obj, hit[1]))
        return patches

    def install(self, pass_id):
        self._pass_id = pass_id
        self._spans, self._counts = [], {}
        self._stack = [[-1, 0.0]]
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        """Restore the originals; return the pass's (spans, counters).

        Spans of the first ``KEPT_PASSES`` traced passes stay in memory
        until :meth:`write`; later passes are only aggregated, which bounds
        the memory a long traced run holds.
        """
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        spans, counts = self._spans, self._counts
        if len(self.kept) < KEPT_PASSES:
            self.kept.append((self._pass_id, spans))
        self._spans = self._counts = None
        return spans, counts

    def bindings(self):
        return len(self._patches)

    def span(self, name):
        """Context manager recording a benchmark-side span (pass or job)."""
        return _Span(self, name)

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, 0.0])
        return sid

    def _close(self, sid, name, start, end):
        frame = self._stack.pop()
        parent = self._stack[-1]
        dur = end - start
        parent[1] += dur
        self._spans.append((sid, parent[0], name, start, end, dur - frame[1]))

    def count(self, key, amount=1):
        self._counts[key] = self._counts.get(key, 0) + amount

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        prepare = _sized_terms if name == "grids.FormalSum.__init__" else None
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            sid = tracer._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                tracer._close(sid, name, start, end)
                tracer.count(f"{name}!{type(exc).__name__}")
                raise
            end = clock()
            tracer._close(sid, name, start, end)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    # -- output -----------------------------------------------------------

    def write(self, path):
        """Write the kept spans as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for pass_id, spans in self.kept:
                for sid, parent, name, start, end, self_s in spans:
                    rec = (pass_id, sid, None if parent < 0 else parent, name,
                           start, end, self_s)
                    fh.write(json.dumps(dict(zip(SPAN_FIELDS, rec))) + "\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.sid = self.tracer._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.name, self.start, time.perf_counter())


# -- counters read at the boundaries -----------------------------------------


def _sum_built(tracer, args, kwargs, result):
    terms = args[2] if len(args) > 2 else kwargs.get("terms")
    tracer.count("grids.terms_built", len(terms) if terms else 0)
    size = len(args[0])
    tracer.count("grids.terms_kept", size)
    if size >= 32:
        tracer.count("grids.big_sums")


def _grown(tracer, args, kwargs, result):
    tracer.count("coalgebra.terms_out", len(result))


def _evaluated(tracer, args, kwargs, result):
    s = args[0]
    tracer.count("linops.krons", len(s) * (s.shape.sites - 1))
    tracer.count("linops.op_nnz", result.nnz)
    tracer._counts["linops.op_dim_max"] = max(tracer._counts.get("linops.op_dim_max", 0),
                                              result.dim)


def _exported(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("linops.export_bytes", os.path.getsize(path))


def _contracted(tracer, args, kwargs, result):
    tracer.count("peps.contract_terms", len(result))


def _solved(tracer, args, kwargs, result):
    targets = args[1] if len(args) > 1 else kwargs["targets"]
    sizes = args[2] if len(args) > 2 else kwargs.get("sizes")
    tracer.count("peps.solve_rows", sum(len(targets[s]) for s in (sizes or targets)))
    tracer._counts["peps.solve_residual"] = max(tracer._counts.get("peps.solve_residual", 0.0),
                                                result.residual)


_HOOKS = {
    "grids.FormalSum.__init__": _sum_built,
    "coalgebra.grow": _grown,
    "linops.evaluate": _evaluated,
    "linops.write_matrix_market": _exported,
    "peps.contract": _contracted,
    "peps.solve_boundary": _solved,
}


# -- per-layer metrics --------------------------------------------------------

# Self-time metrics: span names summed; a trailing "*" matches a name prefix.
SELF_TIME = {
    "grids.sum_build_s": ("grids.FormalSum.__init__",),
    "grids.compare_s": ("grids.sums_equal", "grids.sum_difference"),
    "coalgebra.grow_s": ("coalgebra.grow",),
    "coalgebra.check_s": ("coalgebra.check_*", "coalgebra.cube_xyz_compat"),
    "linops.evaluate_s": ("linops.evaluate",),
    "linops.export_s": ("linops.write_matrix_market", "linops.read_matrix_market",
                        "linops.SparseOperator.write_matrix_market",
                        "linops.SparseOperator.entries"),
    "uqsu2.placement_s": ("uqsu2.direct_boxplus_op",),
    "uqsu2.check_s": ("uqsu2.check_*", "uqsu2.singlet_pair_checks",
                      "uqsu2.vertical_singlet_residual", "uqsu2.kernel_2x2"),
    "rmatrix.self_s": ("rmatrix.*",),
    "peps.contract_s": ("peps.contract",),
    "peps.solve_s": ("peps.solve_boundary",),
    "cli.self_s": ("cli.*",),
}

# Count metrics: calls of the named spans, or counters read at the boundary.
SPAN_COUNTS = {
    "grids.sum_builds": ("grids.FormalSum.__init__",),
    "grids.add_calls": ("grids.FormalSum.__add__",),
    "grids.items_calls": ("grids.FormalSum.items",),
    "coalgebra.grow_steps": ("coalgebra.grow",),
    "coalgebra.splitter_calls": ("coalgebra.Splitter.__call__",),
    "linops.evaluate_calls": ("linops.evaluate",),
    "linops.matmuls": ("linops.SparseOperator.__matmul__",),
    "uqsu2.ops_built": ("uqsu2.boxplus_op",),
    "peps.contract_calls": ("peps.contract",),
}
COUNTERS = {
    "grids.terms_built": ("grids.terms_built",),
    "coalgebra.terms_out": ("coalgebra.terms_out",),
    "coalgebra.domain_errors": ("coalgebra.Splitter.__call__!DomainError",
                                "coalgebra.CounitRule.__call__!DomainError"),
    "linops.krons": ("linops.krons",),
    "linops.op_dim_max": ("linops.op_dim_max",),
    "linops.op_nnz": ("linops.op_nnz",),
    "linops.export_bytes": ("linops.export_bytes",),
    "peps.contract_terms": ("peps.contract_terms",),
    "peps.solve_rows": ("peps.solve_rows",),
}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(name, "s", "lower") for name in SELF_TIME]
    + [(f"{layer}.share", "1", "lower") for layer in LAYERS]
    + [("untraced_share", "1", "lower")]
    + [(name, "count", "lower") for name in (*SPAN_COUNTS, *COUNTERS)]
    + [("grids.terms_per_sum", "terms", "lower"),
       ("grids.big_sum_share", "1", "lower"),
       ("peps.solve_residual", "1", "lower"),
       ("traced_pass_s", "s", "lower"),
       ("untraced_pass_s", "s", "lower"),
       ("trace_overhead", "1", "lower")]
)
# Metrics read from the first traced pass: counts repeat exactly for a seed.
FIRST_PASS = set(SPAN_COUNTS) | set(COUNTERS) | {"grids.terms_per_sum",
                                                  "grids.big_sum_share"}


def _matches(name, patterns):
    return any(name == p or (p.endswith("*") and name.startswith(p[:-1]))
               for p in patterns)


def pass_metrics(spans, counts):
    """Per-layer metrics of one traced pass from its spans and counters.

    Shares are taken of the summed job spans; the benchmark's own time
    inside them (instance constructors, closures) is ``untraced_share``.
    """
    self_by_name, calls = {}, {}
    pass_s = 0.0
    for _, parent, name, start, end, self_s in spans:
        self_by_name[name] = self_by_name.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        if name.startswith("bench.job."):
            pass_s += end - start
    out = {}
    for metric, patterns in SELF_TIME.items():
        out[metric] = sum(v for n, v in self_by_name.items() if _matches(n, patterns))
    for layer in (*LAYERS, "bench"):
        layer_s = sum(v for n, v in self_by_name.items() if n.startswith(layer + "."))
        key = "untraced_share" if layer == "bench" else f"{layer}.share"
        out[key] = layer_s / pass_s
    for metric, names in SPAN_COUNTS.items():
        out[metric] = sum(calls.get(n, 0) for n in names)
    for metric, keys in COUNTERS.items():
        out[metric] = sum(counts.get(k, 0) for k in keys)
    builds = out["grids.sum_builds"]
    out["grids.terms_per_sum"] = counts.get("grids.terms_kept", 0) / builds if builds else 0.0
    out["grids.big_sum_share"] = counts.get("grids.big_sums", 0) / builds if builds else 0.0
    out["peps.solve_residual"] = counts.get("peps.solve_residual", 0.0)
    return out
