"""Layer tracing applied to qfab from outside.

Nothing inside ``qfab`` is edited.  ``Tracer.install`` replaces every public
function of every ``qfab`` module by a wrapper, in every ``qfab`` module
namespace that binds it (the modules import names directly, so patching the
defining module alone would miss most calls).  A few hot methods are patched
on their class, and scalar operators are counted on the rational class and
on ``FpElement``.

Spans (name, start, end, parent span, operation id) stay in memory until
the run ends; ``summary`` turns them into per-function call counts and self
times.  A function's self time is its span time minus the time of the spans
it caused directly.
"""

from __future__ import annotations

import fractions
import functools
import importlib
import inspect
import pkgutil
import time

# Methods traced with spans, as (module, class, method, reported name).
SPAN_METHODS = [
    ("linalg", "Matrix", "__mul__", "linalg.matmul"),
    ("linalg", "Subspace", "insert", "linalg.subspace_insert"),
]

# Hot methods that are only counted: a span per call would cost more than the
# call itself.  Their time is part of the caller's self time.
COUNT_METHODS = [
    ("algebra", "FDAlgebra", "mult", "algebra.mult"),
]

# Scalar operators, counted per operator family.
SCALAR_OPS = {
    "__eq__": "field.eq",
    "__mul__": "field.mul", "__rmul__": "field.mul",
    "__add__": "field.add", "__radd__": "field.add",
    "__sub__": "field.add", "__rsub__": "field.add",
    "__truediv__": "field.div", "__rtruediv__": "field.div",
}

# Functions whose calls also add an amount of work, or a key for counting
# distinct inputs.  Each maps (args, kwargs, result) to a number or a key.
AMOUNTS = {
    "linalg.rref": ("cells", lambda a, kw, out: a[0].rows * a[0].cols),
    "modules.hom_space": ("unknowns", lambda a, kw, out: sum(
        m * n for m, n in zip(a[0].dims, a[1].dims))),
    "homology.projective_cover": ("cover_dim", lambda a, kw, out: out[0].total_dim),
    "homology.minimal_resolution": ("terms", lambda a, kw, out: len(out.terms)),
}
DISTINCT = {
    "algebra.quotient_by_idempotent_ideal":
        lambda a, kw: (id(a[0]), tuple(sorted(a[1]))),
    "modules.projective_module": lambda a, kw: (id(a[0]), a[1]),
}


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, op id)
        self.stack = []
        self.counts = {}
        # name -> {key: first argument}; holding the argument keeps the id()
        # inside the key from being reused by another object
        self.distinct = {}
        self.op = None
        self.active = False

    # -- installation ------------------------------------------------------

    def install(self):
        pkg = importlib.import_module("qfab")
        mods = {info.name: importlib.import_module(f"qfab.{info.name}")
                for info in pkgutil.iter_modules(pkg.__path__)}
        wrappers = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrappers[fn] = self._span_wrapper(f"{short}.{attr}", fn)
        for mod in [pkg, *mods.values()]:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
        for short, cls, meth, name in SPAN_METHODS:
            klass = getattr(mods[short], cls)
            setattr(klass, meth, self._span_wrapper(name, getattr(klass, meth)))
        for short, cls, meth, name in COUNT_METHODS:
            klass = getattr(mods[short], cls)
            setattr(klass, meth, self._count_wrapper(name, getattr(klass, meth)))
        for klass in (fractions.Fraction, mods["field"].FpElement):
            for meth, name in SCALAR_OPS.items():
                if meth in vars(klass):
                    setattr(klass, meth,
                            self._count_wrapper(name, vars(klass)[meth]))
        return self

    def _add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _count_wrapper(self, name, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def _span_wrapper(self, name, fn):
        amount = AMOUNTS.get(name)
        distinct = DISTINCT.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            self._add(f"{name}.calls")
            if amount is not None:
                self._add(f"{name}.{amount[0]}", amount[1](args, kwargs, out))
            if distinct is not None:
                self.distinct.setdefault(name, {})[distinct(args, kwargs)] = args[0]
            return out
        return traced

    # -- results -----------------------------------------------------------

    def _own_times(self):
        """Each span's duration minus that of the spans it caused directly."""
        own = [t1 - t0 for _, t0, t1, _, _ in self.spans]
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= t1 - t0
        return own

    def summary(self):
        """Counts plus ``<function>.self_s`` and ``<layer>.self_s`` totals."""
        out = dict(self.counts)
        for name, keys in self.distinct.items():
            out[f"{name}.distinct"] = len(keys)
        for (name, *_), own in zip(self.spans, self._own_times()):
            for key in (f"{name}.self_s", f"{name.split('.', 1)[0]}.self_s"):
                out[key] = out.get(key, 0.0) + own
        return out

    def per_op(self):
        """Self time per operation id and function, for the trace file."""
        table = {}
        for (name, _, _, _, op), own in zip(self.spans, self._own_times()):
            row = table.setdefault(str(op), {})
            row[name] = row.get(name, 0.0) + own
        return table
