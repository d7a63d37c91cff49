"""Span tracer that times calls into fuchskit's public functions from outside.

The tracer never edits the library.  `install` replaces each traced function
at every module binding that holds it (``from .algebra import poly_root_search``
copies the name into ``frobenius``, ``connection`` and ``cyclic``), wraps the
traced ``ExactMatrix`` and ``RationalFunction`` methods on their classes, and
`restore` puts every original object back.

A wrapper records a span -- name, start, end and the index of the span that
caused it -- only while `active` is true, so input generation between ops
stays untraced.  Self time and per-name totals are computed from the spans
after the run (`summary`).
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter_ns

MODULES = ("algebra", "operator", "connection", "frobenius", "cyclic",
           "moduli", "monodromy", "sampling", "cli")


def _det_name(args):
    """ExactMatrix.det split by entry type: polynomial, rational function
    or scalar entries take different arithmetic."""
    rows = args[0].rows
    kind = type(rows[0][0]).__name__ if rows else "GaussianRational"
    return {"Polynomial": "algebra.det_poly",
            "RationalFunction": "algebra.det_rf"}.get(kind, "algebra.det_scalar")


def _count_incomplete(tr, result):
    tr.add("algebra.poly_root_search.incomplete", int(not result.complete))


def _count_depth(tr, result):
    tr.add("frobenius.local_expansion.depth_sum", result.truncation)


def _count_nu(tr, result):
    tr.peak("frobenius.f_matrices.nu_max", result.nu)


def _count_tried(tr, result):
    tr.add("cyclic.find_cyclic.tried_sum", result.tried)


def _count_integrator(tr, result):
    tr.add("monodromy.integrate.rhs_evals", result.nfev)
    tr.add("monodromy.integrate.steps", len(result.t) - 1)


def _count_closure(tr, result):
    tr.peak("monodromy.closure_rel_max", result.closure_error / result.scale)


# (span name, module, attribute, counter hook).  A dotted attribute names a
# method on a class of that module.
FUNCTIONS = (
    ("algebra.poly_gcd", "algebra", "poly_gcd", None),
    ("algebra.rf_make", "algebra", "RationalFunction.make", None),
    (_det_name, "algebra", "ExactMatrix.det", None),
    ("algebra.rank", "algebra", "ExactMatrix.rank", None),
    ("algebra.rref", "algebra", "ExactMatrix.rref", None),
    ("algebra.series_of_rational", "algebra", "series_of_rational", None),
    ("algebra.poly_root_search", "algebra", "poly_root_search", _count_incomplete),
    ("operator.parse_operator", "operator", "parse_operator", None),
    ("frobenius.local_expansion", "frobenius", "local_expansion", _count_depth),
    ("frobenius.f_matrices", "frobenius", "f_matrices", _count_nu),
    ("frobenius.apparent_check", "frobenius", "apparent_check", None),
    ("frobenius.frobenius_oracle", "frobenius", "frobenius_oracle", None),
    ("connection.build_companion", "connection", "build_companion", None),
    ("connection.exponent_data", "connection", "exponent_data", None),
    ("connection.genericity_check", "connection", "genericity_check", None),
    ("cyclic.find_cyclic", "cyclic", "find_cyclic", _count_tried),
    ("moduli.build_constraints", "moduli", "build_constraints", None),
    ("moduli.verify_rank", "moduli", "verify_rank", None),
    ("monodromy.global_product", "monodromy", "global_product", _count_closure),
    ("monodromy.loop", "monodromy", "monodromy", None),
    ("monodromy.loop", "monodromy", "anchored_monodromy", None),
    ("monodromy.integrate", "monodromy", "solve_ivp", _count_integrator),
)

SPAN_NAMES = ("algebra.poly_gcd", "algebra.rf_make", "algebra.det_poly",
              "algebra.det_scalar", "algebra.det_rf", "algebra.rank",
              "algebra.rref", "algebra.series_of_rational",
              "algebra.poly_root_search", "operator.parse_operator",
              "frobenius.local_expansion", "frobenius.f_matrices",
              "frobenius.apparent_check", "frobenius.frobenius_oracle",
              "connection.build_companion", "connection.exponent_data",
              "connection.genericity_check", "cyclic.find_cyclic",
              "moduli.build_constraints", "moduli.verify_rank",
              "monodromy.global_product", "monodromy.loop",
              "monodromy.integrate", "cli.main")

COUNTER_NAMES = ("algebra.poly_root_search.incomplete",
                 "frobenius.local_expansion.depth_sum",
                 "frobenius.f_matrices.nu_max", "cyclic.find_cyclic.tried_sum",
                 "monodromy.integrate.rhs_evals", "monodromy.integrate.steps",
                 "monodromy.closure_rel_max")


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start_ns, end_ns, parent index or -1)
        self.counters = defaultdict(int)
        self.active = False
        self._stack = []
        self._undo = []

    def add(self, key, value):
        self.counters[key] += value

    def peak(self, key, value):
        self.counters[key] = max(self.counters[key], value)

    def wrap(self, name, fn, hook=None):
        """Traced stand-in for fn; `name` is a string or a function of the
        call's positional arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._stack.pop()
                label = name if isinstance(name, str) else name(args)
                tracer.spans[idx] = (label, start, end, parent)
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    def install(self):
        mods = [importlib.import_module(f"fuchskit.{m}") for m in MODULES]
        for name, modname, attr, hook in FUNCTIONS:
            mod = importlib.import_module(f"fuchskit.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(name, raw.__func__, hook))
                else:
                    new = self.wrap(name, raw, hook)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(mod, attr)
            traced = self.wrap(name, original, hook)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, value))
                        setattr(m, key, traced)

    def restore(self):
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)

    def summary(self) -> dict:
        """Per span name: calls and self seconds, where a span's self time is
        its duration minus the durations of the spans it caused; plus the
        counters.  Every known name is present, zero when never called."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start - child_ns[i]) / 1e9
        for key in COUNTER_NAMES:
            out[key] = self.counters.get(key, 0)
        return out


def merge(total: dict, part: dict) -> None:
    """Fold one summary into another: sums, except maxima stay maxima."""
    for key, value in part.items():
        if key.endswith("_max"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
