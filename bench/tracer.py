"""Span tracing around the public functions of each f1zeta module.

`Tracer.install()` wraps every public function and public method that a
layer module defines, plus the arithmetic operators of its classes, and
rebinds the wrapper wherever another f1zeta module imported the
original by name (so `scheme_zeta`'s call into `zetas.reflect_zeta` is
a child span).  The `quad` name bound in `regularize` and `zetas` is
wrapped as an external `scipy` span, so layer self time excludes the
time spent waiting in scipy.

Spans (name, start, end, parent, op id) are kept in compact arrays and
written out by `write_spans`; per-layer calls, busy time (time inside at
least one span of the layer) and self time (span time not covered by
child spans) are accumulated as spans close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("cli", "schemes", "weil", "powerlog", "scheme_zeta", "zetas", "groups", "regularize")
EXTERNAL = "scipy"
OPERATORS = ("__add__", "__sub__", "__mul__", "__neg__")
SPAN_CAP = 400_000  # spans kept for the span file; aggregates never stop

# functions that walk every point of their scheme argument, with the
# number of walks per call ("dim" means once per Betti index 0..dim)
POINT_WALKERS = {
    "schemes.exact_count": 1,
    "schemes.smoothed_count": 1,
    "schemes.fourier_period": 1,
    "schemes.fourier_data": 1,
    "scheme_zeta.zeta_of_scheme": 1,
    "scheme_zeta.betti_profile": "dim",
    "scheme_zeta.scheme_counting_function": 1,
    "weil.smoothed_local_zeta": 1,
    "weil.pole_order": 1,
}

COUNTERS = (
    "schemes.points",
    "schemes.fourier_period_max",
    "schemes.fourier_coeffs",
    "schemes.recon_err_max",
    "weil.series_coeffs",
    "powerlog.terms_out",
    "zetas.factors_out",
    "groups.poly_terms",
    "regularize.head_terms",
)


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[list[int]] = []  # [span index, layer, child ns]
        self._depth = [0] * (len(LAYERS) + 1)
        self.calls = [0] * (len(LAYERS) + 1)
        self.busy_ns = [0] * (len(LAYERS) + 1)
        self.self_ns = [0] * (len(LAYERS) + 1)
        self.counters = {name: 0 for name in COUNTERS}
        self.span_count = 0
        self.s_name = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("i")
        self.s_op = array("i")
        self._patched: list[tuple[object, str, object]] = []
        self._types: dict[str, type] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer modules' public callables and switch tracing on."""
        mods = {layer: importlib.import_module(f"f1zeta.{layer}") for layer in LAYERS}
        self._types = {
            "PowerLogSum": mods["powerlog"].PowerLogSum,
            "FactoredZeta": mods["zetas"].FactoredZeta,
            "TruncatedSeries": mods["weil"].TruncatedSeries,
            "SpectralValue": mods["regularize"].SpectralValue,
            "FourierData": mods["schemes"].FourierData,
            "MonoidScheme": mods["schemes"].MonoidScheme,
        }
        wrapped: dict[int, object] = {}
        for li, layer in enumerate(LAYERS):
            mod = mods[layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, li, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, li, f"{layer}.{name}")
        for layer in ("regularize", "zetas"):
            quad = getattr(mods[layer], "quad", None)
            if quad is not None and id(quad) not in wrapped:
                wrapped[id(quad)] = self._wrap(quad, len(LAYERS), f"{EXTERNAL}.quad")
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "f1zeta" or modname.startswith("f1zeta.")):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, name, wrapper)
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        for target, name, original in reversed(self._patched):
            setattr(target, name, original)
        self._patched.clear()

    def _patch(self, target: object, name: str, value: object) -> None:
        self._patched.append((target, name, vars(target)[name]))
        setattr(target, name, value)

    def _wrap_class(self, cls: type, li: int, prefix: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            if isinstance(attr, staticmethod):
                self._patch(cls, name, staticmethod(self._wrap(attr.__func__, li, f"{prefix}.{name}")))
            elif inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(attr, li, f"{prefix}.{name}"))

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, li: int, name: str):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        walks = POINT_WALKERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if walks is not None and args:
                tracer._count_points(args[0], walks)
            return tracer._call(fn, nid, li, args, kwargs)

        return wrapper

    def _call(self, fn, nid: int, li: int, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        idx = -1
        if self.span_count < SPAN_CAP:
            idx = len(self.s_name)
            self.s_name.append(nid)
            self.s_start.append(0)
            self.s_end.append(0)
            self.s_parent.append(parent[0] if parent else -1)
            self.s_op.append(self.op)
        self.span_count += 1
        frame = [idx, li, 0]
        stack.append(frame)
        self._depth[li] += 1
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            dur = t1 - t0
            self._depth[li] -= 1
            self.calls[li] += 1
            self.self_ns[li] += dur - frame[2]
            if self._depth[li] == 0:
                self.busy_ns[li] += dur
            if parent is not None:
                parent[2] += dur
            if idx >= 0:
                self.s_start[idx] = t0
                self.s_end[idx] = t1
        self._count_result(self.names[nid], li, result, parent is None or parent[1] != li)
        return result

    # -- counters --------------------------------------------------------------

    def _count_points(self, scheme, walks) -> None:
        if isinstance(scheme, self._types["MonoidScheme"]):
            reps = scheme.dim + 1 if walks == "dim" else walks
            self.counters["schemes.points"] += reps * len(scheme.points)

    def _count_result(self, name: str, li: int, result, leaves_layer: bool) -> None:
        layer = LAYERS[li] if li < len(LAYERS) else EXTERNAL
        c = self.counters
        if name == "schemes.FourierData.reconstruction_error":
            c["schemes.recon_err_max"] = max(c["schemes.recon_err_max"], float(result))
        if not leaves_layer:
            return
        t = self._types
        if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], t["FactoredZeta"]):
            result = result[1]  # reflect_zeta returns (sign, zeta)
        if layer == "powerlog" and isinstance(result, t["PowerLogSum"]):
            c["powerlog.terms_out"] += len(result.terms)
        elif layer == "groups" and isinstance(result, t["PowerLogSum"]):
            c["groups.poly_terms"] += len(result.terms)
        elif layer == "zetas" and isinstance(result, t["FactoredZeta"]):
            c["zetas.factors_out"] += len(result.factors)
        elif layer == "weil" and isinstance(result, t["TruncatedSeries"]):
            c["weil.series_coeffs"] += len(result.coefficients)
        elif layer == "regularize" and isinstance(result, t["SpectralValue"]):
            c["regularize.head_terms"] += result.terms_used
        elif layer == "schemes" and isinstance(result, t["FourierData"]):
            c["schemes.fourier_period_max"] = max(c["schemes.fourier_period_max"], result.period)
            c["schemes.fourier_coeffs"] += sum(len(entry[3]) for entry in result.entries)

    # -- results -----------------------------------------------------------------

    def aggregates(self) -> dict:
        """Per-layer totals and counters; sums merge across processes."""
        return {
            "calls": dict(zip(LAYERS + (EXTERNAL,), self.calls)),
            "busy_ns": dict(zip(LAYERS + (EXTERNAL,), self.busy_ns)),
            "self_ns": dict(zip(LAYERS + (EXTERNAL,), self.self_ns)),
            "counters": dict(self.counters),
            "spans": self.span_count,
        }

    def span_rows(self):
        """(name, start_ns, end_ns, parent index, op id) for each kept span."""
        for i in range(len(self.s_name)):
            yield (self.names[self.s_name[i]], self.s_start[i], self.s_end[i],
                   self.s_parent[i], self.s_op[i])


def merge_aggregates(total: dict | None, part: dict) -> dict:
    if total is None:
        return {k: (dict(v) if isinstance(v, dict) else v) for k, v in part.items()}
    for key in ("calls", "busy_ns", "self_ns"):
        for layer, v in part[key].items():
            total[key][layer] = total[key].get(layer, 0) + v
    for name, v in part["counters"].items():
        if name.endswith("_max"):
            total["counters"][name] = max(total["counters"].get(name, 0), v)
        else:
            total["counters"][name] = total["counters"].get(name, 0) + v
    total["spans"] += part["spans"]
    return total
