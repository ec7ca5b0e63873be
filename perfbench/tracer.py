"""Outside-in span tracing of neroncalc, installed from the benchmark.

:class:`Tracer` wraps every public function of every loaded ``neroncalc.*``
module, plus the class methods in :data:`METHODS`, in a span recorder.  A
function bound under several names (``from .x import y`` in another module)
is one object, so every binding of it is replaced by the same wrapper.
Spans nest on a stack; a span's self time is its duration minus the time
its child spans cover.  Totals per span name stay in memory and are read
out when the run ends; :meth:`Tracer.remove` puts every original binding
back.

Span names are ``<layer>.<function>`` with the layer the module's name, and
``<layer>.<Class>.<method>`` for methods.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict

PACKAGE = "neroncalc"
LAYERS = ("cli", "curves", "linalg", "invariants", "cyclo", "hj", "basechange",
          "ratseries", "zeta")

# (module, class) -> {attribute: span name}; "*" adds every public method.
METHODS = {
    ("curves", "SncdCurve"): {"__init__": "curves.SncdCurve"},
    ("cyclo", "CycloProduct"): {"*": "cyclo.CycloProduct"},
    ("ratseries", "RationalSeries"): {
        "*": "ratseries.RationalSeries",
        "__init__": "ratseries.RationalSeries.init",
        "__add__": "ratseries.RationalSeries.add",
        "__mul__": "ratseries.RationalSeries.mul",
    },
}

CHECK_SPANS = frozenset({"basechange.compfu_check", "basechange.e_division_law",
                         "basechange.charpoly_commutation"})


def _count_smith(rec, args, out):
    rows = args[0]
    rec.counts["linalg.smith_diagonal.entries"] += len(rows) * len(rows[0]) if rows else 0


def _count_matrix(rec, args, out):
    rec.counts["invariants.intersection_matrix.entries"] += len(out) * len(out[0]) if out else 0


def _count_contract(rec, args, out):
    rec.counts["curves.contract_minus_one.removed"] += len(args[0].vertices) - len(out.vertices)


def _count_transform(rec, args, out):
    rec.counts["basechange.transform.vertices_out"] += len(out[0].vertices)
    if any(name in CHECK_SPANS for name, _ in rec.stack):
        rec.counts["basechange.transform.in_check"] += 1


def _count_chain(rec, args, out):
    rec.counts["hj.resolve_chain.chain_len"] += len(out.b)


def _count_as_poly(rec, args, out):
    rec.counts["cyclo.CycloProduct.as_poly.out_degree"] += len(out) - 1


def _count_phi(rec, args, out):
    rec.counts["cyclo.CycloProduct.phi_exponents.base_sum"] += sum(a for a, _ in args[0].factors)


def _count_geometry(rec, args, out):
    if any(name == "invariants.invariant_report" for name, _ in rec.stack):
        rec.counts["curves.geometry.in_report"] += 1


HOOKS = {
    "linalg.smith_diagonal": _count_smith,
    "invariants.intersection_matrix": _count_matrix,
    "curves.contract_minus_one": _count_contract,
    "basechange.transform": _count_transform,
    "hj.resolve_chain": _count_chain,
    "cyclo.CycloProduct.as_poly": _count_as_poly,
    "cyclo.CycloProduct.phi_exponents": _count_phi,
    "curves.geometry": _count_geometry,
}


class Recorder:
    """Per-span totals of one traced run."""

    def __init__(self):
        self.stack: list[list] = []          # [span name, time of child spans]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def spans(self) -> list[dict]:
        return [{"span": n, "calls": self.calls[n], "self_s": self.self_s[n]}
                for n in sorted(self.self_s)]


def _is_traceable(obj) -> bool:
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


class Tracer:
    """Context manager installing span wrappers for the duration of a run."""

    def __init__(self):
        self.rec = Recorder()
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, name: str, fn):
        stack, self_s, calls = self.rec.stack, self.rec.self_s, self.rec.calls
        hook, rec, clock = HOOKS.get(name), self.rec, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[name] += dt - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                hook(rec, args, out)
            return out
        return span

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {n: m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))}
        wrappers: dict[int, object] = {}
        for modname, mod in modules.items():
            layer = modname.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and _is_traceable(obj)
                        and getattr(obj, "__module__", None) == modname):
                    wrappers[id(obj)] = (obj, self._wrap("%s.%s" % (layer, attr), obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for (modname, clsname), spec in METHODS.items():
            cls = getattr(modules["%s.%s" % (PACKAGE, modname)], clsname)
            for attr, fn in list(vars(cls).items()):
                name = spec.get(attr)
                if name is None and "*" in spec and not attr.startswith("_"):
                    name = "%s.%s" % (spec["*"], attr)
                if name is not None and isinstance(fn, types.FunctionType):
                    self._undo.append((cls, attr, fn))
                    setattr(cls, attr, self._wrap(name, fn))

    def remove(self) -> None:
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)


# Per-layer metrics in report order: name -> unit.  BENCHMARK.json lists the
# same names.
PER_LAYER = {
    "linalg.smith_diagonal.self_s": "s",
    "linalg.smith_diagonal.calls": "count",
    "linalg.smith_diagonal.entries": "count",
    "invariants.intersection_matrix.self_s": "s",
    "invariants.intersection_matrix.entries": "count",
    "invariants.component_group.self_s": "s",
    "invariants.invariant_report.self_s": "s",
    "invariants.invariant_report.calls": "count",
    "invariants.geometry_per_report": "ratio",
    "invariants.char_poly.self_s": "s",
    "invariants.char_poly_prime.self_s": "s",
    "invariants.monodromy_zeta.self_s": "s",
    "invariants.lorenzini_form.self_s": "s",
    "curves.geometry.self_s": "s",
    "curves.geometry.calls": "count",
    "curves.genus.self_s": "s",
    "curves.contract_minus_one.self_s": "s",
    "curves.contract_minus_one.removed": "count",
    "curves.SncdCurve.calls": "count",
    "curves.parse_curve.self_s": "s",
    "curves.validate.self_s": "s",
    "basechange.transform.self_s": "s",
    "basechange.transform.calls": "count",
    "basechange.transform.vertices_out": "count",
    "basechange.transform.per_check": "ratio",
    "basechange.compfu_check.self_s": "s",
    "basechange.e_division_law.self_s": "s",
    "basechange.charpoly_commutation.self_s": "s",
    "hj.local_point_data.self_s": "s",
    "hj.local_point_data.calls": "count",
    "hj.resolve_chain.chain_len": "count",
    "cyclo.CycloProduct.as_poly.self_s": "s",
    "cyclo.CycloProduct.as_poly.out_degree": "count",
    "cyclo.CycloProduct.phi_exponents.self_s": "s",
    "cyclo.CycloProduct.phi_exponents.calls": "count",
    "cyclo.CycloProduct.phi_exponents.base_sum": "count",
    "cyclo.cyclotomic.self_s": "s",
    "cyclo.cyclotomic.calls": "count",
    "ratseries.RationalSeries.init.self_s": "s",
    "ratseries.RationalSeries.init.calls": "count",
    "ratseries.RationalSeries.add.self_s": "s",
    "ratseries.RationalSeries.add.calls": "count",
    "ratseries.RationalSeries.mul.self_s": "s",
    "ratseries.geometric_sum.self_s": "s",
    "zeta.component_series.self_s": "s",
    "zeta.motivic_zeta.self_s": "s",
    "zeta.euler_specialize.self_s": "s",
    "zeta.load_provider.self_s": "s",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.self_s": "s",
    **{"%s.share" % layer: "ratio" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
}


def per_layer_metrics(rec: Recorder, measured: dict[str, float]) -> dict[str, dict]:
    """Every :data:`PER_LAYER` metric from a recorder; ``measured`` supplies
    the ones taken outside the spans (start-up floors, trace overhead)."""
    layers = rec.layer_self_s()
    total = sum(layers.values()) or 1.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    derived = {
        "invariants.geometry_per_report": ratio(
            rec.counts["curves.geometry.in_report"], rec.calls["invariants.invariant_report"]),
        "basechange.transform.per_check": ratio(
            rec.counts["basechange.transform.in_check"], rec.calls["basechange.compfu_check"]),
        **{"%s.share" % layer: layers.get(layer, 0.0) / total for layer in LAYERS},
        **measured,
    }
    out = {}
    for name, unit in PER_LAYER.items():
        span, _, kind = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif kind == "self_s":
            value = rec.self_s.get(span, 0.0)
        elif kind == "calls":
            value = rec.calls.get(span, 0)
        else:
            value = rec.counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out
