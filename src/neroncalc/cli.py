"""Command line interface.

Exit codes: 0 success, 1 validation/domain failure, 2 usage error.
All machine output is deterministic JSON; human-readable lines go to stdout
unless ``--json`` is given.  With ``--json`` in the arguments, every error,
usage errors included, is one JSON line on stderr naming its type.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import json
import sys

from . import __version__
from .basechange import base_change_laws, transform
from .conductors import (
    EllipticData,
    KodairaType,
    artin_relation,
    c_elliptic,
    ctame_elliptic,
    d_pot,
    genus2_c,
    wild_defect,
)
from .curves import (
    SncdCurve,
    _curve_doc,
    _parse_int,
    contract_minus_one,
    load_curve,
    serialize_curve,
    validate,
)
from .errors import MalformedFiber, NeroncalcError
from .hj import hj_expand, local_point_data
from .invariants import invariant_report
from .zeta import (
    component_series,
    euler_specialize,
    load_provider,
    motivic_zeta,
)


def _emit(doc: dict) -> None:
    print(json.dumps(doc, ensure_ascii=False, separators=(", ", ": ")))


def _json_error(message: str, kind: str) -> None:
    doc = {"error": message, "type": kind}
    print(json.dumps(doc, ensure_ascii=False), file=sys.stderr)


def _fail(exc: Exception, args) -> int:
    if getattr(args, "json", False):
        _json_error(str(exc), type(exc).__name__)
    else:
        print("error: %s" % exc, file=sys.stderr)
    return 1


def _load(args):
    curve = load_curve(args.curve)
    if args.p is not None:
        curve = SncdCurve(curve.vertices, curve.edges, args.p)
    return curve


def _cmd_analyze(args) -> int:
    curve = _load(args)
    report = validate(curve)
    if not report.ok:
        raise MalformedFiber("; ".join(report.problems))
    doc = invariant_report(curve).to_dict()
    doc["p"] = curve.p
    _emit(doc)
    return 0


def _cmd_basechange(args) -> int:
    curve = _load(args)
    out, trace = transform(curve, args.d)
    if args.contract:
        out = contract_minus_one(out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(serialize_curve(out) + "\n")
        with open(args.output + ".trace.json", "w", encoding="utf-8") as fh:
            json.dump(trace.to_dict(), fh, ensure_ascii=False, indent=1)
            fh.write("\n")
    else:
        _emit({"curve": _curve_doc(out), "trace": trace.to_dict()})
    return 0


def _cmd_series(args) -> int:
    provider = load_provider(args.provider)
    series = component_series(provider)
    _emit({
        "series": series.to_dict(),
        "pole_order_at_1": series.pole_order_at_one(),
        "degree": series.degree(),
    })
    return 0


def _cmd_zeta(args) -> int:
    provider = load_provider(args.provider)
    series = motivic_zeta(provider)
    slope, order = series.unique_pole_slope()
    euler = euler_specialize(provider)
    _emit({
        "zeta": series.to_dict(),
        "pole": {"slope": str(slope), "order": order},
        "degree": series.degree(),
        "euler": euler.to_dict(),
    })
    return 0


def _cmd_check(args) -> int:
    laws = base_change_laws(_load(args), args.d)
    checks = laws.to_dict()
    if args.json:
        _emit({"d": args.d, "checks": checks, "pass": laws.ok})
    else:
        for name, r in checks.items():
            print("%s: %s" % (name, "PASS" if r["pass"] else "FAIL"))
    return 0 if laws.ok else 1


def _cmd_hj(args) -> int:
    _emit({"b": hj_expand(args.n, args.r)})
    return 0


def _cmd_resolve(args) -> int:
    local = local_point_data(args.m1, args.m2, args.d, p=args.p)
    doc = {
        "b": list(local.chain.b) if local.chain else [],
        "mu": list(local.chain.mu) if local.chain else [],
        "c": local.num_points,
    }
    _emit(doc)
    return 0


def _cmd_elliptic(args) -> int:
    data = EllipticData(
        kodaira=KodairaType.parse(args.type),
        v_delta=args.vdelta,
        potential=args.potential,
        v_j=args.vj,
        delta_wild=args.delta,
        p=args.p,
    )
    art, c = artin_relation(data)
    defect = wild_defect(data)
    doc = {
        "type": str(data.kodaira),
        "c": str(c),
        "c_tame": str(ctame_elliptic(data.kodaira)),
        "d_pot": d_pot(data),
        "art": art,
        "wild_defect": str(defect.defect),
        "c_from_defect": str(defect.c),
    }
    if defect.v_j_derived is not None:
        doc["v_j_derived"] = defect.v_j_derived
    _emit(doc)
    return 0


def _cmd_genus2(args) -> int:
    c = genus2_c(args.vdmin, args.sigma, args.tau, args.deg)
    _emit({"c": str(c)})
    return 0


def _int(text: str) -> int:
    """``int`` for integer flags, in argparse's wording for a bad value."""
    return _parse_int(text, argparse.ArgumentTypeError, "integer", "invalid int value: %s")


# Set by main for the length of one parse: the subparser that reports a
# usage error does not see main's argv, and parsers used outside main keep
# argparse's own reporting.
_JSON_USAGE = contextvars.ContextVar("json_usage", default=False)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors follow ``--json`` inside :func:`main`."""

    def error(self, message):
        if _JSON_USAGE.get():
            _json_error(message, "UsageError")
            self.exit(2)
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="neroncalc",
        description="exact invariants of degenerating curves from dual graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable errors")

    def curve_opts(p):
        common(p)
        p.add_argument(
            "--p", type=_int, default=None, dest="p",
            help="override the characteristic exponent of the curve file",
        )

    p = sub.add_parser("analyze", help="full invariant report of a curve file")
    p.add_argument("curve")
    curve_opts(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("basechange", help="tame base change of the dual graph")
    p.add_argument("curve")
    p.add_argument("-d", type=_int, required=True, help="degree of the extension")
    p.add_argument("--contract", action="store_true", help="contract to minimal form")
    p.add_argument("-o", "--output", help="write the curve here (+ .trace.json)")
    curve_opts(p)
    p.set_defaults(func=_cmd_basechange)

    p = sub.add_parser("series", help="component series of a provider")
    p.add_argument("provider")
    common(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("zeta", help="motivic zeta series of a provider")
    p.add_argument("provider")
    common(p)
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("check", help="verify the base change laws at degree d")
    p.add_argument("curve")
    p.add_argument("-d", type=_int, required=True)
    curve_opts(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("hj", help="continued fraction digits of n/r")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--r", type=_int, required=True)
    common(p)
    p.set_defaults(func=_cmd_hj)

    p = sub.add_parser("resolve", help="local resolution data at a point")
    p.add_argument("--m1", type=_int, required=True)
    p.add_argument("--m2", type=_int, required=True)
    p.add_argument("--d", type=_int, required=True)
    p.add_argument("--p", type=_int, default=None)
    common(p)
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("elliptic", help="elliptic conductor report")
    p.add_argument("--type", required=True, help="reduction type, e.g. II or I3*")
    p.add_argument("--vdelta", type=_int, required=True)
    p.add_argument("--potential", choices=["good", "multiplicative"], required=True)
    p.add_argument("--vj", type=_int, default=None)
    p.add_argument("--delta", type=_int, default=0, help="wild conductor part")
    p.add_argument("--p", type=_int, default=1)
    common(p)
    p.set_defaults(func=_cmd_elliptic)

    p = sub.add_parser("genus2", help="genus-2 conductor from the discriminant")
    p.add_argument("--vdmin", type=_int, required=True)
    p.add_argument("--sigma", type=_int, required=True)
    p.add_argument("--tau", type=_int, required=True)
    p.add_argument("--deg", type=_int, required=True)
    common(p)
    p.set_defaults(func=_cmd_genus2)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call.

    ``parse_args`` starts every call from a fresh namespace, so one parser
    serves any number of calls in a process.  :func:`build_parser` stays a
    plain constructor: a caller that edits its parser does not change this one.
    """
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    token = _JSON_USAGE.set("--json" in argv)
    try:
        args = _parser().parse_args(argv)
    finally:
        _JSON_USAGE.reset(token)
    try:
        return args.func(args)
    except (NeroncalcError, ValueError, OSError) as exc:
        return _fail(exc, args)
