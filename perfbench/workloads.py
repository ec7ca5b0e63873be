"""The three workloads: seeded op sets and the oracle each answer must meet.

A workload is a list of slots.  Each slot holds a few interchangeable
catalogue items of about the same cost; the seed picks one item per slot and
shuffles the picks, so every seed runs different inputs of the same shape
and the run-to-run spread stays small.  Each item has a key, and the
canonical output digest of every key is pinned in ``pinned.json``.

An op is either a ``neroncalc`` command line (run in-process through
``neroncalc.cli.main`` or as a ``python -m neroncalc`` child) or a direct API
call that returns the canonical text of its answer.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable

import gen
import oracles as orc

WORK_DIR = os.path.join("perfbench", ".work")
CURVE_FIXTURES = tuple(orc.FIXTURES)
PROVIDERS = ("provider_II", "provider_I0star", "provider_I2")


@dataclass
class Op:
    """``check(exit code, stdout, stderr)`` returns what is wrong, or None."""

    key: str
    argv: list[str] | None = None
    call: Callable[[], str] | None = None
    check: Callable[[int, str, str], str | None] = field(kw_only=True)


@dataclass
class Slot:
    items: list[tuple[str, Callable[["Context"], Op]]]
    heavy: bool = False


def load_fixtures(root: str) -> dict[str, dict]:
    out = {}
    for name in CURVE_FIXTURES:
        with open(os.path.join(root, "fixtures", name + ".json"), encoding="utf-8") as fh:
            out[name] = json.load(fh)
    return out


class Context:
    """Where a workload writes its input files (relative to the checkout)."""

    def __init__(self, root: str, tag: str):
        self.root = root
        self.dir = os.path.join(WORK_DIR, tag)
        os.makedirs(os.path.join(root, self.dir), exist_ok=True)
        self.fixtures = load_fixtures(root)

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.dir, name)
        with open(os.path.join(self.root, path), "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def write_curve(self, name: str, doc: dict) -> str:
        return self.write(name + ".json", gen.dump(doc) + "\n")

    def write_provider(self, name: str, base: str, curves: dict, jumps, p: int = 1) -> str:
        """``base`` and ``curves`` values are paths relative to the checkout."""
        rel = lambda path: os.path.relpath(path, self.dir)  # noqa: E731
        doc = gen.provider_doc(rel(base), {a: rel(c) for a, c in curves.items()}, jumps, p)
        return self.write(name + ".json", json.dumps(doc, indent=1) + "\n")


def fixture_path(name: str) -> str:
    return os.path.join("fixtures", name + ".json")


# -- checks -------------------------------------------------------------------


def _json_check(expect: Callable[[dict], str | None], code: int = 0):
    def check(rc: int, out: str, err: str) -> str | None:
        if rc != code:
            return "exit code %d, expected %d: %s" % (rc, code, err.strip()[-200:])
        try:
            doc = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        return expect(doc)
    return check


def _text_check(expected: str):
    def check(rc: int, out: str, err: str) -> str | None:
        if rc != 0:
            return "exit code %d" % rc
        return None if out == expected else "got %.80r, expected %.80r" % (out, expected)
    return check


def _error_check(rc: int, out: str, err: str) -> str | None:
    lines = err.strip().splitlines()
    if rc != 1:
        return "exit code %d, expected 1" % rc
    if out or len(lines) != 1 or not lines[0].startswith("error: ") or "Traceback" in err:
        return "error output is not one line: %.200r" % err
    return None


def _fields(**expected):
    def expect(doc: dict) -> str | None:
        for k, v in expected.items():
            if doc.get(k) != v:
                return "%s = %.80r, expected %.80r" % (k, doc.get(k), v)
        return None
    return expect


def check_analyze(name: str, phi_order: int | None = None):
    """The report of a curve with the invariants of fixture ``name``
    (blow-ups and relabellings keep genus, Phi and P)."""
    g, phi, _, _, P, _ = orc.FIXTURES[name]
    return _json_check(_fields(genus=g, phi_order=phi if phi_order is None else phi_order, P=P))


def check_fixture_analyze(name: str):
    g, phi, e, b1, P, _ = orc.FIXTURES[name]
    return _json_check(_fields(genus=g, phi_order=phi, e_model=e, t=b1, P=P))


def check_basechange(name: str, d: int, fixtures: dict, contract: bool):
    def expect(doc: dict) -> str | None:
        curve = doc["curve"]
        if orc.genus_of(curve) != orc.FIXTURES[name][0]:
            return "genus changed under base change"
        if doc["trace"]["d"] != d:
            return "trace records the wrong degree"
        want = orc.contracted_multiplicities(name, d, fixtures) if contract else None
        if want is not None and orc.multiplicities(curve) != want:
            return "contracted multiplicities %s, expected %s" % (
                orc.multiplicities(curve)[:20], want[:20])
        return None
    return _json_check(expect)


def check_laws(phi: int, b1: int, e: int, d: int):
    """``|Phi(d)| = d^b1 |Phi|`` and ``e(d) = e / gcd(e, d)``."""
    def expect(doc: dict) -> str | None:
        checks = doc["checks"]
        growth, index = checks["component_growth"], checks["index_division"]
        if (growth["before"], growth["after"], growth["factor"]) != (phi, d ** b1 * phi, d ** b1):
            return "component growth %r, expected |Phi| %d -> %d" % (growth, phi, d ** b1 * phi)
        if index["predicted"] != e // gcd(e, d) or index["measured"] != e // gcd(e, d):
            return "index division %r, expected %d" % (index, e // gcd(e, d))
        if not doc["pass"] or not checks["charpoly_commutation"]["pass"]:
            return "a base change law failed"
        return None
    return _json_check(expect)


def check_series(coeff: Callable[[int], int], order: int):
    def expect(doc: dict) -> str | None:
        got = orc.series_coefficients(doc["series"], order)
        want = [0] + [coeff(d) for d in range(1, order + 1)]
        if got != want:
            bad = next(d for d in range(order + 1) if got[d] != want[d])
            return "coefficient of T^%d is %d, expected %d" % (bad, got[bad], want[bad])
        return None
    return _json_check(expect)


def check_zeta(c_tame: Fraction, euler: Callable[[int], int], order: int):
    def expect(doc: dict) -> str | None:
        if Fraction(doc["pole"]["slope"]) != c_tame:
            return "pole slope %s, expected c_tame = %s" % (doc["pole"]["slope"], c_tame)
        got = orc.series_coefficients(doc["euler"], order)
        want = [0] + [euler(d) for d in range(1, order + 1)]
        if got != want:
            return "Euler specialization differs from |Phi(d)| on additive degrees"
        return None
    return _json_check(expect)


# -- large_graph --------------------------------------------------------------

# Fixtures whose transforms large_graph contracts and checks, and the bands
# of degrees it draws from.  Cycles are kept to n*d <= 600 vertices.
BASECHANGE_TREES = ("II", "III", "IV", "IVstar", "IIIstar", "IIstar", "I0star", "g2_additive")
BLOWUP_CAP = 40


def _centred(lo: int, hi: int, count: int, width: int = 4) -> list[list[int]]:
    """Split ``[lo, hi)`` into ``count`` equal bands; each band's candidates
    are ``width`` consecutive values at its centre, so they cost the same."""
    return [[lo + (hi - lo) * (2 * j + 1) // (2 * count) + k for k in range(width)]
            for j in range(count)]


def _analyze_cycle(n: int):
    def make(ctx: Context) -> Op:
        path = ctx.write_curve("I%d" % n, gen.cycle_doc(n))
        return Op("analyze.I%d" % n, ["analyze", path], check=check_analyze("I1", phi_order=n))
    return "analyze.I%d" % n, make


def _analyze_blowup(base: str, target: int, sub: int):
    key = "analyze.blowup.%s.%d.%d" % (base, target, sub)

    def make(ctx: Context) -> Op:
        doc = gen.blowup_closure(ctx.fixtures[base], target, (base, target, sub), BLOWUP_CAP)
        return Op(key, ["analyze", ctx.write_curve(key, doc)], check=check_analyze(base))
    return key, make


def _analyze_transformed_cycle(n: int, d: int):
    key = "analyze.transform.I%d.d%d" % (n, d)

    def make(ctx: Context) -> Op:
        doc = gen.transformed_cycle_doc(ctx.fixtures["I%d" % n], d)
        return Op(key, ["analyze", ctx.write_curve(key, doc)],
                  check=check_analyze("I1", phi_order=n * d))
    return key, make


def _basechange(name: str, d: int, contract: bool = True, prefix: str = ""):
    key = prefix + "basechange.%s.d%d%s" % (name, d, ".contract" if contract else "")

    def make(ctx: Context) -> Op:
        argv = ["basechange", fixture_path(name), "-d", str(d)] + (["--contract"] if contract else [])
        return Op(key, argv, check=check_basechange(name, d, ctx.fixtures, contract))
    return key, make


def _check(name: str, d: int, prefix: str = ""):
    key = prefix + "check.%s.d%d" % (name, d)
    _, phi, e, b1, _, _ = orc.FIXTURES[name]
    return key, lambda ctx: Op(key, ["check", fixture_path(name), "-d", str(d), "--json"],
                               check=check_laws(phi, b1, e, d))


def _cycle_series(n: int, zeta: bool):
    key = "%s.I%d" % ("zeta" if zeta else "series", n)

    def make(ctx: Context) -> Op:
        base = ctx.write_curve("I%d" % n, gen.cycle_doc(n))
        prov = ctx.write_provider("provider_" + key, base, {}, [(Fraction(0), 1)] if zeta else None)
        if zeta:
            return Op(key, ["zeta", prov], check=check_zeta(Fraction(0), lambda d: 0, 12))
        return Op(key, ["series", prov], check=check_series(lambda d: n * d, 12))
    return key, make


def large_graph_slots() -> list[Slot]:
    slots = []
    for lo, hi, count in ((150, 300, 20), (300, 600, 6), (700, 900, 1)):
        for cands in _centred(lo, hi, count):
            slots.append(Slot([_analyze_cycle(n) for n in cands], heavy=lo >= 600))
    for j in range(22):
        base = gen.KODAIRA_SEEDS[j % len(gen.KODAIRA_SEEDS)]
        target = 150 + 150 * (j // len(gen.KODAIRA_SEEDS))
        slots.append(Slot([_analyze_blowup(base, target, s) for s in range(4)]))
    for j in range(6):
        n = 2 + j % 5
        nd = 150 + 75 * j
        slots.append(Slot([_analyze_transformed_cycle(n, nd // n + k) for k in range(4)]))
    for j in range(16):
        name = BASECHANGE_TREES[j % len(BASECHANGE_TREES)]
        e = orc.FIXTURES[name][2]
        band = gen.tame_degrees(e, 20 + 10 * j, 34 + 10 * j)
        slots.append(Slot([_basechange(name, d) for d in band[:4]]))
    for j in range(6):
        n = 2 + j % 5
        band = range(120 // n + 10 * j, 120 // n + 10 * j + 4)
        slots.append(Slot([_basechange("I%d" % n, d) for d in band]))
    for j in range(8):
        name = BASECHANGE_TREES[j % len(BASECHANGE_TREES)]
        e = orc.FIXTURES[name][2]
        band = gen.tame_degrees(e, 30 + 15 * j, 54 + 15 * j)
        slots.append(Slot([_check(name, d) for d in band[:4]]))
    for j in range(6):
        n = 2 + j % 5
        band = range(150 // n + 8 * j, 150 // n + 8 * j + 4)
        slots.append(Slot([_check("I%d" % n, d) for d in band]))
    for j in range(4):
        for zeta in (False, True):
            slots.append(Slot([_cycle_series(n, zeta) for n in range(160 + 60 * j, 164 + 60 * j)]))
    # The ladder rungs, once per pass: a 1505-vertex analyze,
    # basechange II -d 1009 --contract and check I5 -d 301.
    slots.append(Slot([_analyze_transformed_cycle(5, 301)], heavy=True))
    slots.append(Slot([_basechange("II", 1009)], heavy=True))
    slots.append(Slot([_check("I5", 301)], heavy=True))
    return slots


# -- series_algebra -----------------------------------------------------------

STAR_PRIMES = gen.primes_between(5, 41)
PRODUCT_SLOTS = 30
# Base pools of the product queries, chosen so that every product op costs
# about the same whatever the seed draws.  root_order and divides loop over
# every integer up to each base, so their bases lie in a narrow band near
# 10^4.  value_at_one and poly_str expand Phi_m for every m dividing a base
# and cache each expansion for the process; on composite bases that
# first-call cost depends on the factorisation (near 10^4 it swung 1.3-3.7 s
# between seeds, Python 3.11 on a 2-vCPU VM), so their bases are primes.
# Composite expansions are measured by the ``ones`` ops.
QUERY_BASES = range(9000, 10 ** 4 + 1)
VALUE_BASES = gen.primes_between(500, 10 ** 3)
EXPAND_BASES = gen.primes_between(60, 120)


def _pseries(n: int, p: int):
    key = "pseries.I%d.p%d" % (n, p)

    def make(ctx: Context) -> Op:
        base = ctx.write_curve("I%d.p%d" % (n, p), gen.cycle_doc(n, p))
        prov = ctx.write_provider("provider_" + key, base, {}, None, p)
        return Op(key, ["series", prov],
                  check=check_series(lambda d: n * d if d % p else 0, 2 * p + 2))
    return key, make


def _star_files(ctx: Context, q: int) -> tuple[str, str]:
    return (ctx.write_curve("star%d" % q, gen.star_doc(q)),
            ctx.write_curve("star%d.top" % q, gen.star_top_doc(q)))


def _star_analyze(q: int):
    key = "star.analyze.q%d" % q

    def make(ctx: Context) -> Op:
        g, phi = gen.star_genus(q), q ** (q - 2)

        def expect(doc: dict) -> str | None:
            bad = _fields(genus=g, phi=[q] * (q - 2), phi_order=phi, e_model=q)(doc)
            if bad:
                return bad
            P = orc.parse_poly(doc["P"])
            if max(P) != 2 * g or orc.eval_poly(P, 1) != phi:
                return "P has degree %d and P(1) = %d" % (max(P), orc.eval_poly(P, 1))
            return None
        return Op(key, ["analyze", _star_files(ctx, q)[0]], check=_json_check(expect))
    return key, make


def _star_series(q: int, sub: int | None):
    zeta = sub is not None
    key = "star.%s.q%d" % ("zeta" if zeta else "series", q) + (".j%d" % sub if zeta else "")

    def make(ctx: Context) -> Op:
        star, top = _star_files(ctx, q)
        jumps = gen.star_jumps(q, sub if zeta else 0)
        prov = ctx.write_provider("provider_" + key, star, {q: top}, jumps)
        phi = q ** (q - 2)
        if zeta:
            c_tame = sum((m * j for j, m in jumps), Fraction(0))
            return Op(key, ["zeta", prov],
                      check=check_zeta(c_tame, lambda d: phi if d % q else 0, 2 * q + 1))
        return Op(key, ["series", prov],
                  check=check_series(lambda d: phi if d % q else 1, 2 * q + 1))
    return key, make


def _star_basechange(q: int, check: bool):
    key = "star.%s.q%d.d2" % ("check" if check else "basechange", q)

    def make(ctx: Context) -> Op:
        star = _star_files(ctx, q)[0]
        if check:
            return Op(key, ["check", star, "-d", "2", "--json"],
                      check=check_laws(q ** (q - 2), 0, q, 2))
        g = gen.star_genus(q)
        return Op(key, ["basechange", star, "-d", "2", "--contract"],
                  check=_json_check(lambda doc: None if orc.genus_of(doc["curve"]) == g
                                    else "genus changed under base change"))
    return key, make


_FACTOR = re.compile(r"\(t(?:\^(\d+))?-1\)(?:\^(-?\d+))?")


def _parse_factored(text: str) -> dict[int, int]:
    if text == "1":
        return {}
    if "".join(m.group(0) for m in _FACTOR.finditer(text)) != text:
        raise ValueError("unparsable product %r" % text)
    return {int(m.group(1) or 1): int(m.group(2) or 1) for m in _FACTOR.finditer(text)}


def _product_queries(sub: int):
    """One op: ``root_order``, ``divides`` both ways, ``power_d``,
    ``value_at_one`` and ``poly_str`` on seeded products, through the API."""
    key = "products.%d" % sub

    def make(ctx: Context) -> Op:
        from neroncalc.cyclo import CycloProduct

        a = gen.polynomial_product(key, QUERY_BASES)
        c = gen.polynomial_product((key, "cofactor"), QUERY_BASES)
        b = {k: a.get(k, 0) + c.get(k, 0) for k in sorted(set(a) | set(c))}
        f = gen.factored_product(key, QUERY_BASES)
        d = gen.rng_for(key, "d").randint(2, 60)
        v = gen.factored_product((key, "value"), VALUE_BASES)
        x = gen.polynomial_product((key, "expand"), EXPAND_BASES)

        def call() -> str:
            A, B = CycloProduct(a), CycloProduct(b)
            return "\n".join([str(A.root_order()), str(A.divides(B)), str(B.divides(A)),
                              str(CycloProduct(f).power_d(d)),
                              str(CycloProduct(v).value_at_one()), CycloProduct(x).poly_str()])

        def check(rc: int, out: str, err: str) -> str | None:
            lines = out.split("\n")
            if lines[:3] != [str(orc.root_order(a)), "True", "False"]:
                return "root_order or divides wrong: %r" % lines[:3]
            if orc.phi_exponents(_parse_factored(lines[3])) != orc.phi_power_d(
                    orc.phi_exponents(f), d):
                return "power_d(%d) of %s gave %s" % (d, f, lines[3])
            if lines[4] != str(orc.value_at_one(v)):
                return "value_at_one of %s gave %s" % (v, lines[4])
            P = orc.parse_poly(lines[5])
            for t in (2, 3):
                want = 1
                for n, e in x.items():
                    want *= (t ** n - 1) ** e
                if orc.eval_poly(P, t) != want:
                    return "expansion of %s is wrong at t = %d" % (x, t)
            return None
        return Op(key, call=call, check=check)
    return key, make


def _ones(n: int):
    key = "ones.%d" % n

    def make(ctx: Context) -> Op:
        from neroncalc.cyclo import CycloProduct

        return Op(key, call=lambda: CycloProduct({n: 1, 1: -1}).poly_str(),
                  check=_text_check(orc.ones_poly_str(n)))
    return key, make


# Composite periods with many divisors, where expansion through the
# cyclotomic basis costs most.
ONES_N = (360, 420, 480, 504, 540, 600, 630, 660, 720, 840, 900, 960, 1008, 1080, 1200, 1260)


def series_algebra_slots() -> list[Slot]:
    slots = []
    # Series of I_n with prime periods: pure series assembly, which keeps
    # curves, linalg and invariants under a fifth of the traced time.  Nine
    # of them share one narrow band of periods, so that the 90th percentile
    # falls inside a block of ops of equal cost whatever the seed draws.
    for (lo, hi), count in (((47, 54), 1), ((59, 62), 1), ((71, 74), 1), ((83, 90), 1),
                            ((127, 131), 9), ((149, 151), 2)):
        primes = gen.primes_between(lo, hi)
        slots += [Slot([_pseries(n, p) for p in primes for n in range(2, 7)])] * count
    for q in STAR_PRIMES:
        slots.append(Slot([_star_analyze(q)]))
        slots.append(Slot([_star_series(q, None)]))
        slots.append(Slot([_star_series(q, s) for s in range(4)]))
    slots.append(Slot([_star_basechange(q, True) for q in (17, 19, 23)]))
    slots.append(Slot([_star_basechange(q, False) for q in (17, 19, 23)]))
    slots += [Slot([_product_queries(4 * j + k) for k in range(4)]) for j in range(PRODUCT_SLOTS)]
    for j in range(4):
        slots.append(Slot([_ones(n) for n in ONES_N[4 * j:4 * j + 4]]))
    return slots


# -- small_cli ----------------------------------------------------------------


def _cli_analyze(name: str):
    return "cli.analyze.%s" % name, lambda ctx: Op(
        "cli.analyze.%s" % name, ["analyze", fixture_path(name)], check=check_fixture_analyze(name))


def _cli_small(sub: int):
    key = "cli.analyze.small.%d" % sub

    def make(ctx: Context) -> Op:
        base, doc = gen.small_curve(ctx.fixtures, sub)
        return Op(key, ["analyze", ctx.write_curve(key, doc)], check=check_analyze(base))
    return key, make


def _provider_phi(ctx: Context, name: str):
    """``d -> |Phi(d)|`` and ``d -> |Phi(d)|`` on additive degrees else 0,
    for a shipped provider, from the fixture table."""
    with open(os.path.join(ctx.root, fixture_path(name)), encoding="utf-8") as fh:
        doc = json.load(fh)
    base = doc["base"][:-5]
    e = orc.FIXTURES[base][2]
    curves = {1: base, **{int(a): c[:-5] for a, c in doc["curves"].items()}}

    def phi(d: int) -> int:
        c = curves[gcd(d, e)]
        return orc.FIXTURES[c][1] * (d // gcd(d, e)) ** orc.FIXTURES[c][3]

    def additive(d: int) -> int:
        c = curves[gcd(d, e)]
        flat = orc.FIXTURES[c][3] == 0 and all(v["g"] == 0 for v in ctx.fixtures[c]["vertices"])
        return phi(d) if flat else 0
    c_tame = sum((Fraction(j["j"]) * j.get("m", 1) for j in doc["jumps"]), Fraction(0))
    return phi, additive, c_tame


def _cli_series(name: str, zeta: bool):
    key = "cli.%s.%s" % ("zeta" if zeta else "series", name)

    def make(ctx: Context) -> Op:
        phi, additive, c_tame = _provider_phi(ctx, name)
        if zeta:
            return Op(key, ["zeta", fixture_path(name)], check=check_zeta(c_tame, additive, 24))
        return Op(key, ["series", fixture_path(name)], check=check_series(phi, 24))
    return key, make


def _cli_hj(n: int, r: int):
    def expect(doc: dict) -> str | None:
        b = doc["b"]
        value = Fraction(b[-1])
        for x in reversed(b[:-1]):
            value = x - 1 / value
        return None if min(b) >= 2 and value == Fraction(n, r) else "digits %s do not give %d/%d" % (b, n, r)
    key = "cli.hj.%d.%d" % (n, r)
    return key, lambda ctx: Op(key, ["hj", "--n", str(n), "--r", str(r)], check=_json_check(expect))


def _cli_resolve(m1: int, m2: int, d: int):
    def expect(doc: dict) -> str | None:
        b, mu = doc["b"], doc["mu"]
        if doc["c"] != gcd(d, m1, m2):
            return "%d points above, expected gcd(d, m1, m2) = %d" % (doc["c"], gcd(d, m1, m2))
        if mu and (len(mu) != len(b) + 2 or any(
                mu[i - 1] + mu[i + 1] != b[i - 1] * mu[i] for i in range(1, len(mu) - 1))):
            return "chain multiplicities %s break mu_(i-1) + mu_(i+1) = b_i mu_i" % mu
        return None
    key = "cli.resolve.%d.%d.%d" % (m1, m2, d)
    argv = ["resolve", "--m1", str(m1), "--m2", str(m2), "--d", str(d)]
    return key, lambda ctx: Op(key, argv, check=_json_check(expect))


def _cli_elliptic(kind: str):
    key = "cli.elliptic.%s" % kind
    argv = ["elliptic", "--type", kind, "--vdelta", str(orc.ELLIPTIC_VDELTA[kind]),
            "--potential", "good"]
    want = str(orc.ELLIPTIC_C[kind])
    return key, lambda ctx: Op(key, argv, check=_json_check(_fields(c=want, c_tame=want)))


def _cli_genus2(vdmin: int, sigma: int, tau: int, deg: int):
    key = "cli.genus2.%d.%d.%d.%d" % (vdmin, sigma, tau, deg)
    argv = ["genus2", "--vdmin", str(vdmin), "--sigma", str(sigma), "--tau", str(tau),
            "--deg", str(deg)]
    want = str(Fraction(vdmin, 10) - Fraction(sigma + tau, 10 * deg))
    return key, lambda ctx: Op(key, argv, check=_json_check(_fields(c=want)))


def _cli_error(kind: str, sub: int):
    key = "cli.error.%s.%d" % (kind, sub)

    def make(ctx: Context) -> Op:
        rng = gen.rng_for(key)
        name = sorted(ctx.fixtures)[sub % len(ctx.fixtures)]
        if kind == "json":
            text = gen.dump(ctx.fixtures[name])
            path = ctx.write(key + ".json", text[:rng.randrange(1, len(text) - 1)])
            argv = ["analyze", path]
        elif kind == "loop":
            doc = json.loads(gen.dump(ctx.fixtures[name]))
            v = rng.choice(doc["vertices"])["id"]
            doc["edges"].insert(rng.randrange(len(doc["edges"]) + 1), [v, v])
            argv = ["analyze", ctx.write_curve(key, doc)]
        elif kind == "gcd":
            name = ("II", "III", "IV", "I0star", "IIstar", "g2_additive")[sub % 6]
            e = orc.FIXTURES[name][2]
            d = rng.choice([d for d in range(2, 26) if gcd(d, e) != 1])
            argv = ["basechange", fixture_path(name), "-d", str(d)]
        else:  # a provider missing the curve of one degree
            curves = {2: fixture_path("IV"), 3: fixture_path("I0star"), 6: fixture_path("I0")}
            del curves[(2, 3, 6)[sub % 3]]
            prov = ctx.write_provider(key, fixture_path("II"), curves, [(Fraction(1, 6), 1)])
            argv = [("series", "zeta")[sub % 2], prov]
        return Op(key, argv, check=_error_check)
    return key, make


ERROR_KINDS = ("json", "loop", "gcd", "provider")


def small_cli_slots() -> list[Slot]:
    names = CURVE_FIXTURES
    slots = [Slot([_cli_analyze(n) for n in names[j::8]]) for j in range(8)]
    slots += [Slot([_cli_small(4 * j + s) for s in range(4)]) for j in range(8)]
    for j in range(6):
        name = names[(3 * j + 1) % len(names)]
        tame = gen.tame_degrees(orc.FIXTURES[name][2], 2, 25)
        slots.append(Slot([_basechange(name, d, c, prefix="cli.") for d in tame[j % 3::3] for c in (True, False)]))
    for j in range(6):
        name = names[(5 * j + 2) % len(names)]
        tame = gen.tame_degrees(orc.FIXTURES[name][2], 2, 25)
        slots.append(Slot([_check(name, d, prefix="cli.") for d in tame]))
    for zeta in (False, True):
        slots += [Slot([_cli_series(p, zeta)]) for p in PROVIDERS]
    slots += [Slot([_cli_hj(n, r) for n in range(5, 40) for r in range(1, n)
                    if gcd(n, r) == 1 and (n + r) % 7 == j]) for j in range(2)]
    slots += [Slot([_cli_resolve(m1, m2, d) for m1 in range(1, 13) for m2 in range(1, 13)
                    for d in (5, 7, 11, 13) if (m1 * m2 + d) % 5 == j]) for j in range(2)]
    kinds = sorted(orc.ELLIPTIC_C)
    slots += [Slot([_cli_elliptic(k) for k in kinds[j::3]]) for j in range(3)]
    slots += [Slot([_cli_genus2(v, s, t, d) for v in range(10, 40, 3) for s in range(3)
                    for t in range(s + 1) for d in (1, 2, 4) if (v + s + d) % 2 == j])
              for j in range(2)]
    slots += [Slot([_cli_error(k, s) for s in range(8)]) for k in ERROR_KINDS]
    slots.append(Slot([_cli_error(k, 8 + s) for k in ERROR_KINDS for s in range(2)]))
    return slots


WORKLOADS = {
    "large_graph": (large_graph_slots, False),
    "series_algebra": (series_algebra_slots, False),
    "small_cli": (small_cli_slots, True),
}


def build(workload: str, seed: int, ctx: Context, smoke: bool = False) -> list[Op]:
    """The seed's op set: one item per slot, in seeded order.  A smoke set
    keeps every fourth light slot."""
    slots_of, _ = WORKLOADS[workload]
    slots = slots_of()
    if smoke:
        slots = [s for s in slots if not s.heavy][::4]
    rng = gen.rng_for(workload, seed)
    picks = [slot.items[rng.randrange(len(slot.items))] for slot in slots]
    rng.shuffle(picks)
    return [make(ctx) for _, make in picks]


def catalogue(workload: str) -> list[tuple[str, Callable[[Context], Op]]]:
    """Every item any seed can draw, each once."""
    slots_of, _ = WORKLOADS[workload]
    items = {}
    for slot in slots_of():
        for key, make in slot.items:
            items.setdefault(key, make)
    return list(items.items())
