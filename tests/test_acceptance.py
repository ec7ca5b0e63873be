"""Acceptance suite: one test per criterion, each printing a PASS line.

Every comparison is exact (integers, fractions, factored polynomials); the
only tolerances are wall-clock budgets, asserted per criterion.
"""

import random
import time
from fractions import Fraction
from math import gcd

from neroncalc.basechange import charpoly_commutation, compfu_check, transform
from neroncalc.conductors import (
    STANDARD_VDELTA,
    EllipticData,
    KodairaType,
    c_elliptic,
    ctame_elliptic,
    wild_defect,
)
from neroncalc.curves import contract_minus_one, genus, geometry
from neroncalc.hj import hj_value, resolve_chain
from neroncalc.invariants import (
    char_poly,
    component_group,
    stabilization_index,
    trace_identities,
)
from neroncalc.kodaira import ALL_FIXTURES, fixture_curve, good_elliptic, kodaira_curve
from neroncalc.ratseries import RationalSeries
from neroncalc.zeta import (
    JumpSet,
    ReductionProvider,
    component_series,
    euler_specialize,
    motivic_zeta,
    ord_function,
)

from conftest import random_curve
from linalg_oracles import smith_quotient
from test_basechange import isomorphic

ELLIPTIC_TABLE = {
    "I0": Fraction(0), "I5": Fraction(0), "II": Fraction(1, 6),
    "III": Fraction(1, 4), "IV": Fraction(1, 3), "I0*": Fraction(1, 2),
    "I2*": Fraction(1, 2), "IV*": Fraction(2, 3), "III*": Fraction(3, 4),
    "II*": Fraction(5, 6),
}


class budget:
    """Context manager asserting a wall-clock budget and printing the verdict."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print("ACCEPTANCE %s: %s (%.2fs / %.0fs budget)"
              % (self.name, verdict, elapsed, self.seconds))
        if exc_type is None:
            assert elapsed < self.seconds, "%s exceeded its time budget" % self.name
        return False


def plain(num, den=()):
    return RationalSeries({(n, 0, ()): Fraction(c) for n, c in num.items()}, den)


def test_criterion_01_component_group_fixtures():
    with budget("1 component groups", 1.0):
        assert component_group(fixture_curve("II")).is_trivial
        assert component_group(fixture_curve("I0*")).order == 4
        for n in range(2, 7):
            curve = kodaira_curve("I%d" % n)
            phi = component_group(curve)
            assert phi.order == n
            # independent route through the kernel-basis quotient
            beta = [[v.N for v in curve.vertices]]
            alpha = [
                [
                    geometry(curve).vertices[a.id].self_int if a.id == b.id
                    else sum(1 for e in curve.edges if set(e) == {a.id, b.id})
                    for b in curve.vertices
                ]
                for a in curve.vertices
            ]
            oracle, rank = smith_quotient(beta, alpha)
            assert rank == 0 and oracle == phi


def test_criterion_02_degree_law_on_random_graphs():
    with budget("2 degree law", 5.0):
        rng = random.Random(20260811)
        for _ in range(200):
            curve = random_curve(rng, max_vertices=8, max_mult=12)
            assert all(v.N <= 12 for v in curve.vertices)
            assert len(curve.vertices) <= 8
            assert char_poly(curve).degree == 2 * genus(curve)


def test_criterion_03_base_change_laws():
    with budget("3 base change laws", 30.0):
        for name in ALL_FIXTURES:
            curve = fixture_curve(name)
            e = stabilization_index(curve)
            for d in range(1, 26):
                if gcd(d, e * curve.p) != 1:
                    continue
                out, _ = transform(curve, d)
                assert charpoly_commutation(curve, d), (name, d)
                assert out.b1() == curve.b1(), (name, d)
                assert stabilization_index(out) == e, (name, d)
                before, after, factor = compfu_check(curve, d)
                assert after == before * factor, (name, d)


def test_criterion_04_type_II_to_II_star():
    with budget("4 II -> II*", 1.0):
        out, _ = transform(fixture_curve("II"), 5)
        minimal = contract_minus_one(out)
        assert sorted(v.N for v in minimal.vertices) == [1, 2, 2, 3, 3, 4, 4, 5, 6]
        assert isomorphic(minimal, fixture_curve("II*"))


def test_criterion_05_hirzebruch_jung_suite():
    with budget("5 HJ suite", 10.0):
        from neroncalc.hj import hj_expand

        for n in range(2, 501):
            for r in range(1, n):
                if gcd(n, r) == 1:
                    assert hj_value(hj_expand(n, r)) == Fraction(n, r)
        for n in range(2, 31):
            for m1 in range(1, 13):
                if gcd(n, m1) != 1:
                    continue
                for m2 in range(1, 13):
                    if gcd(n, m2) != 1:
                        continue
                    r = (-m1 * pow(m2, -1, n)) % n
                    if r:
                        assert resolve_chain(m1, m2, n, r).mu[-1] == m1


def test_criterion_06_component_series():
    with budget("6 component series", 30.0):
        star = ReductionProvider(
            fixture_curve("I0*"), {2: good_elliptic()},
            JumpSet([(Fraction(1, 2), 1)]),
        )
        s = component_series(star)
        assert s == plain({1: 4, 2: 1}, [(0, 2)])
        assert s.pole_order_at_one() == 1 and s.degree() == 0

        cycle = ReductionProvider(fixture_curve("I2"), {}, JumpSet([]))
        s2 = component_series(cycle)
        assert s2 == plain({1: 2}, [(0, 1), (0, 1)])
        assert s2.pole_order_at_one() == 2 and s2.degree() == -1

        for provider in (star, cycle):
            coeffs = component_series(provider).expand(24)
            for d in range(1, 25):
                if gcd(d, provider.e * provider.p) != 1:
                    continue
                out, _ = transform(provider.base, d)
                assert coeffs.get((d, 0, ()), 0) == component_group(out).order


def test_criterion_07_zeta_specializations():
    with budget("7 zeta specializations", 5.0):
        star = ReductionProvider(
            fixture_curve("I0*"), {2: good_elliptic()},
            JumpSet([(Fraction(1, 2), 1)]),
        )
        assert euler_specialize(star) == plain({1: 4}, [(0, 2)])

        cycle = ReductionProvider(fixture_curve("I2"), {}, JumpSet([]))
        expected = RationalSeries(
            {(1, 1, ()): Fraction(2), (1, 0, ()): Fraction(-2)},
            [(0, 1), (0, 1)],
        )
        assert motivic_zeta(cycle) == expected

        two = ReductionProvider(
            fixture_curve("II"),
            {2: fixture_curve("IV"), 3: fixture_curve("I0*"), 6: good_elliptic()},
            JumpSet([(Fraction(1, 6), 1)]),
        )
        slope, order = motivic_zeta(two).unique_pole_slope()
        assert slope == Fraction(1, 6) == two.jumps.c_tame
        assert order == 1  # potential good reduction: t_tame = 0


def test_criterion_08_trace_formula():
    with budget("8 trace formula", 1.0):
        checked = 0
        for name in ALL_FIXTURES:
            curve = fixture_curve(name)
            geo = geometry(curve)
            if geo.b1 or geo.abelian_rank:
                continue
            report = trace_identities(curve)
            assert report.additive
            assert (
                report.char_value_at_one
                == report.phi_prime_order
                == report.valency_product
            ), name
            checked += 1
        assert checked == 12  # the 11 additive Kodaira types plus the genus-2 tree


def test_criterion_09_conductor_tables():
    with budget("9 conductor tables", 1.0):
        for symbol, value in ELLIPTIC_TABLE.items():
            kt = KodairaType.parse(symbol)
            assert ctame_elliptic(kt) == value
            v_delta = STANDARD_VDELTA[kt.kind](kt.n)
            mult = kt.kind in ("I", "I*") and (kt.n or 0) > 0
            data = EllipticData(
                kt, v_delta, "multiplicative" if mult else "good",
                v_j=-kt.n if mult else None,
            )
            assert c_elliptic(data) == value, symbol

        # wild quadratic example: c = 1/2 while c_tame = 1/6
        wild = EllipticData(KodairaType.parse("II"), 6, "good", p=2)
        assert c_elliptic(wild) == Fraction(1, 2)
        assert ctame_elliptic("II") == Fraction(1, 6)

        # residue characteristic 2 star branch: c = (delta + 2)/4, v_j = 2 delta - n
        for delta, n in ((1, 6), (2, 8), (3, 10)):
            data = EllipticData(
                KodairaType("I*", n), n + 6 + delta, "multiplicative",
                v_j=2 * delta - n, delta_wild=delta, p=2,
            )
            report = wild_defect(data)
            assert report.c == Fraction(delta + 2, 4)
            assert report.v_j_derived == 2 * delta - n
            assert c_elliptic(data) == report.c


def test_criterion_10_ord_jump_coherence():
    with budget("10 ord/jump coherence", 1.0):
        for symbol, c_tame in ELLIPTIC_TABLE.items():
            jumps = JumpSet([(c_tame, 1)])
            e = stabilization_index(kodaira_curve(symbol))
            assert Fraction(c_tame).denominator == e, symbol
            step = e * jumps.c_tame
            assert step.denominator == 1
            for alpha in range(1, e + 1):
                base = ord_function(jumps, alpha)
                for q in range(21):
                    assert ord_function(jumps, alpha + q * e) == base + q * int(step)
