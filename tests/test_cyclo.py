"""Factored cyclotomic arithmetic against expansion and resultant oracles."""

import time
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neroncalc.cyclo import CycloProduct, poly_str
from neroncalc.errors import PreconditionError

from cyclo_oracles import (
    concat_poly_str,
    cyclotomic,
    phi_basis_as_poly,
    poly_divexact,
    poly_eval,
    poly_mul,
)

t, x = sympy.symbols("t x")


def to_sympy(coeffs):
    return sum(c * t**i for i, c in enumerate(coeffs))


def test_phi_basis_conversion():
    P = CycloProduct({6: 1, 3: -1, 2: -1, 1: 1})
    assert P.phi_exponents() == {6: 1}
    assert P.as_poly() == [1, -1, 1]
    assert P.poly_str() == "t^2 - t + 1"

    square = CycloProduct({1: 2})
    assert square.as_poly() == [1, -2, 1]

    bad = CycloProduct({2: -1, 1: 1})
    assert bad.phi_exponents() == {2: -1}
    assert not bad.is_polynomial


def test_power_d_examples():
    assert CycloProduct({6: 1}).power_d(5) == CycloProduct({6: 1})
    assert CycloProduct({6: 1}).power_d(2) == CycloProduct({3: 2})
    phi6 = CycloProduct({6: 1, 3: -1, 2: -1, 1: 1})
    cubed = phi6.power_d(3)
    assert cubed.phi_exponents() == {2: 2}
    assert cubed.as_poly() == [1, 2, 1]


def test_multiplication_and_cancellation():
    assert CycloProduct({2: 1}) * CycloProduct({2: -1, 3: 2}) == CycloProduct({3: 2})
    assert CycloProduct() * CycloProduct() == CycloProduct()


def test_cyclotomic_against_sympy():
    for m in (1, 2, 3, 4, 6, 8, 12, 30, 105):
        ours = list(cyclotomic(m))
        theirs = sympy.Poly(sympy.cyclotomic_poly(m, t), t).all_coeffs()[::-1]
        assert ours == [int(c) for c in theirs]


factored = st.dictionaries(
    st.integers(1, 10), st.integers(-3, 3), min_size=0, max_size=4
)


@given(factored, st.integers(1, 12))
@settings(max_examples=200)
def test_power_d_preserves_degree(factors, d):
    P = CycloProduct(factors)
    assert P.power_d(d).degree == P.degree


@given(factored, st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=150)
def test_power_d_composes(factors, d1, d2):
    P = CycloProduct(factors)
    assert P.power_d(d1).power_d(d2) == P.power_d(d1 * d2)


@given(st.dictionaries(st.integers(1, 8), st.integers(0, 2), max_size=3), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_power_d_matches_resultant_on_roots(factors, d):
    """Independent oracle: the image polynomial is res_x(Q(x), t - x^d)."""
    P = CycloProduct(factors)
    Q = to_sympy(P.as_poly())
    image = to_sympy(P.power_d(d).as_poly())
    resultant = sympy.resultant(Q.subs(t, x), t - x**d, x)
    # the resultant convention contributes a sign (-1)^(deg Q * d); the image
    # polynomial is monic, so compare up to that sign
    assert (
        sympy.expand(resultant - image) == 0
        or sympy.expand(resultant + image) == 0
    )


def test_value_at_one_matches_expansion():
    for factors in ({6: 1}, {2: 2, 3: 1}, {4: 1, 2: 1}):
        P = CycloProduct(factors)
        assert P.value_at_one() == poly_eval(P.as_poly(), 1)
    assert CycloProduct({1: 1}).value_at_one() == 0
    # not polynomials, but the exponents of t - 1 cancel: prod a^{e_a}
    assert CycloProduct({4: -1, 2: 1}).value_at_one() == Fraction(1, 2)
    assert CycloProduct({3: -2, 5: 1, 1: 1}).value_at_one() == Fraction(5, 9)
    with pytest.raises(PreconditionError, match=r"^pole at t = 1$"):
        CycloProduct({1: -1}).value_at_one()


@given(factored, st.booleans())
@settings(max_examples=150, deadline=None)
def test_value_at_one_matches_sympy(factors, cancel):
    """Against ``cancel(prod (t^a - 1)^e)`` at ``t = 1``, on products that
    need not be polynomials; with ``cancel`` the exponent of ``t - 1`` is
    chosen so that ``sum e_a = 0``, the case with a nonzero value."""
    if cancel:
        factors = {**factors, 1: factors.get(1, 0) - sum(factors.values())}
    P = CycloProduct(factors)
    total = sum(e for _, e in P.factors)
    f = sympy.cancel(sympy.Mul(*[(t**a - 1) ** e for a, e in P.factors]))
    num, den = sympy.fraction(f)
    if den.subs(t, 1) == 0:
        assert total < 0
        with pytest.raises(PreconditionError, match=r"^pole at t = 1$"):
            P.value_at_one()
    else:
        value = sympy.Rational(num.subs(t, 1), den.subs(t, 1))
        assert P.value_at_one() == Fraction(int(value.p), int(value.q))
        assert (value == 0) == (total > 0)


def test_root_order():
    assert CycloProduct({6: 1, 3: -1, 2: -1, 1: 1}).root_order() == 6
    assert CycloProduct({1: 4}).root_order() == 1
    assert CycloProduct().root_order() == 1


def test_non_polynomial_is_one_precondition_error():
    bad = CycloProduct({2: -1, 1: 1})
    for method in (bad.as_poly, bad.root_order):
        with pytest.raises(PreconditionError, match=r"^not a polynomial$"):
            method()


def test_divides_is_phi_domination():
    phi6 = CycloProduct({6: 1, 3: -1, 2: -1, 1: 1})
    P = phi6 * CycloProduct({1: 2})
    assert phi6.divides(P)
    assert not P.divides(phi6)


def test_poly_helpers():
    assert poly_mul([1, 1], [-1, 1]) == [-1, 0, 1]
    assert poly_divexact([-1, 0, 1], [1, 1]) == [-1, 1]
    with pytest.raises(ValueError):
        poly_divexact([1, 0, 1], [1, 1])
    assert poly_str([0]) == "0"
    assert poly_str([-1, 0, 2]) == "2*t^2 - 1"


def test_pretty_factored_form():
    P = CycloProduct({6: 1, 1: -2})
    assert str(P) == "(t-1)^-2(t^6-1)"
    assert str(CycloProduct()) == "1"


PRIMES_TO_41 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def star(q):
    """A'Campo's product for the ``y^q`` star: centre ``N = q`` and ``q``
    reduced arms, ``(t-1)^(2-q) (t^q-1)^(q-2)``, of degree ``(q-1)(q-2)``."""
    return CycloProduct({1: -(q - 2), q: q - 2})


@pytest.mark.parametrize("factors", [star(q).factors for q in PRIMES_TO_41] + [
    {}, {1: 1}, {1: 2}, {2: 1}, {6: 1, 3: -1, 2: -1, 1: 1},  # degrees 0-3, both signs
    {1260: 1, 1: -1},  # 1260 lies above half the degree; t^30030 - 1 is in test_series_algebra
], ids=["star%d" % q for q in PRIMES_TO_41] + [
    "empty", "t-1", "(t-1)^2", "t^2-1", "phi6", "ones1260"])
def test_half_degree_expansion_equals_phi_basis_expansion(factors):
    P = CycloProduct(dict(factors))
    assert P.as_poly() == phi_basis_as_poly(P)


coefficients = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-100, 100),
    st.integers(10**30, 10**40),
    st.integers(-(10**40), -(10**30)),
)


@given(st.lists(coefficients, max_size=12))
@example([])
@example([0])
@example([-1])
@example([0, 0])
@example([1, -1])
@example([-(10**31), 0, 1])
@settings(max_examples=300)
def test_poly_str_equals_the_concatenating_printer(c):
    assert poly_str(c) == concat_poly_str(c)


def test_the_y199_star_expands_and_prints_within_budget():
    P = star(199)
    start = time.perf_counter()
    text = P.poly_str()
    assert time.perf_counter() - start < 1.5
    assert text.startswith("t^39006 + 197*t^39005 + ")
    assert text.endswith(" + 197*t + 1")
