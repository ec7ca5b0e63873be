"""Rational series ring: closed forms against direct summation."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neroncalc.errors import NonIntegralAssembly, NonReducible, PreconditionError
from neroncalc.ratseries import RationalSeries, _progression_sum

from series_oracles import geometric_sum, scale, series_product, subs_T_power


def series_from(num, den=()):
    return RationalSeries({k: Fraction(v) for k, v in num.items()}, den)


def test_geometric_sum_examples():
    assert geometric_sum(2, 1, 0, 0) == series_from({(1, 0, ()): 1}, [(0, 2)])
    assert geometric_sum(1, 1, 1, 0) == series_from({(1, 0, ()): 1}, [(0, 1), (0, 1)])
    assert geometric_sum(2, 1, 0, 1) == series_from({(1, 0, ()): 1}, [(1, 2)])


def test_geometric_sum_prints_its_repeated_factor():
    assert str(geometric_sum(1, 1, 1, 0)) == "(T) / (1 - T) (1 - T)"


@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 3),
    st.integers(0, 3),
)
@settings(max_examples=100, deadline=None)
def test_geometric_sum_matches_direct_summation(e, b, t, w):
    order = 20
    expanded = geometric_sum(e, b, t, w).expand(order)
    direct = {}
    q = 0
    while q * e + b <= order:
        n = q * e + b
        direct[(n, q * w, ())] = Fraction(n**t)
        q += 1
    assert expanded == direct


def test_geometric_sum_refuses_a_negative_power():
    # sum (q + 1)^{-1} T^{q + 1} has no closed form in this ring
    with pytest.raises(PreconditionError, match=r"\bt\b"):
        geometric_sum(1, 1, -1, 0)


def test_addition_crosses_denominators():
    s = RationalSeries.sum((scale(geometric_sum(2, 1, 0, 0), 4),
                            subs_T_power(geometric_sum(1, 1, 0, 0), 2)))
    assert s == series_from({(1, 0, ()): 4, (2, 0, ()): 1}, [(0, 2)])
    assert s.pole_order_at_one() == 1
    assert s.degree() == 0


def test_multiplication_and_substitution_via_expansion():
    a = geometric_sum(1, 1, 0, 0)
    product = series_product(a, a)
    expect = {(n, 0, ()): Fraction(n - 1) for n in range(2, 11)}
    assert {k: v for k, v in product.expand(10).items() if k[0] >= 2} == expect
    assert subs_T_power(a, 3).expand(9) == {
        (3, 0, ()): Fraction(1),
        (6, 0, ()): Fraction(1),
        (9, 0, ()): Fraction(1),
    }


def test_reduction_cancels_shared_factor():
    one_minus_t = series_from({(0, 0, ()): 1, (1, 0, ()): -1})
    s = series_product(one_minus_t, geometric_sum(1, 1, 1, 0))
    # (1 - T) * T/(1-T)^2 == T/(1-T)
    assert s.den == ((0, 1),)
    assert s == geometric_sum(1, 1, 0, 0)


def test_reduction_keeps_negative_T_degrees():
    """``(T^-1 - 1) / (1 - T)`` is ``T^-1``: the quotient starts below ``T^0``."""
    s = RationalSeries({(-1, 0, ()): 1, (0, 0, ()): -1}, ((0, 1),))
    assert str(s) == "T^-1" and s.den == ()
    assert s.expand(3) == {(-1, 0, ()): 1}


def test_exact_quotient_skips_the_gap_between_terms():
    """``(1 - T)(1 + T^N) / (1 - T)`` at ``N = 10^8`` reduces to ``1 + T^N``
    at the cost of its four terms: a stretch whose running sum is 0 is
    not walked."""
    n = 10 ** 8
    start = time.perf_counter()
    s = RationalSeries({(0, 0, ()): 1, (1, 0, ()): -1, (n, 0, ()): 1, (n + 1, 0, ()): -1},
                       [(0, 1)])
    assert time.perf_counter() - start < 1.0
    assert s.den == () and s.num == (((0, 0, ()), 1), ((n, 0, ()), 1))
    assert str(s) == "1 + T^100000000"


def test_pole_order_counts_net_vanishing():
    assert geometric_sum(1, 1, 1, 0).pole_order_at_one() == 2
    s = series_from({(1, 0, ()): 4, (2, 0, ()): 1}, [(0, 2)])
    assert s.pole_order_at_one() == 1
    balanced = series_from({(0, 0, ()): 1, (1, 0, ()): -1})
    assert balanced.pole_order_at_one() == 0


def test_unique_pole_slope():
    z = series_from({(1, 1, ()): 1}, [(1, 6)])
    assert z.unique_pole_slope() == (Fraction(1, 6), 1)
    with pytest.raises(NonReducible):
        series_from({(1, 0, ()): 1}, [(0, 1), (1, 2)]).unique_pole_slope()
    with pytest.raises(NonReducible):
        series_from({(1, 0, ()): 1}).unique_pole_slope()


def test_degree():
    assert series_from({(1, 0, ()): 4, (2, 0, ()): 1}, [(0, 2)]).degree() == 0
    assert geometric_sum(1, 1, 1, 0).degree() == -1
    assert geometric_sum(1, 1, 0, 0).degree() == 0


@pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(-7, 3), 0.5, 1.0, "1", True],
                         ids=["half", "minus_7_thirds", "float", "integral_float", "str", "bool"])
def test_constructor_refuses_a_non_integer_coefficient(coeff):
    """The constructor is the only integrality judge: a numerator given as a
    dictionary or as its items reaches it alike."""
    for build in (lambda: RationalSeries({(1, 0, ()): 1, (2, 0, ()): coeff}, [(0, 1)]),
                  lambda: RationalSeries([((1, 0, ()), coeff)])):
        with pytest.raises(NonIntegralAssembly) as info:
            build()
        assert str(info.value) == ("series coefficient is not an integer: a %s"
                                   % type(coeff).__name__)


def test_scale_refuses_a_quotient_that_is_not_integral():
    with pytest.raises(NonIntegralAssembly):
        scale(geometric_sum(2, 1, 0, 0), Fraction(1, 3))
    with pytest.raises(NonIntegralAssembly):  # 2 T^2 / (1 - T^2)^2: over 2, not over 4
        scale(geometric_sum(2, 2, 1, 0), Fraction(1, 4))


@pytest.mark.parametrize("a, k, b, t", [(2, 1, 1, 1), (2, 3, 1, 3), (3, 2, 2, 2), (5, 1, 1, 4)])
def test_scale_by_an_exact_divisor_stores_ints(a, k, b, t):
    """``sum_q (q e + a b)^t T^{q e + a b}`` with ``a | e`` is divisible by
    ``a^t``: its scale by ``1/a^t`` holds ``int`` coefficients and is the
    strided progression."""
    e = a * k
    s = scale(geometric_sum(e, a * b, t, 0), Fraction(1, a**t))
    assert s.num and all(type(v) is int for _, v in s.num)
    assert s.to_dict() == _progression_sum({(a * b, 0, ()): 1}, e, t, 0, a).to_dict()


starts = st.dictionaries(
    st.tuples(st.integers(-2, 6), st.integers(-2, 2),
              st.lists(st.integers(1, 3), max_size=2).map(lambda x: tuple(sorted(x)))),
    st.integers(-10**6, 10**6), max_size=5)


@given(starts, st.integers(1, 4), st.integers(1, 4), st.integers(0, 4), st.integers(-2, 2))
@settings(max_examples=150, deadline=None)
def test_strided_progression_is_the_substituted_one(start_k, a, k, t, w):
    """Stride ``a`` over degrees ``a n`` and period ``e = a k`` is the
    unstrided progression over ``n`` and ``k``, with ``T -> T^a``."""
    start = {(n * a, l, ab): v for (n, l, ab), v in start_k.items()}
    strided = _progression_sum(start, a * k, t, w, a)
    assert strided.to_dict() == subs_T_power(_progression_sum(start_k, k, t, w, 1), a).to_dict()
    assert all(type(v) is int for _, v in strided.num)


keys = st.tuples(st.integers(0, 6), st.integers(-2, 2),
                 st.lists(st.integers(1, 3), max_size=2).map(lambda x: tuple(sorted(x))))


@given(
    st.dictionaries(keys, st.integers(-10**20, 10**20), max_size=5),
    st.lists(st.sampled_from([(0, 1), (0, 2), (1, 1), (-1, 3)]), max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_fraction_inputs_build_the_int_series(num, den):
    from_ints = RationalSeries(num, den)
    from_fractions = RationalSeries({k: Fraction(v) for k, v in num.items()}, den)
    assert from_fractions.num == from_ints.num
    assert from_fractions.to_dict() == from_ints.to_dict()
    assert all(type(v) is int for _, v in from_fractions.num)


def test_abelian_symbols_multiply_as_multisets():
    a = RationalSeries({(1, 0, (1,)): 1})
    b = RationalSeries({(2, 0, (2,)): 2})
    assert series_product(a, b).num == (((3, 0, (1, 2)), Fraction(2)),)


def test_equality_is_representation_free():
    lhs = series_from({(1, 0, ()): 1}, [(0, 1)])
    rhs = series_from({(1, 0, ()): 1, (2, 0, ()): -1}, [(0, 1), (0, 1)])
    assert lhs == rhs
    assert hash(lhs) == hash(rhs)


def test_equal_series_hash_alike_across_factor_periods():
    # 1/(1 - T) == (1 + T)/(1 - T^2), but neither form reduces to the other
    lhs = series_from({(0, 0, ()): 1}, [(0, 1)])
    rhs = series_from({(0, 0, ()): 1, (1, 0, ()): 1}, [(0, 2)])
    assert lhs == rhs and lhs.den != rhs.den
    assert len({lhs, rhs}) == 1


@given(
    st.dictionaries(st.integers(0, 4), st.integers(-3, 3), max_size=3),
    st.sampled_from([(0, 1), (0, 2), (1, 1), (1, 3)]),
    st.integers(2, 3),
)
@settings(max_examples=60, deadline=None)
def test_hash_survives_widening_a_factor(coeffs, factor, k):
    # num/(1 - L^a T^b) == num (1 + ... + L^{(k-1)a} T^{(k-1)b}) / (1 - L^{ka} T^{kb})
    a, b = factor
    num = {(n, 0, ()): c for n, c in coeffs.items()}
    wide = {}
    for (n, l, ab), c in num.items():
        for j in range(k):
            key = (n + j * b, l + j * a, ab)
            wide[key] = wide.get(key, 0) + c
    lhs = series_from(num, [factor])
    rhs = series_from(wide, [(k * a, k * b)])
    assert lhs == rhs and hash(lhs) == hash(rhs)


def test_zero_series_has_no_denominator():
    assert series_from({}, [(0, 1)]).to_dict() == RationalSeries({}).to_dict()
    s = geometric_sum(2, 1, 0, 0)
    assert RationalSeries.sum((s, scale(s, -1))).den == ()


def test_pretty_and_json_round():
    s = series_from({(1, 0, ()): 4, (2, 0, ()): 1}, [(0, 2)])
    assert str(s) == "(4*T + T^2) / (1 - T^2)"
    doc = s.to_dict()
    assert doc["den"] == [[0, 2]]
    assert doc["num"][0] == {"T": 1, "L": 0, "B": [], "c": 4}
    z = series_from({(1, 1, (1,)): -1}, [(1, 6)])
    assert str(z) == "(-L*[B(1)]*T) / (1 - L T^6)"
