"""Component series, order function, motivic zeta and its specialization."""

import json
import os
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neroncalc.basechange import transform
from neroncalc.curves import SncdCurve, genus, geometry
from neroncalc.errors import (
    InconsistentData,
    ParseError,
    ProviderIncomplete,
)
from neroncalc.invariants import component_group, stabilization_index
from neroncalc.kodaira import fixture_curve, good_elliptic
from neroncalc.ratseries import RationalSeries
from neroncalc.zeta import (
    JumpSet,
    ReductionProvider,
    component_series,
    euler_characteristic_map,
    euler_specialize,
    load_provider,
    motivic_zeta,
    _ord_values,
)

from provider_sweep import (
    kodaira_II_provider,
    kodaira_In_star_provider,
    law_providers,
    looped_provider,
    star_provider,
)
from series_oracles import ord_function

JUMP_TABLE = {
    "I0": Fraction(0),
    "I2": Fraction(0),
    "II": Fraction(1, 6),
    "III": Fraction(1, 4),
    "IV": Fraction(1, 3),
    "I0*": Fraction(1, 2),
    "IV*": Fraction(2, 3),
    "III*": Fraction(3, 4),
    "II*": Fraction(5, 6),
}


def provider_I0star():
    return ReductionProvider(
        fixture_curve("I0*"),
        {2: good_elliptic()},
        JumpSet([(Fraction(1, 2), 1)]),
    )


def provider_I2():
    return ReductionProvider(fixture_curve("I2"), {}, JumpSet([]))


def provider_II():
    return ReductionProvider(
        fixture_curve("II"),
        {2: fixture_curve("IV"), 3: fixture_curve("I0*"), 6: good_elliptic()},
        JumpSet([(Fraction(1, 6), 1)]),
    )


def test_provider_takes_a_degree_dividing_the_index():
    # II at d = 2 is IV; transform refuses d = 2 | e, the provider checks e / 2
    provider = ReductionProvider(
        fixture_curve("II"),
        {2: fixture_curve("IV"), 3: fixture_curve("I0*"), 6: good_elliptic()},
    )
    assert provider.e == 6
    assert stabilization_index(provider.curves[2]) == 3


def test_provider_refuses_a_missing_degree_at_construction():
    with pytest.raises(ProviderIncomplete) as info:
        ReductionProvider(fixture_curve("II"), {2: fixture_curve("IV")})
    assert str(info.value) == "missing reduction data for degrees [3, 6]"


def test_provider_names_a_bad_jump_before_a_missing_degree():
    with pytest.raises(InconsistentData) as info:
        ReductionProvider(fixture_curve("II"), {2: fixture_curve("IV")},
                          JumpSet([(Fraction(1, 4), 1)]))
    assert str(info.value) == "jump 1/4 is not a multiple of 1/e with e=6"


def provider_good():
    return ReductionProvider(good_elliptic(), {}, JumpSet([(Fraction(0), 1)]))


# cycles, I_n*, stars, II, a looped e = 3 base and bananas at p in {1, 2, 3, 5, 7, 11, 13}
LAW_PROVIDERS = [pytest.param(make, id=name) for name, make in law_providers()]


def plain(num, den=()):
    return RationalSeries({(n, 0, ()): Fraction(c) for n, c in num.items()}, den)


def test_component_series_closed_forms():
    assert component_series(provider_I0star()) == plain({1: 4, 2: 1}, [(0, 2)])
    assert component_series(provider_I2()) == plain({1: 2}, [(0, 1), (0, 1)])
    assert component_series(provider_good()) == plain({1: 1}, [(0, 1)])


def test_component_series_pole_and_degree():
    s = component_series(provider_I0star())
    assert s.pole_order_at_one() == 1 and s.degree() == 0
    s = component_series(provider_I2())
    assert s.pole_order_at_one() == 2 and s.degree() == -1
    s = component_series(provider_good())
    assert s.pole_order_at_one() == 1 and s.degree() == 0
    s = component_series(provider_II())
    assert s.pole_order_at_one() == 1 and s.degree() == 0


@pytest.mark.parametrize(
    "make", [provider_I0star, provider_I2, provider_II] + LAW_PROVIDERS
)
def test_component_series_against_transform_oracle(make):
    """At each ``d <= 24`` prime to ``e p``, the component series and the
    zeta both count the components of the degree-``d`` transform."""
    provider = make()
    coeffs = component_series(provider).expand(24)
    zeta = motivic_zeta(provider).expand(24)
    e, p = provider.e, provider.p
    for d in range(1, 25):
        if gcd(d, e * p) != 1:
            continue
        out, _ = transform(provider.base, d)
        direct = component_group(out).order
        assert coeffs.get((d, 0, ()), 0) == direct, "degree %d" % d
        # (L - 1)^t L^k [B] |Phi(d)|: the top power of L carries the count
        top = max(((l, v) for (n, l, _), v in zeta.items() if n == d), default=(0, 0))
        assert top[1] == direct, "zeta at degree %d" % d


@pytest.mark.parametrize("make", LAW_PROVIDERS)
def test_series_run_over_the_tame_degrees(make):
    """Over two periods ``lcm(e, p)``: no series has a ``T^d`` with ``p | d``,
    and the zeta's ``T^d`` coefficient is ``(L - 1)^t L^{u + ord(d)} [B]``
    of the degree ``gcd(d, e)`` fiber times the component series' count."""
    provider = make()
    e, p = provider.e, provider.p
    order = 2 * lcm(e, p)
    counts = component_series(provider).expand(order)
    zeta = motivic_zeta(provider).expand(order)
    for series in (counts, zeta, euler_specialize(provider).expand(order)):
        assert [n for n, _, _ in series if p > 1 and n % p == 0] == []
    want = {}
    for (d, _, _), count in counts.items():
        curve = provider.curves[gcd(d, e)]
        geo = geometry(curve)
        t = geo.b1
        l = provider.genus - t - geo.abelian_rank + ord_function(provider.jumps, d)
        ab = tuple(sorted(filter(None, curve.g)))
        for k in range(t + 1):
            want[(d, l + k, ab)] = comb(t, k) * (-1) ** (t - k) * count
    assert zeta == want


@pytest.mark.parametrize(
    "make", [provider_I0star, provider_I2, provider_II, provider_good]
)
def test_component_series_pole_is_max_toric_rank_plus_one(make):
    provider = make()
    t_tame = max(geometry(c).b1 for c in provider.curves.values())
    assert component_series(provider).pole_order_at_one() == t_tame + 1


@pytest.mark.parametrize(
    "make", [provider_I0star, provider_I2, provider_II, provider_good]
)
def test_component_series_degree_sign(make):
    provider = make()
    top = provider.curves[provider.e]
    geo = geometry(top)
    potential_good = geo.b1 == 0 and geo.abelian_rank == genus(top)
    degree = component_series(provider).degree()
    assert (degree == 0) == (provider.p == 1 and potential_good)
    assert degree <= 0


def test_component_series_requires_all_divisors():
    base = fixture_curve("II")
    with pytest.raises(ProviderIncomplete, match="2"):
        component_series(ReductionProvider(base, {}))


def test_ord_function_examples():
    sixth = JumpSet([(Fraction(1, 6), 1)])
    assert _ord_values(sixth, (7, 5)) == [1, 0]
    assert _ord_values(JumpSet([(Fraction(1, 2), 2)]), (1,)) == [0]


def test_ord_function_periodicity():
    for name, j in JUMP_TABLE.items():
        jumps = JumpSet([(j, 1)])
        e = j.denominator
        c_tame = jumps.c_tame
        step = e * c_tame
        assert step.denominator == 1
        for alpha in range(1, e + 1):
            base, *later = _ord_values(jumps, [alpha + q * e for q in range(21)])
            assert later == [base + q * int(step) for q in range(1, 21)]


jump_sets = st.lists(
    st.tuples(
        st.integers(1, 10**6).flatmap(
            lambda den: st.builds(Fraction, st.integers(0, den - 1), st.just(den))
        ),
        st.integers(1, 5),
    ),
    max_size=40,
).map(JumpSet)


@given(jump_sets, st.one_of(st.just(0), st.integers(0, 10**40)))
@settings(max_examples=200, deadline=None)
def test_ord_function_matches_the_floor_sum(jumps, d):
    assert _ord_values(jumps, (d,)) == [ord_function(jumps, d)]


def test_motivic_zeta_closed_forms():
    z = motivic_zeta(provider_I2())
    torus = RationalSeries(
        {(1, 1, ()): Fraction(2), (1, 0, ()): Fraction(-2)}, [(0, 1), (0, 1)]
    )
    assert z == torus  # 2 (L - 1) T / (1 - T)^2

    zg = motivic_zeta(provider_good())
    assert zg == RationalSeries({(1, 0, (1,)): Fraction(1)}, [(0, 1)])

    zii = motivic_zeta(provider_II())
    assert zii.expand(1) == {(1, 1, ()): 1}  # one copy of L at T^1
    slope, order = zii.unique_pole_slope()
    assert (slope, order) == (Fraction(1, 6), 1)
    assert zii.degree() == 0


def test_motivic_zeta_pole_matches_conductor():
    z = motivic_zeta(provider_I0star())
    slope, order = z.unique_pole_slope()
    assert slope == Fraction(1, 2) and order == 1
    z2 = motivic_zeta(provider_I2())
    slope2, order2 = z2.unique_pole_slope()
    assert slope2 == 0 and order2 == 2  # toric rank 1 -> order t+1


def test_motivic_zeta_term_by_term():
    z = motivic_zeta(provider_I2())
    coeffs = z.expand(9)
    for d in range(1, 10):
        # |Phi| = 2d on a cycle, class (L-1), ord = 0
        assert coeffs.get((d, 1, ()), 0) == 2 * d
        assert coeffs.get((d, 0, ()), 0) == -2 * d


def test_euler_specialization_closed_forms():
    assert euler_specialize(provider_I0star()) == plain({1: 4}, [(0, 2)])
    assert euler_specialize(provider_I2()) == RationalSeries({})
    assert euler_specialize(provider_good()) == RationalSeries({})


@pytest.mark.parametrize(
    "make", [provider_I0star, provider_I2, provider_II, provider_good] + LAW_PROVIDERS
)
def test_euler_equals_chi_of_zeta(make):
    provider = make()
    assert euler_specialize(provider) == euler_characteristic_map(
        motivic_zeta(provider)
    )


@pytest.mark.parametrize("make", [
    kodaira_II_provider, looped_provider,
    lambda p: kodaira_In_star_provider(1, p), lambda p: star_provider(3, p),
], ids=["II", "looped", "I1star", "star3"])
def test_composite_p_gives_the_series_of_its_prime(make):
    """At p = 4 the tame degrees are those prime to 2, so each series is
    the one at p = 2, whatever the period ``lcm(e, p)`` it is built over."""
    two, four = make(2), make(4)
    assert four.stable_degrees == two.stable_degrees
    assert component_series(four) == component_series(two)
    assert euler_specialize(four) == euler_specialize(two)
    if two.jumps is not None:
        assert motivic_zeta(four) == motivic_zeta(two)


def test_provider_validation():
    with pytest.raises(InconsistentData, match="index"):
        ReductionProvider(fixture_curve("II"), {2: fixture_curve("I0*")})
    with pytest.raises(InconsistentData, match="genus"):
        # right stabilization index for degree 2 over e = 6, wrong genus
        ReductionProvider(
            fixture_curve("g2_additive"), {2: fixture_curve("IV")}
        )
    with pytest.raises(InconsistentData, match="divisor"):
        ReductionProvider(fixture_curve("II"), {4: good_elliptic()})
    with pytest.raises(InconsistentData, match="jump"):
        ReductionProvider(
            fixture_curve("I0*"),
            {2: good_elliptic()},
            JumpSet([(Fraction(1, 3), 1)]),
        )
    with pytest.raises(InconsistentData, match="genus"):
        ReductionProvider(
            good_elliptic(), {}, JumpSet([(Fraction(0), 2)])
        )


def test_provider_is_frozen():
    """Built from a dict in any order, with the base again as degree 1, a
    provider keeps the checked curves in degree order; nothing can change."""
    curves = {6: good_elliptic(), 2: fixture_curve("IV"), 3: fixture_curve("I0*"),
              1: fixture_curve("II")}
    provider = ReductionProvider(fixture_curve("II"), curves, JumpSet([(Fraction(1, 6), 1)]))
    for name in ("jumps", "curves", "e"):
        with pytest.raises(AttributeError):
            setattr(provider, name, None)
    with pytest.raises(TypeError):
        provider.curves[2] = fixture_curve("I0*")
    curves[2] = fixture_curve("I0*")
    del curves[3]
    assert list(provider.curves) == [1, 2, 3, 6] and provider.curves[1] is provider.base
    assert provider == provider_II() and provider.curves[2] == fixture_curve("IV")


@pytest.mark.parametrize("degree, curve, message", [
    (1, "I0", "curve for degree 1 is not the base curve"),
    (2.5, "IV", "degree of type float is not an integer"),
    ("x", "IV", "degree of type str is not an integer"),
    (True, "II", "degree of type bool is not an integer"),
    # past the interpreter's 4300-digit limit, where ``repr`` of the degree fails
    (Fraction(10 ** 5000), "IV", "degree of type Fraction is not an integer"),
    (10 ** 3000, "IV", "degree 10000000000000000000... (3001 characters) "
     "is not a prime-to-p divisor of e=6"),
    # past the interpreter's 4300-digit limit, where ``str`` of the degree fails
    (10 ** 5000, "IV", "degree 10000000000000000000... (5001 characters) "
     "is not a prime-to-p divisor of e=6"),
    (-10 ** 5000, "IV", "degree -1000000000000000000... (5002 characters) "
     "is not a prime-to-p divisor of e=6"),
], ids=["other_base", "float", "str", "bool", "fraction_5001_digits", "3001_digits", "5001_digits", "minus_5001_digits"])
def test_provider_refuses_a_degree(degree, curve, message):
    with pytest.raises(InconsistentData) as info:
        ReductionProvider(fixture_curve("II"), {degree: fixture_curve(curve)})
    assert str(info.value) == message and len(message) < 200


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


@pytest.mark.parametrize("curve, message", [
    (SncdCurve([("o", 1, 1)], [], 10 ** 5000),
     "curve for degree 2 has p=10000000000000000000... (5001 characters)"),
    (SncdCurve([("o", 10 ** 5000, 1)], []),
     "curve for degree 2 has index 10000000000000000000... (5001 characters), expected 3"),
], ids=["p_5001_digits", "index_5001_digits"])
def test_provider_names_a_long_p_or_index_of_a_curve(curve, message):
    with pytest.raises(InconsistentData) as info:
        ReductionProvider(fixture_curve("II"), {2: curve})
    assert str(info.value) == message


@pytest.mark.parametrize("first, second, shown", [
    ("02", "2", "2"),
    ("2", "02", "2"),
    ("0" + "1" * 3000, "1" * 3000, "%s... (3000 characters)" % ("1" * 20)),
], ids=["padded_first", "padded_second", "3000_digits"])
def test_provider_refuses_a_degree_given_twice(tmp_path, first, second, shown):
    """Two keys naming one degree are refused in either order: neither curve
    may silently replace the other."""
    curves = {first: "I0star.json", second: "IV.json", "3": "I0star.json", "6": "I0.json"}
    doc = {"base": os.path.join(FIXTURES, "II.json"),
           "curves": {a: os.path.join(FIXTURES, name) for a, name in curves.items()}}
    path = tmp_path / "provider.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as info:
        load_provider(str(path))
    assert str(info.value) == "curve degree %s is given twice" % shown


def test_zeta_requires_jumps():
    with pytest.raises(ProviderIncomplete, match="jump"):
        motivic_zeta(ReductionProvider(fixture_curve("I2"), {}))


def test_jumpset_guards():
    with pytest.raises(InconsistentData, match=r"^jump 3/2 outside \[0, 1\)$"):
        JumpSet([(Fraction(3, 2), 1)])
    with pytest.raises(InconsistentData, match="^jump multiplicity must be >= 1$"):
        JumpSet([(Fraction(1, 2), 0)])
    merged = JumpSet([(Fraction(1, 2), 1), (Fraction(1, 2), 2)])
    assert merged.jumps == ((Fraction(1, 2), 3),)


@pytest.mark.parametrize("jump, m, message", [
    ("x", 1, "jump of type str is not a fraction"),
    (None, 1, "jump of type NoneType is not a fraction"),
    (Fraction(1, 3), "2", "jump multiplicity of type str is not an integer"),
    (Fraction(1, 3), True, "jump multiplicity of type bool is not an integer"),
    (Fraction(1, 3), 1.5, "jump multiplicity of type float is not an integer"),
    # past the interpreter's 4300-digit limit, where ``str`` of the jump fails
    (Fraction(10 ** 5000), 1, "jump 10000000000000000000... (5001 characters) outside [0, 1)"),
], ids=["str", "none", "str_multiplicity", "bool_multiplicity", "float_multiplicity",
        "5001_digits"])
def test_jumpset_refuses_by_type_and_names_a_long_jump(jump, m, message):
    with pytest.raises(InconsistentData) as info:
        JumpSet([(jump, m)])
    assert str(info.value) == message


@pytest.mark.parametrize("jumps, kind", [
    ({Fraction(1, 6): 1}, "Fraction"),  # a mapping iterates over its keys
    ([Fraction(1, 6)], "Fraction"),
    ([(Fraction(1, 6), 1, 2)], "tuple"),
    ([(Fraction(1, 6),)], "tuple"),
    ([None], "NoneType"),
], ids=["mapping", "bare_jump", "triple", "single", "none"])
def test_jumpset_refuses_an_entry_that_is_not_a_pair(jumps, kind):
    with pytest.raises(InconsistentData) as info:
        JumpSet(jumps)
    assert str(info.value) == "jump entry of type %s is not a (jump, multiplicity) pair" % kind


def test_provider_names_a_jump_past_the_digit_limit():
    with pytest.raises(InconsistentData) as info:
        ReductionProvider(fixture_curve("II"), provider_II().curves,
                          JumpSet([(Fraction(1, 10 ** 5000), 1)]))
    assert str(info.value) == ("jump 1/100000000000000000... (5003 characters) "
                               "is not a multiple of 1/e with e=6")
