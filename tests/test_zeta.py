"""Component series, order function, motivic zeta and its specialization."""

from fractions import Fraction
from math import floor, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neroncalc.basechange import transform
from neroncalc.errors import (
    InconsistentData,
    NotContained,
    PreconditionError,
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
    motivic_zeta,
    ord_function,
    prym_jump_difference,
)

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
    provider = ReductionProvider(fixture_curve("II"), {2: fixture_curve("IV")})
    assert provider.e == 6
    assert stabilization_index(provider.curve_for(2)) == 3


def provider_good():
    return ReductionProvider(good_elliptic(), {}, JumpSet([(Fraction(0), 1)]))


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


@pytest.mark.parametrize("make", [provider_I0star, provider_I2, provider_II])
def test_component_series_against_transform_oracle(make):
    provider = make()
    series = component_series(provider)
    coeffs = series.expand(24)
    e, p = provider.e, provider.p
    for d in range(1, 25):
        if gcd(d, e * p) != 1:
            continue
        out, _ = transform(provider.base, d)
        direct = component_group(out).order
        assert coeffs.get((d, 0, ()), 0) == direct, "degree %d" % d


@pytest.mark.parametrize(
    "make", [provider_I0star, provider_I2, provider_II, provider_good]
)
def test_component_series_pole_is_max_toric_rank_plus_one(make):
    from neroncalc.curves import geometry

    provider = make()
    t_tame = max(geometry(c).b1 for c in provider.curves.values())
    assert component_series(provider).pole_order_at_one() == t_tame + 1


@pytest.mark.parametrize(
    "make", [provider_I0star, provider_I2, provider_II, provider_good]
)
def test_component_series_degree_sign(make):
    provider = make()
    top = provider.curves[provider.e]
    from neroncalc.curves import geometry, genus

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
    assert ord_function(sixth, 7) == 1
    assert ord_function(sixth, 5) == 0
    assert ord_function(JumpSet([(Fraction(1, 2), 2)]), 1) == 0
    with pytest.raises(PreconditionError, match=r"^degree must be non-negative$"):
        ord_function(sixth, -1)


def test_ord_function_periodicity():
    for name, j in JUMP_TABLE.items():
        jumps = JumpSet([(j, 1)])
        e = j.denominator
        c_tame = jumps.c_tame
        step = e * c_tame
        assert step.denominator == 1
        for alpha in range(1, e + 1):
            for q in range(21):
                assert ord_function(jumps, alpha + q * e) == ord_function(
                    jumps, alpha
                ) + q * int(step)


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
    assert ord_function(jumps, d) == sum(m * floor(d * j) for j, m in jumps.jumps)


def test_motivic_zeta_closed_forms():
    z = motivic_zeta(provider_I2())
    torus = RationalSeries(
        {(1, 1, ()): Fraction(2), (1, 0, ()): Fraction(-2)}, [(0, 1), (0, 1)]
    )
    assert z == torus  # 2 (L - 1) T / (1 - T)^2

    zg = motivic_zeta(provider_good())
    assert zg == RationalSeries({(1, 0, (1,)): Fraction(1)}, [(0, 1)])

    zii = motivic_zeta(provider_II())
    assert zii.coefficient(1) == {(0, 1, ()): Fraction(1)}  # one copy of L
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
    assert euler_specialize(provider_I2()) == RationalSeries.zero()
    assert euler_specialize(provider_good()) == RationalSeries.zero()


@pytest.mark.parametrize(
    "make", [provider_I0star, provider_I2, provider_II, provider_good]
)
def test_euler_equals_chi_of_zeta(make):
    provider = make()
    assert euler_specialize(provider) == euler_characteristic_map(
        motivic_zeta(provider)
    )


def test_prym_difference_examples():
    a = JumpSet([(Fraction(1, 6), 1), (Fraction(0), 1)])
    a1 = JumpSet([(Fraction(0), 1)])
    assert prym_jump_difference(a, a1) == JumpSet([(Fraction(1, 6), 1)])
    assert prym_jump_difference(a, a) == JumpSet([])
    with pytest.raises(NotContained):
        prym_jump_difference(
            JumpSet([(Fraction(1, 2), 2)]), JumpSet([(Fraction(1, 3), 1)])
        )


def test_prym_conductor_subtracts():
    a = JumpSet([(Fraction(1, 6), 1), (Fraction(1, 2), 1)])
    a1 = JumpSet([(Fraction(1, 2), 1)])
    assert prym_jump_difference(a, a1).c_tame == a.c_tame - a1.c_tame


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
