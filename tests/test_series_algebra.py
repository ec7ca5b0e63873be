"""One-shot series assembly and direct cyclotomic expansion against the
pairwise and Phi-basis routes they replace."""

import os
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neroncalc import zeta
from neroncalc.cyclo import CycloProduct, _divisors
from neroncalc.kodaira import kodaira_curve
from neroncalc.ratseries import RationalSeries, _clean, _over_factor, _reduce
from neroncalc.zeta import (
    JumpSet,
    ReductionProvider,
    component_series,
    euler_characteristic_map,
    euler_specialize,
    load_provider,
    motivic_zeta,
)

from cyclo_oracles import phi_basis_as_poly
from provider_sweep import banana_provider, law_providers, looped_provider, star_provider
from series_oracles import (
    _den_poly,
    _factor_poly,
    _poly_mul,
    component_series_per_residue,
    divide_by_verified_quotient,
    euler_specialize_per_residue,
    motivic_zeta_per_residue,
    reduce_by_restart,
    scale,
)

# -- oracle: the pairwise sum ------------------------------------------------------


def poly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return _clean(out)


def pairwise_add(x: RationalSeries, y: RationalSeries) -> RationalSeries:
    """Two-term sum over the common denominator, built factor by factor."""
    den1, den2 = list(x.den), list(y.den)
    common = []
    for f in set(den1) | set(den2):
        common += [f] * max(den1.count(f), den2.count(f))
    extra1, extra2 = list(common), list(common)
    for f in den1:
        extra1.remove(f)
    for f in den2:
        extra2.remove(f)
    num = poly_add(
        _poly_mul(dict(x.num), _den_poly(extra1)),
        _poly_mul(dict(y.num), _den_poly(extra2)),
    )
    return RationalSeries(num, common)


def fold(terms) -> RationalSeries:
    return reduce(pairwise_add, terms, RationalSeries({}))


# -- strategies -------------------------------------------------------------------

AB = st.sampled_from([(), (1,), (2,), (1, 2)])
numerators = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(-3, 3), AB),
    st.integers(-5, 5),
    max_size=6,
)
FACTORS = [(0, 1), (0, 2), (1, 2), (0, 3), (2, 3), (-1, 1)]


@st.composite
def series(draw, factors=st.sampled_from(FACTORS)):
    num = draw(numerators)
    den = draw(st.lists(factors, max_size=2))
    if den and draw(st.booleans()):  # make some factor cancel on construction
        for f in draw(st.lists(st.sampled_from(den), max_size=2)):
            num = _poly_mul(num, _factor_poly(*f))
    return RationalSeries(num, den)


# -- one-shot assembly ---------------------------------------------------------------


@given(st.lists(series(), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_sum_equals_pairwise_fold_on_mixed_denominators(terms):
    assert RationalSeries.sum(terms) == fold(terms)
    assert RationalSeries.sum(terms) == reduce(lambda x, y: RationalSeries.sum((x, y)), terms)


@given(st.sampled_from(FACTORS).flatmap(
    lambda f: st.lists(series(st.just(f)), min_size=1, max_size=4)))
@settings(max_examples=100, deadline=None)
def test_sum_is_identical_to_fold_over_one_factor(terms):
    assert RationalSeries.sum(terms).to_dict() == fold(terms).to_dict()


def test_sum_of_nothing_is_zero():
    assert RationalSeries.sum([]).to_dict() == RationalSeries({}).to_dict()


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _providers():
    for name in ("provider_II.json", "provider_I0star.json", "provider_I2.json"):
        yield load_provider(os.path.join(FIXTURES, name))
    yield ReductionProvider(kodaira_curve("I3", p=11))
    yield ReductionProvider(kodaira_curve("I5", p=3))
    # e = 3 with a loop at degree 1: residue 2 has alpha != gcd(alpha, e)
    # and t = 1; at d = 2 mod 3 the zeta counts |Phi_1| d^t components, as
    # the component series does
    yield looped_provider()
    # toric rank t = 2 and 3: a torus class (L - 1)^t of t + 1 terms
    for t in (2, 3):
        for p in (1, 5, 7):
            yield banana_provider(t, p)


ASSEMBLIES = [
    (component_series, component_series_per_residue),
    (motivic_zeta, motivic_zeta_per_residue),
    (euler_specialize, euler_specialize_per_residue),
]


def _assemblies(provider):
    """The (library, oracle) pairs that apply: the zeta needs jumps."""
    return [(library, oracle) for library, oracle in ASSEMBLIES
            if library is not motivic_zeta or provider.jumps is not None]


def _assert_assembles_as_the_oracles(provider):
    for library, oracle in _assemblies(provider):
        assert library(provider).to_dict() == oracle(provider).to_dict(), library


@pytest.mark.parametrize("provider", list(_providers()))
def test_callers_assemble_as_the_pairwise_fold(provider, monkeypatch):
    """The one-shot block assemblies against the per-residue oracles summed
    by the pairwise fold, on the three shipped providers among others."""
    one_shot = [library(provider).to_dict() for library, _ in _assemblies(provider)]
    monkeypatch.setattr(RationalSeries, "sum", classmethod(lambda cls, ts: fold(ts)))
    assert [oracle(provider).to_dict() for _, oracle in _assemblies(provider)] == one_shot


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("p", [1, 5, 7])
def test_banana_zeta_has_a_pole_of_order_t_plus_one(t, p):
    """Toric rank ``t`` and ``e = 1``: one pole of slope 0 and order ``t + 1``
    (the per-residue oracle check runs over ``_providers``)."""
    assert motivic_zeta(banana_provider(t, p)).unique_pole_slope() == (0, t + 1)


@given(st.integers(1, 12), st.sampled_from([1, 2, 3, 5, 7, 11, 13]))
@settings(max_examples=40, deadline=None)
def test_cycle_series_equal_the_per_residue_oracles(n, p):
    _assert_assembles_as_the_oracles(
        ReductionProvider(kodaira_curve("I%d" % n, p=p), {}, JumpSet([])))


@given(st.integers(1, 6), st.sampled_from([1, 3, 5, 7]))
@settings(max_examples=20, deadline=None)
def test_looped_degree_blocks_equal_the_per_residue_oracles(n, p):
    """``I_n*`` becomes ``I_2n`` at degree 2: a block with ``a = 2`` and
    ``t = 1``, where the start divides ``|Phi_2|`` by ``a^t``."""
    base = kodaira_curve("I%d*" % n, p=p)
    _assert_assembles_as_the_oracles(ReductionProvider(
        base, {2: kodaira_curve("I%d" % (2 * n), p=p)}, JumpSet([(Fraction(1, 2), 1)])))


@st.composite
def star_providers(draw):
    q = draw(st.sampled_from([3, 5, 7, 11, 13]))
    p = draw(st.sampled_from([1, 2, 3, 5, 7, 11, 13]).filter(lambda p: q % p))
    genus = (q - 1) * (q - 2) // 2
    ks = draw(st.lists(st.integers(0, q - 1), max_size=min(genus, 12)))
    return star_provider(q, p, JumpSet((Fraction(k, q), 1) for k in ks))


@given(star_providers())
@settings(max_examples=40, deadline=None)
def test_star_series_equal_the_per_residue_oracles(provider):
    _assert_assembles_as_the_oracles(provider)


def _count_series(monkeypatch) -> list:
    """Count ``RationalSeries.__init__`` calls from now on."""
    built = []
    real = RationalSeries.__init__

    def spy(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(RationalSeries, "__init__", spy)
    return built


@pytest.mark.parametrize("make, assemblies", [
    (lambda: ReductionProvider(kodaira_curve("I3", p=151)), [component_series]),
    (lambda: star_provider(41, 1, JumpSet((Fraction(k, 41), 1) for k in range(1, 41))),
     [motivic_zeta, euler_specialize]),
    (lambda: load_provider(os.path.join(FIXTURES, "provider_II.json")),
     [component_series, motivic_zeta, euler_specialize]),
], ids=["I3_p151", "star41", "provider_II"])
def test_assembly_builds_no_series_per_residue(make, assemblies, monkeypatch):
    """A block of residues is one series: the count follows the stable
    degrees (1, 2 and 4 here), not the residues (150, 41 and 6)."""
    provider = make()
    degrees = len(provider.stable_degrees)
    for assembly in assemblies:
        assembly(provider)  # warm the curve caches
        built = _count_series(monkeypatch)
        assembly(provider)
        monkeypatch.undo()
        assert len(built) <= 3 * degrees + 1, (assembly, len(built))


SHIPPED_PROVIDERS = sorted(
    name for name in os.listdir(FIXTURES) if name.startswith("provider_")
)


@pytest.mark.parametrize("make", [
    pytest.param(lambda name=name: load_provider(os.path.join(FIXTURES, name)), id=name)
    for name in SHIPPED_PROVIDERS
] + [pytest.param(make, id=name) for name, make in law_providers()])
def test_shipped_series_hold_plain_int_coefficients(make):
    """Integral coefficients are stored as ``int``, never as ``Fraction``:
    the three series check no integrality themselves."""
    provider = make()
    z = motivic_zeta(provider)
    values = []
    for series in (component_series(provider), z, euler_specialize(provider),
                   euler_characteristic_map(z)):
        values += [v for _, v in series.num] + list(series.expand(24).values())
    assert values and all(type(v) is int for v in values), values


@pytest.mark.parametrize("make", [pytest.param(make, id=name) for name, make in law_providers()])
def test_progression_numerators_hold_ints(make, monkeypatch):
    """No step of the three series holds a ``Fraction``: every start handed
    to ``_progression_sum`` and every coefficient handed to a series
    constructor on the way, the progressions' numerators included, is an
    ``int``."""
    provider = make()
    starts, coefficients = [], []
    real_progression, real_init = zeta._progression_sum, RationalSeries.__init__

    def progression(start, *args):
        starts.extend(start.values())
        return real_progression(start, *args)

    def init(self, num, den=()):
        num = dict(num)
        coefficients.extend(num.values())
        real_init(self, num, den)

    monkeypatch.setattr(zeta, "_progression_sum", progression)
    monkeypatch.setattr(RationalSeries, "__init__", init)
    for series in (component_series, motivic_zeta, euler_specialize):
        series(provider)
    assert starts and all(type(v) is int for v in starts), starts
    assert coefficients and all(type(v) is int for v in coefficients), coefficients


# -- division by one factor ----------------------------------------------------------


@given(numerators, st.integers(-3, 3), st.integers(1, 4), st.booleans())
@settings(max_examples=200, deadline=None)
def test_remainder_agrees_with_verified_quotient(num, a, b, multiply):
    num = _clean(num)
    if multiply:
        num = _poly_mul(num, _factor_poly(a, b))
    assert _over_factor(num, a, b) == divide_by_verified_quotient(num, a, b)


@given(numerators, st.sampled_from(FACTORS), st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_truncated_quotient_times_the_factor_gives_the_numerator(num, f, order):
    """``p / f`` expanded up to ``T^order``, times ``f``, is ``p`` at every
    T-degree up to ``order``."""
    num = {(n - 2, l, ab): v for (n, l, ab), v in _clean(num).items()}  # T^-2 and up
    back = _poly_mul(_over_factor(num, *f, order), _factor_poly(*f))
    assert {k: v for k, v in back.items() if k[0] <= order} == {
        k: v for k, v in num.items() if k[0] <= order}


@given(
    st.dictionaries(st.tuples(st.integers(-2, 5), st.integers(-3, 3), AB),
                    st.integers(-5, 5).filter(bool), min_size=1, max_size=4),
    st.lists(st.sampled_from(FACTORS), min_size=2, max_size=4),
    st.lists(st.sampled_from(FACTORS), min_size=1, max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_one_pass_reduction_equals_the_restart_loop(base, divisors, den):
    """A numerator that is a product of several factors, some of them in the
    denominator, reduces as the restart loop reduces it."""
    num = reduce(_poly_mul, (_factor_poly(*f) for f in divisors), base)
    den = tuple(sorted(den + divisors[: len(divisors) // 2]))
    assert _reduce(num, den) == reduce_by_restart(num, den)


# -- direct expansion ----------------------------------------------------------------


def test_divisors():
    for n in range(1, 400):
        assert list(_divisors(n)) == [d for d in range(1, n + 1) if n % d == 0]


@given(st.dictionaries(st.integers(1, 24), st.integers(-9, 9), max_size=5))
@settings(max_examples=200, deadline=None)
def test_as_poly_equals_phi_basis_expansion(factors):
    P = CycloProduct(factors)
    # raise each negative Phi_m exponent with (t^m - 1): no exponent drops
    fix = {m: -k for m, k in P.phi_exponents().items() if k < 0}
    P = P * CycloProduct(fix)
    assert P.is_polynomial
    assert P.as_poly() == phi_basis_as_poly(P)


def test_expansion_of_a_large_composite_period_is_direct():
    start = time.perf_counter()
    assert CycloProduct({30030: 1}).poly_str() == "t^30030 - 1"
    assert time.perf_counter() - start < 1.0


def test_component_series_at_period_near_2310():
    p = 2309
    provider = ReductionProvider(kodaira_curve("I3", p=p))
    start = time.perf_counter()
    s = component_series(provider)
    assert time.perf_counter() - start < 3.0
    # |Phi(d)| = 3 d for p not dividing d, 0 otherwise
    all_d = RationalSeries({(1, 0, ()): 3}, [(0, 1), (0, 1)])
    multiples = RationalSeries({(p, 0, ()): 3 * p}, [(0, p), (0, p)])
    assert s == RationalSeries.sum((all_d, scale(multiples, -1)))


def test_dense_sum_at_period_20011_is_one_pass_per_factor():
    """Reducing ``3T/(1-T)^2 - 3p T^p/(1-T^p)^2`` divides a numerator with
    about ``2p`` dense T-degrees by ``1 - T`` twice, each time by one
    running sum over those degrees."""
    p = 20011
    all_d = RationalSeries({(1, 0, ()): 3}, [(0, 1), (0, 1)])
    multiples = RationalSeries({(p, 0, ()): -3 * p}, [(0, p), (0, p)])
    start = time.perf_counter()
    s = RationalSeries.sum((all_d, multiples))
    assert time.perf_counter() - start < 0.15
    assert s == component_series(ReductionProvider(kodaira_curve("I3", p=p)))
