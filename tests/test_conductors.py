"""Conductor formulas, ramification filtrations, and their cross-checks."""

from fractions import Fraction

import pytest

from neroncalc.conductors import (
    STANDARD_VDELTA,
    EllipticData,
    KodairaType,
    RamificationFiltration,
    artin_relation,
    artin_swan,
    c_elliptic,
    c_relative,
    ctame_elliptic,
    d_pot,
    filtration_base_change,
    genus2_c,
    torus_ctame,
    wild_defect,
)
from neroncalc.errors import (
    BadFiltration,
    InconsistentData,
    MissingField,
    NegativeConductor,
    PreconditionError,
)
from neroncalc.invariants import stabilization_index
from neroncalc.kodaira import kodaira_curve

TABLE = {
    "I0": Fraction(0),
    "I5": Fraction(0),
    "II": Fraction(1, 6),
    "III": Fraction(1, 4),
    "IV": Fraction(1, 3),
    "I0*": Fraction(1, 2),
    "I3*": Fraction(1, 2),
    "IV*": Fraction(2, 3),
    "III*": Fraction(3, 4),
    "II*": Fraction(5, 6),
}


def standard_data(symbol: str) -> EllipticData:
    kt = KodairaType.parse(symbol)
    v_delta = STANDARD_VDELTA[kt.kind](kt.n)
    multiplicative = kt.kind in ("I", "I*") and (kt.n or 0) > 0
    return EllipticData(
        kt,
        v_delta,
        "multiplicative" if multiplicative else "good",
        v_j=-kt.n if multiplicative else None,
    )


def test_tame_conductor_table():
    for symbol, value in TABLE.items():
        assert ctame_elliptic(symbol) == value


def test_kodaira_type_parsing():
    assert KodairaType.parse("I12").n == 12
    assert KodairaType.parse("I0*").kind == "I*"
    assert str(KodairaType.parse("I3*")) == "I3*"
    assert str(KodairaType.parse("IV*")) == "IV*"
    with pytest.raises(PreconditionError):
        KodairaType.parse("V")
    with pytest.raises(PreconditionError):
        KodairaType.parse("I*")


def test_table_consistency_with_discriminant_formula():
    # standard tame representative of each type: c from v(Delta) equals c_tame
    for symbol in TABLE:
        data = standard_data(symbol)
        assert c_elliptic(data) == ctame_elliptic(symbol), symbol


def test_index_matches_conductor_denominator():
    for symbol in TABLE:
        e = stabilization_index(kodaira_curve(symbol))
        assert ctame_elliptic(symbol).denominator == e, symbol


def test_c_elliptic_examples():
    good = EllipticData(KodairaType.parse("II"), 6, "good", p=2)
    assert c_elliptic(good) == Fraction(1, 2)
    for s in (1, 2, 5):
        mult = EllipticData(
            KodairaType("I*", 4 * s), 12 * s + 1, "multiplicative", v_j=-1, p=2,
        )
        assert c_elliptic(mult) == s
    assert c_elliptic(EllipticData(KodairaType.parse("I0"), 0, "good")) == 0


def test_c_elliptic_requires_vj():
    with pytest.raises(MissingField):
        c_elliptic(EllipticData(KodairaType("I", 3), 3, "multiplicative"))


def test_c_relative():
    assert c_relative(6, 0, 2) == Fraction(1, 2)
    for n, e in ((4, 3), (7, 2)):
        assert c_relative(n, n * e, e) == 0
    # additivity in a tower: c(K'') = c(K') + c'(K'')/e(K'/K)
    v, v1, v2 = 9, 6, 0
    e1, e2 = 2, 3
    total = c_relative(v, v2, e1 * e2)
    assert total == c_relative(v, v1, e1) + c_relative(v1, v2, e2) / e1


def test_artin_relation_examples():
    data = EllipticData(KodairaType.parse("II"), 6, "good", p=2)
    assert artin_relation(data) == (-6, Fraction(1, 2))
    assert d_pot(data) == 0
    mult = EllipticData(KodairaType("I", 5), 5, "multiplicative", v_j=-5)
    assert d_pot(mult) == 5
    assert artin_relation(mult) == (-5, Fraction(0))


@pytest.mark.parametrize("data", [standard_data(symbol) for symbol in TABLE] + [
    EllipticData(KodairaType.parse("II"), 6, "good", p=2),
    EllipticData(KodairaType("I", 5), 5, "multiplicative", v_j=-5),
    EllipticData(KodairaType("I*", 4), 13, "multiplicative", v_j=-1, p=2),
    EllipticData(KodairaType("I*", 6), 13, "multiplicative", v_j=-4, delta_wild=1, p=2),
], ids=list(TABLE) + ["II_p2", "I5_multiplicative", "I4star_p2", "I6star_wild"])
def test_artin_conductor_is_minus_v_delta(data):
    """``-12 c - d_pot = -v(Delta)`` on both branches, so ``Art`` is an integer."""
    art = artin_relation(data)[0]
    assert art == -data.v_delta and type(art) is int


def _law_cases():
    """Every Kodaira kind with good potential, and ``I_n`` and ``I_n*`` with
    multiplicative potential as well, over a few ``v(Delta)`` and ``v(j)``."""
    for kind in KodairaType._KINDS:
        kt = KodairaType(kind, 3 if kind in ("I", "I*") else None)
        base = STANDARD_VDELTA[kind](kt.n)
        for extra in (0, 1, 12):
            good = EllipticData(kt, base + extra, "good")
            yield pytest.param(good, id="%s_good_%d" % (kt, extra))
            if kt.n:
                for v_j in (-1, -base - extra):
                    yield pytest.param(
                        EllipticData(kt, base + extra, "multiplicative", v_j=v_j),
                        id="%s_multiplicative_%d_vj%d" % (kt, extra, v_j))


@pytest.mark.parametrize("data", list(_law_cases()))
def test_c_elliptic_is_v_delta_minus_d_pot_over_12(data):
    c = c_elliptic(data)
    assert c == Fraction(data.v_delta - d_pot(data), 12)
    assert artin_relation(data) == (-data.v_delta, c)


def test_negative_discriminant_valuation_is_refused():
    for potential, v_j in (("good", None), ("multiplicative", -2)):
        with pytest.raises(InconsistentData, match=r"v\(Delta_min\) = -6 < 0"):
            EllipticData(KodairaType.parse("II"), -6, potential, v_j=v_j)
    assert c_elliptic(EllipticData(KodairaType.parse("I0"), 0, "good")) == 0


@pytest.mark.parametrize("call, message", [
    (lambda: KodairaType("V"), "unknown reduction type 'V'"),
    (lambda: KodairaType("I"), "type I needs an index n >= 0"),
    (lambda: KodairaType("I*", -1), "type I* needs an index n >= 0"),
    (lambda: KodairaType("II", 3), "type II carries no index"),
    (lambda: KodairaType.parse("I" + "9" * 5000),
     "index %s... has too many digits (5000)" % ("9" * 20)),
    (lambda: KodairaType.parse("I\u00b2"), "index '\u00b2' is not an integer"),
    (lambda: EllipticData(KodairaType("I", 1), 1, "bad"),
     "potential must be 'good' or 'multiplicative'"),
    (lambda: EllipticData(KodairaType("II"), 2, "good", delta_wild=-1),
     "wild conductor part cannot be negative"),
    (lambda: EllipticData(KodairaType("II"), 2, "good", p=0),
     "characteristic exponent must be >= 1"),
    (lambda: c_relative(6, 0, 0), "ramification index must be >= 1"),
    (lambda: genus2_c(10, 1, 2, 1), "need 0 <= tau <= sigma"),
    (lambda: genus2_c(10, 1, 0, 0), "extension degree must be >= 1"),
    (lambda: filtration_base_change(RamificationFiltration((2,), (1,)), 0),
     "degree must be >= 1"),
    (lambda: torus_ctame(1, 2, 0), "fixed rank must lie in [0, g]"),
], ids=["unknown_type", "I_without_n", "negative_n", "II_with_n", "5000_digit_n",
        "superscript_n", "potential", "negative_wild", "p_zero", "ram_index", "tau_over_sigma",
        "degree_zero", "filtration_degree", "fixed_rank"])
def test_bad_arguments_are_precondition_errors(call, message):
    with pytest.raises(PreconditionError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("symbol", ["I0", "II", "III", "IV", "I0*", "IV*", "III*", "II*"])
def test_potential_multiplicative_needs_I_n_or_I_n_star(symbol):
    kt = KodairaType.parse(symbol)
    with pytest.raises(InconsistentData) as exc:
        EllipticData(kt, STANDARD_VDELTA[kt.kind](kt.n), "multiplicative", v_j=-2)
    assert str(exc.value) == (
        "potential multiplicative reduction needs type I_n or I_n* with n >= 1, not %s" % symbol)


def test_negative_conductor_is_refused():
    data = EllipticData(KodairaType("I", 1), 1, "multiplicative", v_j=-2)
    for formula in (c_elliptic, artin_relation):
        with pytest.raises(NegativeConductor, match=r"^inputs force c = -1/12 < 0$"):
            formula(data)
    assert c_elliptic(EllipticData(KodairaType("I", 2), 1, "multiplicative", v_j=-1)) == 0
    star = EllipticData(KodairaType("I*", 1), 7, "multiplicative", v_j=-1)
    assert c_elliptic(star) == Fraction(1, 2)


def test_negative_relative_conductor_is_refused():
    with pytest.raises(NegativeConductor, match=r"^inputs force c = -1 < 0$"):
        c_relative(0, 12, 1)
    with pytest.raises(NegativeConductor, match=r"^inputs force c = -1/6 < 0$"):
        c_relative(1, 9, 3)
    assert c_relative(3, 9, 3) == 0


@pytest.mark.parametrize("potential, v_j", [("multiplicative", -1), ("good", None)])
def test_kodaira_must_be_a_kodaira_type(potential, v_j):
    with pytest.raises(PreconditionError) as exc:
        EllipticData("II", 2, potential, v_j=v_j)
    assert str(exc.value) == "kodaira must be a KodairaType, not str"


def test_wild_defect_generic_and_tame():
    tame = wild_defect(standard_data("II"))
    assert tame.defect == 0 and tame.c == Fraction(1, 6)
    wild = wild_defect(
        EllipticData(KodairaType.parse("II"), 6, "good", delta_wild=4, p=2)
    )
    assert wild.defect == Fraction(4, 12)
    assert wild.c == Fraction(1, 6) + Fraction(1, 3) == c_elliptic(
        EllipticData(KodairaType.parse("II"), 6, "good", p=2)
    )


def test_wild_defect_residue_two_star_types():
    # potential good I_2* with delta = 1: v(Delta) = (2 + 1) + 7 - 1 = 9
    data = EllipticData(KodairaType("I*", 2), 9, "good", delta_wild=1, p=2)
    good = wild_defect(data)
    assert good.defect == Fraction(1 + 2, 12)
    assert good.c == Fraction(3, 4) == c_elliptic(data)

    mult = wild_defect(
        EllipticData(
            KodairaType("I*", 6), 13, "multiplicative", v_j=-4, delta_wild=1, p=2
        )
    )
    assert mult.defect == Fraction(1, 4)
    assert mult.c == Fraction(1 + 2, 4)
    assert mult.v_j_derived == 2 * 1 - 6 == -4
    # derived v(j) disagreement is an error
    with pytest.raises(InconsistentData):
        wild_defect(
            EllipticData(
                KodairaType("I*", 6), 13, "multiplicative", v_j=-3,
                delta_wild=1, p=2,
            )
        )


def test_wild_defect_consistent_with_discriminant_route():
    # v(Delta) = (2 + delta) + (n + 5) - 1 for the p = 2 star types
    n, delta = 6, 1
    data = EllipticData(
        KodairaType("I*", n), n + 6 + delta, "multiplicative",
        v_j=2 * delta - n, delta_wild=delta, p=2,
    )
    assert c_elliptic(data) == wild_defect(data).c


def test_genus2_examples():
    assert genus2_c(7, 4, 3, 1) == 0
    assert genus2_c(10, 0, 0, 1) == 1
    assert genus2_c(21, 2, 0, 2) == 2
    with pytest.raises(NegativeConductor):
        genus2_c(0, 2, 1, 1)
    with pytest.raises(PreconditionError):
        genus2_c(10, 1, 2, 1)


def test_artin_swan_examples():
    trivial = RamificationFiltration((4,), (0,))
    assert artin_swan(trivial) == (0, 0, 0)
    wild = RamificationFiltration((2, 2), (1, 1))
    assert artin_swan(wild) == (2, 1, 1)
    deeper = RamificationFiltration((4, 2, 2), (2, 1, 1))
    assert artin_swan(deeper) == (2 + Fraction(1, 2) + Fraction(1, 2), 1, 2)


def test_filtration_base_change_scales_swan():
    filt = RamificationFiltration((2, 2), (1, 1))
    for d in (3, 5, 9):
        out = filtration_base_change(filt, d)
        art, sw, tame_part = artin_swan(out)
        assert sw == d * artin_swan(filt)[1]
        assert art == tame_part + sw
        assert tame_part <= filt.codims[0]
    filt2 = RamificationFiltration((8, 4, 4, 2), (3, 2, 2, 1))
    base_sw = artin_swan(filt2)[1]
    for d in (3, 5, 7, 15):
        assert artin_swan(filtration_base_change(filt2, d))[1] == d * base_sw


def test_filtration_base_change_with_common_factor():
    filt = RamificationFiltration((6, 3, 3), (2, 1, 1))
    out = filtration_base_change(filt, 2)  # e = gcd(2, 6) = 2
    assert out.order == 3
    assert artin_swan(out)[1] == 2 * artin_swan(filt)[1]


def test_filtration_guards():
    with pytest.raises(BadFiltration):
        RamificationFiltration((2, 4), (1, 1))
    with pytest.raises(BadFiltration):
        RamificationFiltration((4, 3), (1, 1))
    with pytest.raises(BadFiltration):
        RamificationFiltration((4, 2), (1, 2))


def test_torus_ctame():
    assert torus_ctame(1, 0, 1) == (Fraction(1, 2), Fraction(1, 2))
    assert torus_ctame(3, 3, 0) == (0, 0)
    assert torus_ctame(2, 1, 4) == (Fraction(1, 2), 2)
    with pytest.raises(PreconditionError):
        torus_ctame(1, 2, 0)
