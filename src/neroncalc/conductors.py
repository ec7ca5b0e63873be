"""Closed-form conductor arithmetic for elliptic and genus-2 degenerations,
plus Artin/Swan bookkeeping for ramification filtrations and tori.

These are formula evaluators over user-supplied valuations; nothing here
derives discriminants or Swan conductors from equations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .curves import _parse_int, _shown
from .errors import (
    BadFiltration,
    InconsistentData,
    MissingField,
    NegativeConductor,
    PreconditionError,
)
from .record import Record

GOOD = "good"
MULTIPLICATIVE = "multiplicative"


class KodairaType(Record):
    """Reduction type symbol: ``I`` and ``I*`` carry the index ``n``."""

    kind: str
    n: int | None

    _KINDS = ("I", "II", "III", "IV", "I*", "IV*", "III*", "II*")

    def __init__(self, kind: str, n: int | None = None):
        super().__init__(kind, n)
        if kind not in self._KINDS:
            raise PreconditionError("unknown reduction type %s" % _shown(str(kind), repr))
        if kind in ("I", "I*"):
            if n is None or n < 0:
                raise PreconditionError("type %s needs an index n >= 0" % kind)
        elif n is not None:
            raise PreconditionError("type %s carries no index" % kind)

    @classmethod
    def parse(cls, text: str) -> "KodairaType":
        """Parse symbols like ``I5``, ``I0*``, ``IV*``, ``II``.

        >>> KodairaType.parse("I3*")
        KodairaType(kind='I*', n=3)
        """
        text = text.strip()
        star = text.endswith("*")
        body = text[:-1] if star else text
        if body.startswith("I") and body[1:].isdigit():
            n = _parse_int(body[1:], PreconditionError, "index", "index %s is not an integer")
            return cls("I*" if star else "I", n)
        return cls(body + "*" if star else body)

    def __str__(self):
        body = "I%d" % self.n if self.kind in ("I", "I*") else self.kind.rstrip("*")
        return body + ("*" if self.kind.endswith("*") else "")


#: tame base change conductor by reduction type
_CTAME = {
    "I": Fraction(0),
    "II": Fraction(1, 6),
    "III": Fraction(1, 4),
    "IV": Fraction(1, 3),
    "I*": Fraction(1, 2),
    "IV*": Fraction(2, 3),
    "III*": Fraction(3, 4),
    "II*": Fraction(5, 6),
}

#: discriminant valuation of the standard tame representative of each type
#: (conductor 2 for additive types plus component count minus one)
STANDARD_VDELTA = {
    "I": lambda n: n,
    "II": lambda n: 2,
    "III": lambda n: 3,
    "IV": lambda n: 4,
    "I*": lambda n: n + 6,
    "IV*": lambda n: 8,
    "III*": lambda n: 9,
    "II*": lambda n: 10,
}


def ctame_elliptic(kt: KodairaType | str) -> Fraction:
    """Tame base change conductor of an elliptic curve by reduction type.

    >>> ctame_elliptic("II*")
    Fraction(5, 6)
    """
    if isinstance(kt, str):
        kt = KodairaType.parse(kt)
    return _CTAME[kt.kind]


class EllipticData(Record):
    """Numerical inputs for the elliptic conductor formulas.

    ``kodaira`` must be a :class:`KodairaType`, which is checked first.
    ``potential`` is ``"good"`` or ``"multiplicative"``, the latter only on
    the types ``I_n`` and ``I_n*`` with ``n >= 1``; ``v_j`` is the
    valuation of the j-invariant (needed, and negative, in the
    multiplicative case); ``delta_wild`` the wild part of the conductor.
    """

    kodaira: KodairaType
    v_delta: int
    potential: str
    v_j: int | None
    delta_wild: int
    p: int

    def __init__(
        self, kodaira: KodairaType, v_delta: int, potential: str,
        v_j: int | None = None, delta_wild: int = 0, p: int = 1,
    ):
        super().__init__(kodaira, v_delta, potential, v_j, delta_wild, p)
        if not isinstance(kodaira, KodairaType):
            raise PreconditionError("kodaira must be a KodairaType, not %s" % type(kodaira).__name__)
        if potential not in (GOOD, MULTIPLICATIVE):
            raise PreconditionError("potential must be 'good' or 'multiplicative'")
        if v_delta < 0:
            raise InconsistentData("v(Delta_min) = %d < 0 is impossible" % v_delta)
        if potential == MULTIPLICATIVE and not kodaira.n:  # None off I and I*
            raise InconsistentData(
                "potential multiplicative reduction needs type I_n or I_n* with n >= 1, not %s"
                % kodaira
            )
        if potential == MULTIPLICATIVE and v_j is not None and v_j >= 0:
            raise InconsistentData(
                "potential multiplicative reduction forces v(j) < 0"
            )
        if delta_wild < 0:
            raise PreconditionError("wild conductor part cannot be negative")
        if p < 1:
            raise PreconditionError("characteristic exponent must be >= 1")
        if p == 1 and delta_wild:
            raise InconsistentData("delta_wild > 0 is impossible with p = 1")


def c_elliptic(data: EllipticData) -> Fraction:
    """Base change conductor from the minimal discriminant:
    ``(v(Delta) - d_pot)/12``, so ``v(Delta)/12`` with potential good
    reduction and ``(v(Delta) + v(j))/12`` else; it must not be negative.
    """
    c = Fraction(data.v_delta - d_pot(data), 12)
    if c < 0:
        raise NegativeConductor("inputs force c = %s < 0" % c)
    return c


def c_relative(v_delta: int, v_delta_prime: int, ram_index: int) -> Fraction:
    """Conductor of a single extension step from the two discriminants:
    ``(v(Delta) - v'(Delta')/e)/12``, which must not be negative."""
    if ram_index < 1:
        raise PreconditionError("ramification index must be >= 1")
    c = Fraction(v_delta, 12) - Fraction(v_delta_prime, 12 * ram_index)
    if c < 0:
        raise NegativeConductor("inputs force c = %s < 0" % c)
    return c


def d_pot(data: EllipticData) -> int:
    """Potential degree of degeneration: 0 or ``-v(j)``."""
    if data.potential == GOOD:
        return 0
    if data.v_j is None:
        raise MissingField("v_j is required for potential multiplicative reduction")
    return -data.v_j


def artin_relation(data: EllipticData) -> tuple[int, Fraction]:
    """Recover the Artin conductor from ``c = -(Art + d_pot)/12``.

    Returns ``(Art, c)``.  ``Art = -v(Delta)``: ``-(v(Delta) + v(j)) +
    v(j)`` when multiplicative.
    """
    c = c_elliptic(data)
    return int(-12 * c) - d_pot(data), c


class WildDefectReport(Record):
    c_tame: Fraction
    defect: Fraction           # c - c_tame
    c: Fraction
    v_j_derived: int | None    # only in the p=2, I_n* multiplicative branch


def wild_defect(data: EllipticData) -> WildDefectReport:
    """Difference ``c - c_tame`` from the wild conductor part.

    Generically the defect is ``delta/12``; the residue characteristic 2
    types ``I_n*`` (n > 0) are special: ``(delta + n)/12`` with potential
    good reduction and ``delta/4`` with potential multiplicative reduction,
    where additionally ``v(j) = 2 delta - n``.
    """
    ct = ctame_elliptic(data.kodaira)
    delta = data.delta_wild
    special = (
        data.p == 2 and data.kodaira.kind == "I*" and (data.kodaira.n or 0) > 0
    )
    v_j_derived = None
    if not special:
        defect = Fraction(delta, 12)
    elif data.potential == GOOD:
        defect = Fraction(delta + data.kodaira.n, 12)
    else:
        defect = Fraction(delta, 4)
        v_j_derived = 2 * delta - data.kodaira.n
        if data.v_j is not None and data.v_j != v_j_derived:
            raise InconsistentData(
                "v(j) = %d contradicts 2*delta - n = %d" % (data.v_j, v_j_derived)
            )
    return WildDefectReport(ct, defect, ct + defect, v_j_derived)


def genus2_c(v_delta_min: int, sigma: int, tau: int, ext_degree: int) -> Fraction:
    """Genus-2 conductor from the minimal discriminant and the stable model:
    ``v(Delta_min) = 10 c + (sigma + tau)/[K':K]``."""
    if sigma < 0 or tau < 0 or tau > sigma:
        raise PreconditionError("need 0 <= tau <= sigma")
    if ext_degree < 1:
        raise PreconditionError("extension degree must be >= 1")
    c = Fraction(v_delta_min, 10) - Fraction(sigma + tau, 10 * ext_degree)
    if c < 0:
        raise NegativeConductor("inputs force c = %s < 0" % c)
    return c


# -- ramification filtrations ---------------------------------------------------


class RamificationFiltration(Record):
    """Lower-numbering filtration sizes with fixed-space codimensions.

    ``sizes[i]`` is the order of the i-th group (``sizes[0]`` the full
    group), ``codims[i]`` the codimension of the subspace it fixes; beyond
    the listed levels the group is trivial.
    """

    sizes: tuple[int, ...]
    codims: tuple[int, ...]

    def __init__(self, sizes: tuple[int, ...], codims: tuple[int, ...]):
        super().__init__(sizes, codims)
        if not sizes or len(sizes) != len(codims):
            raise BadFiltration("sizes and codims must align and be non-empty")
        if any(s < 1 for s in sizes) or any(c < 0 for c in codims):
            raise BadFiltration("sizes must be >= 1 and codimensions >= 0")
        for a, b in zip(sizes, sizes[1:]):
            if b > a or a % b:
                raise BadFiltration("group orders must be non-increasing divisors")
        for a, b in zip(codims, codims[1:]):
            if b > a:
                raise BadFiltration("codimensions must be non-increasing")

    @property
    def order(self) -> int:
        return self.sizes[0]


def artin_swan(filt: RamificationFiltration) -> tuple[Fraction, Fraction, int]:
    """``(Art, Sw, tame part)`` of the filtration's representation data.

    ``Art = sum_i codim_i / [G : G_i]`` over all levels; the ``i = 0`` term
    is the tame part and the rest is the Swan conductor.
    """
    order = filt.order
    art = Fraction(0)
    for size, codim in zip(filt.sizes, filt.codims):
        art += Fraction(codim * size, order)
    tame_part = filt.codims[0]
    return art, art - tame_part, tame_part


def filtration_base_change(filt: RamificationFiltration, d: int) -> RamificationFiltration:
    """Reindex the filtration along a tame extension of degree ``d``.

    With ``e = gcd(d, |G|)``, level ``i > 0`` of the new filtration is the
    old level at position ``ceil(i e / d)``; higher ramification is pushed
    out by the factor ``d/e``, so ``Sw`` scales exactly by ``d``.
    """
    if d < 1:
        raise PreconditionError("degree must be >= 1")
    e = gcd(d, filt.order)
    top = (len(filt.sizes) - 1) * d // e
    sizes, codims = [filt.sizes[0] // e], [filt.codims[0]]
    for i in range(1, top + 1):
        j = -((-i * e) // d)  # ceil(i e / d)
        if j >= len(filt.sizes):
            break
        sizes.append(filt.sizes[j])
        codims.append(filt.codims[j])
    return RamificationFiltration(tuple(sizes), tuple(codims))


def torus_ctame(g: int, rank_fixed: int, sw: Fraction | int) -> tuple[Fraction, Fraction]:
    """Tame conductor and growth slope of a torus from its character data:
    ``c_tame = (g - rank of the inertia-fixed characters)/2`` and slope
    ``Sw/2``."""
    if not 0 <= rank_fixed <= g:
        raise PreconditionError("fixed rank must lie in [0, g]")
    return Fraction(g - rank_fixed, 2), Fraction(sw, 2)
