"""Generating series over tame base changes: component series, motivic
zeta function and its Euler specialization.

Reduction data enters through a :class:`ReductionProvider`: the dual graph
of the fiber together with one graph per divisor of the stabilization index
(prime to the residue characteristic) and, for the zeta function, the list
of filtration jumps with multiplicities.  Its constructor refuses a provider
that lacks the graph of a stable degree.  All series are assembled in
closed rational form; expansions only appear in tests.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import comb, gcd, lcm
from types import MappingProxyType

from .curves import (
    SncdCurve,
    _parse_int,
    _parse_json,
    _read_text,
    _shown,
    _shown_number,
    genus,
    geometry,
    load_curve,
)
from .cyclo import _divisors
from .errors import (
    InconsistentData,
    ParseError,
    ProviderIncomplete,
)
from .invariants import component_group, stabilization_index
from .ratseries import RationalSeries, _progression_sum
from .record import Record


class JumpSet(Record):
    """Filtration jumps ``j`` in ``[0, 1)``, each an ``int`` or a ``Fraction``,
    with ``int`` multiplicities ``m >= 1``, given as ``(j, m)`` pairs: other
    types, and entries that are not pairs, are refused by name."""

    jumps: tuple[tuple[Fraction, int], ...]

    def __init__(self, jumps=()):
        merged: dict[Fraction, int] = {}
        for entry in jumps:
            try:
                j, m = entry
            except (TypeError, ValueError):
                raise InconsistentData("jump entry of type %s is not a (jump, multiplicity) pair"
                                       % type(entry).__name__) from None
            if type(j) not in (int, Fraction):
                raise InconsistentData("jump of type %s is not a fraction" % type(j).__name__)
            if type(m) is not int:
                raise InconsistentData(
                    "jump multiplicity of type %s is not an integer" % type(m).__name__)
            j = Fraction(j)
            if not 0 <= j < 1:
                raise InconsistentData("jump %s outside [0, 1)" % _shown_number(j))
            if m < 1:
                raise InconsistentData("jump multiplicity must be >= 1")
            merged[j] = merged.get(j, 0) + m
        super().__init__(tuple(sorted(merged.items())))

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.jumps)

    @property
    def c_tame(self) -> Fraction:
        """Weighted sum ``sum m_j * j``."""
        return sum((m * j for j, m in self.jumps), Fraction(0))

    def __str__(self):
        return "{" + ", ".join("%s x%d" % (j, m) for j, m in self.jumps) + "}"


def _ord_values(jumps: JumpSet, degrees) -> list[int]:
    """``sum_j m_j floor(d j)`` at each ``d`` of ``degrees``, reading each jump once."""
    terms = [(j.numerator, j.denominator, m) for j, m in jumps.jumps]
    return [sum(m * (d * n // den) for n, den, m in terms) for d in degrees]


class ReductionProvider(Record):
    """Reduction graphs of a degeneration across its stable degrees.

    ``curves`` maps each degree ``a`` to the dual graph after base change of
    degree ``a``, for divisors ``a`` of the stabilization index ``e`` prime
    to ``p``: a read-only mapping in ascending order, ``1`` to ``base``.
    The constructor is the only judge of a provider.  It refuses a degree
    that is not an ``int`` (``bool`` included), naming it by its type, or
    not such a divisor, a degree-1 curve other than the base, a curve of
    the wrong ``p``, index (``e/a``) or genus, jumps beyond the genus or
    not multiples of ``1/e``, and, after those, a missing stable degree
    (:class:`ProviderIncomplete`).  ``p``, ``e``, ``genus``, ``stable_degrees``
    (the divisors of ``e`` prime to ``p``, ascending) and the period ``lcm(e,
    p)`` are kept outside the fields, so ``ReductionProvider(**fields)``
    rebuilds an equal provider.
    """

    base: SncdCurve
    curves: MappingProxyType[int, SncdCurve]
    jumps: JumpSet | None

    def __init__(self, base: SncdCurve, curves=None, jumps: JumpSet | None = None):
        p, e, g = base.p, stabilization_index(base), genus(base)
        checked = {1: base}
        for a, c in (curves or {}).items():
            if type(a) is not int:
                raise InconsistentData("degree of type %s is not an integer" % type(a).__name__)
            if a == 1:
                if c is not base and c != base:
                    raise InconsistentData("curve for degree 1 is not the base curve")
                continue
            if a < 1 or e % a or gcd(a, p) != 1:
                raise InconsistentData(
                    "degree %s is not a prime-to-p divisor of e=%s"
                    % (_shown_number(a), _shown_number(e))
                )
            if c.p != p:
                raise InconsistentData("curve for degree %s has p=%s"
                                       % (_shown_number(a), _shown_number(c.p)))
            if stabilization_index(c) != e // a:
                raise InconsistentData(
                    "curve for degree %s has index %s, expected %s" % tuple(
                        map(_shown_number, (a, stabilization_index(c), e // a)))
                )
            if genus(c) != g:
                raise InconsistentData(
                    "curve for degree %s has genus %s, expected %s"
                    % tuple(map(_shown_number, (a, genus(c), g)))
                )
            checked[a] = c
        if jumps is not None:
            if jumps.total_multiplicity > g:
                raise InconsistentData("more jumps than the genus allows")
            for j, _ in jumps.jumps:
                if (e * j).denominator != 1:
                    raise InconsistentData(
                        "jump %s is not a multiple of 1/e with e=%s"
                        % (_shown_number(j), _shown_number(e))
                    )
        degrees = tuple(a for a in _divisors(e) if gcd(a, p) == 1)
        missing = [a for a in degrees if a not in checked]
        if missing:
            shown = str(missing)
            if len(shown) > 40:  # the count and the first few
                shown = "%s, ...] (%d degrees)" % (str(missing[:5])[:-1], len(missing))
            raise ProviderIncomplete("missing reduction data for degrees %s" % shown)
        super().__init__(base, MappingProxyType(dict(sorted(checked.items()))), jumps)
        vars(self).update(p=p, e=e, genus=g, stable_degrees=degrees, _period=lcm(e, p))

    def require_jumps(self) -> JumpSet:
        if self.jumps is None:
            raise ProviderIncomplete("jump data is required for this series")
        return self.jumps


def _degree_blocks(provider: ReductionProvider):
    """Yield ``(curve, a, |Phi_a|, degrees)`` per stable degree ``a``: the
    ``d`` in ``1..lcm(e, p)`` prime to ``p`` with ``gcd(d, e) =
    a``, so ``|Phi(d)| = |Phi_a| (d/a)^t`` on their classes modulo ``lcm(e,
    p)``.  The only walk over the tame residues."""
    e, p = provider.e, provider.p
    for a in provider.stable_degrees:
        curve = provider.curves[a]
        phi = component_group(curve).order
        degrees = range(a, provider._period + 1, a)
        yield curve, a, phi, [d for d in degrees if gcd(d, e) == a and gcd(d, p) == 1]


def component_series(provider: ReductionProvider) -> RationalSeries:
    """Generating series of component group orders over all tame degrees.

    Each stable degree ``a`` contributes ``|Phi_a| (d/a)^{t_a} T^d`` over the
    degrees ``d`` prime to ``p`` with ``gcd(d, e) = a``: one progression
    numerator over ``(1 - T^{lcm(e, p)})^{t_a + 1}``, built with stride ``a``
    since the start degrees and the period are multiples of ``a``.
    """
    blocks = [
        _progression_sum({(d, 0, ()): phi for d in degrees}, provider._period,
                         geometry(curve).b1, 0, a)
        for curve, a, phi, degrees in _degree_blocks(provider)
    ]
    # Every block is one numerator over a power of one factor.  A reduced
    # num / f^k is unique, so the one-shot sum equals the pairwise fold.
    return RationalSeries.sum(blocks)


def motivic_zeta(provider: ReductionProvider) -> RationalSeries:
    """Zeta series of Neron classes ``[G(d)] L^{ord(d)} T^d`` in closed form.

    At a degree ``d`` prime to ``p`` the class is that of the degree ``a =
    gcd(d, e)`` fiber with ``|Phi_a| (d/a)^t`` components, and ``ord(d)``
    grows by ``w = lcm(e, p) * c_tame`` per period: each block one
    progression numerator over ``(1 - L^w T^{lcm(e, p)})^{t+1}`` with stride
    ``a``, whose start holds the torus class ``(L - 1)^t``: only in ``L``.
    """
    jumps = provider.require_jumps()
    period = provider._period
    w = int(period * jumps.c_tame)  # an integer: every jump is a multiple of 1/e
    blocks = []
    for curve, a, phi, degrees in _degree_blocks(provider):
        geo = geometry(curve)
        t, u = geo.b1, provider.genus - geo.b1 - geo.abelian_rank
        ab = tuple(sorted(filter(None, curve.g)))  # the positive genera
        torus = [(k, comb(t, k) * (-1) ** (t - k)) for k in range(t + 1)]
        start = {(d, u + o + k, ab): phi * c
                 for d, o in zip(degrees, _ord_values(jumps, degrees)) for k, c in torus}
        blocks.append(_progression_sum(start, period, t, w, a))
    return RationalSeries.sum(blocks)


def euler_specialize(provider: ReductionProvider) -> RationalSeries:
    """Integer series whose ``T^d`` coefficient, for ``d`` prime to ``p``, is
    ``|Phi(d)|`` on degrees of additive reduction and 0 elsewhere."""
    num = {}
    for curve, _, phi, degrees in _degree_blocks(provider):
        geo = geometry(curve)
        if geo.b1 == 0 and geo.abelian_rank == 0:
            num.update(((d, 0, ()), phi) for d in degrees)
    return RationalSeries(num, ((0, provider._period),))


def euler_characteristic_map(series: RationalSeries) -> RationalSeries:
    """Apply the Euler characteristic coefficientwise: ``L -> 1`` and every
    nonempty abelian symbol to 0."""
    num: dict = {}
    for (n, l, ab), v in series.num:
        if ab:
            continue
        key = (n, 0, ())
        num[key] = num.get(key, 0) + v
    den = tuple((0, b) for _, b in series.den)
    return RationalSeries(num, den)


# -- provider JSON ------------------------------------------------------------


def load_provider(path: str) -> ReductionProvider:
    """Read a provider document.

    Format::

        {"p": 1, "base": "II.json",
         "curves": {"2": "IV.json", "3": "I0star.json", "6": "I0.json"},
         "jumps": [{"j": "1/6", "m": 1}]}

    Curve paths are resolved relative to the provider file.
    """
    what = "invalid provider JSON"
    doc = _parse_json(_read_text(path, what), what)
    if not isinstance(doc, dict) or "base" not in doc:
        raise ParseError("provider document needs a 'base' field")
    # ``open`` refuses a file name with a NUL byte by a plain ValueError
    if not isinstance(doc["base"], str) or "\0" in doc["base"]:
        raise ParseError("field 'base' must be a file name")
    raw_curves = doc.get("curves", {})
    if not isinstance(raw_curves, dict) or not all(
        isinstance(name, str) and "\0" not in name for name in raw_curves.values()
    ):
        raise ParseError("field 'curves' must map degrees to file names")
    if not isinstance(doc.get("jumps", []), list):
        raise ParseError("field 'jumps' must be a list")
    root = os.path.dirname(os.path.abspath(path))

    def _resolve(name):
        return name if os.path.isabs(name) else os.path.join(root, name)

    base = load_curve(_resolve(doc["base"]))
    if "p" in doc and (type(doc["p"]) is not int or doc["p"] != base.p):
        raise ParseError(
            "provider p=%s contradicts base curve p=%s"
            % (_shown(repr(doc["p"])), _shown_number(base.p))
        )
    curves = {}
    for a, name in raw_curves.items():
        degree = _parse_int(a, ParseError, "curve degree", "curve degree %s is not an integer")
        if degree in curves:
            raise ParseError("curve degree %s is given twice" % _shown(str(degree)))
        curves[degree] = load_curve(_resolve(name))
    jumps = None
    if "jumps" in doc:
        items = []
        for entry in doc["jumps"]:
            shown = _shown(repr(entry))
            try:
                text, m = str(entry["j"]), entry.get("m", 1)
                # Fraction("1e-10000000") would build a 10^7-digit power of 10
                j = None if "e" in text.lower() else Fraction(text)
                str(j)  # past the interpreter's digit limit no message could name j
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise ParseError("bad jump entry %s" % shown) from exc
            # refuses exponent notation, and an m of 1.5 and true as well as "1"
            if j is None or type(m) is not int:
                raise ParseError("bad jump entry %s" % shown)
            items.append((j, m))
        jumps = JumpSet(items)
    return ReductionProvider(base, curves, jumps)
