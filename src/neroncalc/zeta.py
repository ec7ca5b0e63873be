"""Generating series over tame base changes: component series, order
function, motivic zeta function and its Euler specialization.

Reduction data enters through a :class:`ReductionProvider`: the dual graph
of the fiber together with one graph per divisor of the stabilization index
(prime to the residue characteristic) and, for the zeta function, the list
of filtration jumps with multiplicities.  All series are assembled in
closed rational form; expansions only appear in tests.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import comb, gcd, lcm

from .curves import (
    SncdCurve,
    _parse_int,
    _parse_json,
    _read_text,
    genus,
    geometry,
    load_curve,
)
from .cyclo import _divisors
from .errors import (
    InconsistentData,
    NotContained,
    ParseError,
    PreconditionError,
    ProviderIncomplete,
)
from .invariants import component_group, stabilization_index
from .ratseries import RationalSeries, geometric_sum
from .record import Record


class JumpSet(Record):
    """Filtration jumps ``j`` in ``[0, 1)`` with multiplicities ``m >= 1``."""

    jumps: tuple[tuple[Fraction, int], ...]

    def __init__(self, jumps=()):
        merged: dict[Fraction, int] = {}
        for j, m in jumps:
            j = Fraction(j)
            if not 0 <= j < 1:
                raise InconsistentData("jump %s outside [0, 1)" % j)
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


def ord_function(jumps: JumpSet, d: int) -> int:
    """``sum_j m_j * floor(d * j)``.

    Periodic against the common denominator ``e`` of the jumps:
    ``ord(a + q e) = ord(a) + q e c_tame`` holds exactly.
    """
    if d < 0:
        raise PreconditionError("degree must be non-negative")
    return sum(m * (d * j.numerator // j.denominator) for j, m in jumps.jumps)


def prym_jump_difference(jumps_a: JumpSet, jumps_a1: JumpSet) -> JumpSet:
    """Multiset difference of jump sets; the subtrahend must be contained."""
    have = dict(jumps_a.jumps)
    missing = [
        (j, m) for j, m in jumps_a1.jumps if have.get(j, 0) < m
    ]
    if missing:
        raise NotContained(
            "jumps not contained: %s"
            % ", ".join("%s x%d" % (j, m) for j, m in missing)
        )
    out = dict(have)
    for j, m in jumps_a1.jumps:
        out[j] -= m
    return JumpSet((j, m) for j, m in out.items() if m)


class ReductionProvider:
    """Reduction graphs of a degeneration across its stable degrees.

    ``curves[a]`` is the dual graph after base change of degree ``a``, for
    every divisor ``a`` of the stabilization index ``e`` prime to ``p``
    (degree 1 defaults to the base graph).  Supplied graphs are checked for
    the division law ``e(curve_a) = e/a`` and genus preservation.
    """

    def __init__(self, base: SncdCurve, curves=None, jumps: JumpSet | None = None):
        self.base = base
        self.p = base.p
        self.e = stabilization_index(base)
        self.genus = genus(base)
        self.curves: dict[int, SncdCurve] = {1: base}
        for a, c in (curves or {}).items():
            a = int(a)
            if a == 1:
                continue
            if a < 1 or self.e % a or (self.p > 1 and gcd(a, self.p) != 1):
                raise InconsistentData(
                    "degree %d is not a prime-to-p divisor of e=%d" % (a, self.e)
                )
            if c.p != self.p:
                raise InconsistentData("curve for degree %d has p=%d" % (a, c.p))
            if stabilization_index(c) != self.e // a:
                raise InconsistentData(
                    "curve for degree %d has index %d, expected %d"
                    % (a, stabilization_index(c), self.e // a)
                )
            if genus(c) != self.genus:
                raise InconsistentData(
                    "curve for degree %d has genus %d, expected %d"
                    % (a, genus(c), self.genus)
                )
            self.curves[a] = c
        self.jumps = jumps
        if jumps is not None:
            if jumps.total_multiplicity > self.genus:
                raise InconsistentData("more jumps than the genus allows")
            for j, _ in jumps.jumps:
                if (self.e * j).denominator != 1:
                    raise InconsistentData(
                        "jump %s is not a multiple of 1/e with e=%d" % (j, self.e)
                    )

    def stable_degrees(self) -> list[int]:
        """Divisors of ``e`` prime to ``p``, ascending."""
        return [
            a for a in _divisors(self.e) if self.p == 1 or gcd(a, self.p) == 1
        ]

    def curve_for(self, a: int) -> SncdCurve:
        try:
            return self.curves[a]
        except KeyError:
            raise ProviderIncomplete("no reduction data for degree %d" % a) from None

    def require_complete(self):
        missing = [a for a in self.stable_degrees() if a not in self.curves]
        if missing:
            raise ProviderIncomplete(
                "missing reduction data for degrees %s" % missing
            )

    def require_jumps(self) -> JumpSet:
        if self.jumps is None:
            raise ProviderIncomplete("jump data is required for this series")
        return self.jumps


def component_series(provider: ReductionProvider) -> RationalSeries:
    """Generating series of component group orders over all tame degrees.

    Assembled degree block by degree block: each stable degree ``a``
    contributes ``|Phi_a|`` times a sum of arithmetic-progression series
    with weight ``d^{t_a}``, substituted ``T -> T^a``.
    """
    provider.require_complete()
    e, p = provider.e, provider.p
    blocks = []
    for a in provider.stable_degrees():
        curve = provider.curve_for(a)
        t = geometry(curve).b1
        phi = component_group(curve).order
        e_a = e // a
        m = e_a if p == 1 else lcm(e_a, p)
        block = RationalSeries.sum(
            geometric_sum(m, b, t, 0)
            for b in range(1, m + 1)
            if gcd(b, e_a) == 1 and (p == 1 or b % p)
        )
        blocks.append(block.scale(phi).subs_T_power(a))
    # Every term has a power of one factor: (1 - T^m) in a block, and after
    # T -> T^a (1 - T^e) or (1 - T^{e p}) for all blocks alike.  A reduced
    # num / f^k is unique, so one-shot sums equal pairwise folds exactly.
    return RationalSeries.sum(blocks).require_integral("component series")


def _euler_blocks(provider: ReductionProvider):
    """Yield ``(alpha, alpha', curve)`` over residues ``1..e`` prime to p."""
    e, p = provider.e, provider.p
    for alpha in range(1, e + 1):
        if p > 1 and gcd(alpha, p) != 1:
            continue
        yield alpha, gcd(alpha, e), provider.curve_for(gcd(alpha, e))


def motivic_zeta(provider: ReductionProvider) -> RationalSeries:
    """Zeta series of Neron classes ``[G(d)] L^{ord(d)} T^d`` in closed form.

    Each residue ``alpha mod e`` contributes the class of the degree
    ``gcd(alpha, e)`` fiber, a component count growing like ``d^t``, and an
    L-weight ``ord(d)`` advancing by ``e * c_tame`` per period.
    """
    provider.require_complete()
    jumps = provider.require_jumps()
    e = provider.e
    g = provider.genus
    w = e * jumps.c_tame
    if w.denominator != 1:
        raise InconsistentData("e * c_tame = %s is not an integer" % w)
    w = int(w)
    blocks = []
    for alpha, aprime, curve in _euler_blocks(provider):
        geo = geometry(curve)
        t, a_rank = geo.b1, geo.abelian_rank
        u = g - t - a_rank
        ab = tuple(sorted(v.g for v in curve.vertices if v.g > 0))
        phi_alpha = (alpha // aprime) ** t * component_group(curve).order
        shape = geometric_sum(e, alpha, t, w).scale(Fraction(1, aprime**t))
        torus = RationalSeries(
            {(0, k, ()): comb(t, k) * (-1) ** (t - k) for k in range(t + 1)}
        )
        block = (
            shape.mul_monomial(phi_alpha, l=u + ord_function(jumps, alpha), ab=ab)
            * torus
        )
        blocks.append(block.require_integral("zeta block at residue %d" % alpha))
    # One factor (1 - L^w T^e) throughout, as in component_series.
    return RationalSeries.sum(blocks).require_integral("motivic zeta")


def euler_specialize(provider: ReductionProvider) -> RationalSeries:
    """Integer series whose ``T^d`` coefficient is ``|Phi(d)|`` on degrees of
    additive reduction and 0 elsewhere."""
    provider.require_complete()
    e = provider.e
    terms = []
    for alpha, _, curve in _euler_blocks(provider):
        geo = geometry(curve)
        if geo.b1 == 0 and geo.abelian_rank == 0:
            phi = component_group(curve).order
            terms.append(RationalSeries({(alpha, 0, ()): phi}, ((0, e),)))
    # One factor (1 - T^e) throughout, as in component_series.
    return RationalSeries.sum(terms).require_integral("euler specialization")


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
    if not isinstance(doc["base"], str):
        raise ParseError("field 'base' must be a file name")
    raw_curves = doc.get("curves", {})
    if not isinstance(raw_curves, dict) or not all(
        isinstance(name, str) for name in raw_curves.values()
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
            "provider p=%r contradicts base curve p=%d" % (doc["p"], base.p)
        )
    curves = {}
    for a, name in raw_curves.items():
        degree = _parse_int(a, ParseError, "curve degree", "curve degree %s is not an integer")
        curves[degree] = load_curve(_resolve(name))
    jumps = None
    if "jumps" in doc:
        items = []
        for entry in doc["jumps"]:
            try:
                j, m = Fraction(str(entry["j"])), entry.get("m", 1)
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise ParseError("bad jump entry %r" % (entry,)) from exc
            if type(m) is not int:  # refuses 1.5 and true as well as "1"
                raise ParseError("bad jump entry %r" % (entry,))
            items.append((j, m))
        jumps = JumpSet(items)
    return ReductionProvider(base, curves, jumps)
