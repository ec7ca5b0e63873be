"""Per-residue assemblies of the three provider series, the series
operations they use, the general product of numerators, the order function
of a jump set, and the slice division and restart reduction of numerators,
used only by the tests.

The library multiplies and divides only by single factors ``1 - L^a T^b``;
:func:`_poly_mul` multiplies two numerators term by term, and
:func:`_den_poly` expands a product of factors with it.  :func:`ord_function`
is the floor sum of a jump set at one degree.

The operations act on a series' ``num`` and ``den``: :func:`series_product`,
:func:`scale`, :func:`subs_T_power` and :func:`geometric_sum`, each built
through the :class:`~neroncalc.ratseries.RationalSeries` constructor, so
each result is reduced and integral.

Each assembly walks its own residues, independently of :mod:`neroncalc.zeta`:
every residue is its own :func:`geometric_sum`, built and reduced on its own,
then scaled, substituted or multiplied, and the residues are summed.  All
three run over the residues prime to ``p`` modulo ``lcm(e, p)``, and a
residue of stable degree ``a`` scales its progression by ``|Phi_a| / a^t``,
which the series constructor refuses unless every coefficient stays an
integer.  A reduced numerator over powers of one factor
is unique, so the library's block-at-once assemblies must give the same
``to_dict()`` bit for bit.

:func:`reduce_by_restart` cancels denominator factors by the slice division
of :func:`divide_by_verified_quotient`, starting again from the smallest
factor after every success; the library's one pass over the factors must
leave the same numerator and denominator.
"""

from fractions import Fraction
from math import comb, floor, gcd, lcm

from neroncalc.curves import geometry
from neroncalc.errors import InconsistentData
from neroncalc.invariants import component_group
from neroncalc.ratseries import RationalSeries, _clean, _progression_sum
from neroncalc.zeta import ReductionProvider


def _merge_ab(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(x + y))


def _poly_mul(a, b):
    """The general product of two numerators, term by term."""
    out = {}
    for (n1, l1, ab1), v1 in a.items():
        for (n2, l2, ab2), v2 in b.items():
            k = (n1 + n2, l1 + l2, _merge_ab(ab1, ab2))
            out[k] = out.get(k, 0) + v1 * v2
    return _clean(out)


def _factor_poly(a: int, b: int):
    return {(0, 0, ()): 1, (b, a, ()): -1}


def _den_poly(den):
    out = {(0, 0, ()): 1}
    for a, b in den:
        out = _poly_mul(out, _factor_poly(a, b))
    return out


def ord_function(jumps, d: int) -> int:
    """``sum_j m_j floor(d j)``, the floor sum that ``zeta._ord_values``
    computes for many degrees at once."""
    return sum(m * floor(d * j) for j, m in jumps.jumps)


def series_product(x: RationalSeries, y: RationalSeries) -> RationalSeries:
    """``x y``: the product of the numerators over both denominators."""
    return RationalSeries(_poly_mul(dict(x.num), dict(y.num)), x.den + y.den)


def scale(s: RationalSeries, c) -> RationalSeries:
    """``c s``, refused unless every coefficient stays an integer."""
    return RationalSeries({k: v * c for k, v in s.num}, s.den)


def subs_T_power(s: RationalSeries, a: int) -> RationalSeries:
    """``s`` with ``T -> T^a``."""
    return RationalSeries({(n * a, l, ab): v for (n, l, ab), v in s.num},
                          [(w, b * a) for w, b in s.den])


def geometric_sum(e: int, b: int, t: int, w: int) -> RationalSeries:
    """Closed form of ``sum_{q >= 0} (q e + b)^t L^{q w} T^{q e + b}``, over
    ``(1 - L^w T^e)^{t+1}``."""
    return _progression_sum({(b, 0, ()): 1}, e, t, w, 1)


def component_series_per_residue(provider: ReductionProvider) -> RationalSeries:
    e, p = provider.e, provider.p
    blocks = []
    for a in provider.stable_degrees:
        curve = provider.curves[a]
        t = geometry(curve).b1
        phi = component_group(curve).order
        e_a = e // a
        m = e_a if p == 1 else lcm(e_a, p)
        block = RationalSeries.sum(
            geometric_sum(m, b, t, 0)
            for b in range(1, m + 1)
            if gcd(b, e_a) == 1 and (p == 1 or b % p)
        )
        blocks.append(subs_T_power(scale(block, phi), a))
    return RationalSeries.sum(blocks)


def _residues(provider: ReductionProvider):
    """Yield ``(alpha, alpha', curve)`` over the residues ``alpha`` in
    ``1..lcm(e, p)`` prime to p, with ``alpha' = gcd(alpha, e)``."""
    e, p = provider.e, provider.p
    for alpha in range(1, lcm(e, p) + 1):
        if p > 1 and gcd(alpha, p) != 1:
            continue
        yield alpha, gcd(alpha, e), provider.curves[gcd(alpha, e)]


def motivic_zeta_per_residue(provider: ReductionProvider) -> RationalSeries:
    jumps = provider.require_jumps()
    period = lcm(provider.e, provider.p)
    g = provider.genus
    w = period * jumps.c_tame
    if w.denominator != 1:
        raise InconsistentData("lcm(e, p) * c_tame = %s is not an integer" % w)
    w = int(w)
    blocks = []
    for alpha, aprime, curve in _residues(provider):
        geo = geometry(curve)
        t, a_rank = geo.b1, geo.abelian_rank
        u = g - t - a_rank
        ab = tuple(sorted(filter(None, curve.g)))
        phi = component_group(curve).order
        shape = scale(geometric_sum(period, alpha, t, w), Fraction(1, aprime**t))
        torus = RationalSeries(
            {(0, k, ()): comb(t, k) * (-1) ** (t - k) for k in range(t + 1)}
        )
        klass = RationalSeries({(0, u + ord_function(jumps, alpha), ab): phi})
        blocks.append(series_product(series_product(shape, klass), torus))
    return RationalSeries.sum(blocks)


def euler_specialize_per_residue(provider: ReductionProvider) -> RationalSeries:
    period = lcm(provider.e, provider.p)
    terms = []
    for alpha, _, curve in _residues(provider):
        geo = geometry(curve)
        if geo.b1 == 0 and geo.abelian_rank == 0:
            phi = component_group(curve).order
            terms.append(RationalSeries({(alpha, 0, ()): phi}, ((0, period),)))
    return RationalSeries.sum(terms)


def divide_by_verified_quotient(num, a, b):
    """Quotient by ``1 - L^a T^b`` from the slice recursion, accepted only
    when quotient times factor gives ``num`` back."""
    if not num:
        return {}
    slices = {}
    for (n, l, ab), v in num.items():
        slices.setdefault(n, {})[(l, ab)] = v
    quotient = {}
    for n in range(min(slices), max(slices) + 1):
        cur = dict(slices.get(n, {}))
        for (l, ab), v in quotient.get(n - b, {}).items():
            cur[(l + a, ab)] = cur.get((l + a, ab), 0) + v
        cur = {k: v for k, v in cur.items() if v}
        if cur:
            quotient[n] = cur
    flat = {(n, l, ab): v for n, sl in quotient.items() for (l, ab), v in sl.items()}
    if _poly_mul(flat, _factor_poly(a, b)) != _clean(dict(num)):
        return None
    return flat


def reduce_by_restart(num, den):
    """Cancel factors of ``den`` against ``num``, trying the distinct factors
    in sorted order and starting again from the first after each success."""
    changed = True
    while changed and num:
        changed = False
        for f in sorted(set(den)):
            q = divide_by_verified_quotient(num, *f)
            if q is not None:
                num = q
                rem = list(den)
                rem.remove(f)
                den = tuple(rem)
                changed = True
                break
    return num, den
