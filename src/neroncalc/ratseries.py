"""Exact rational generating series with geometric denominators.

A series lives in ``R[T, 1/(1 - L^a T^b)]`` where ``R = Z[L^{+-1}][AB]`` is
spanned by monomials ``L^l * [B]`` with ``[B]`` an opaque commutative symbol
keyed by a multiset of positive genera (the class of a product of Jacobians;
the empty multiset is the unit).  Numerators are flat dictionaries

    (T-degree, L-exponent, genus multiset) -> int

with no zero values; denominators are multisets of factors ``1 - L^a T^b``
with ``b >= 1``.  Coefficients are integers: the constructor, the only
judge of integrality, stores an integral ``Fraction`` as its numerator and
refuses any other value with :class:`~neroncalc.errors.NonIntegralAssembly`.

A sum is assembled once (:meth:`RationalSeries.sum`): one common
denominator, one numerator, one reduction, which tries each distinct
factor once, dividing until it fails.  Every operation by a factor ``f = 1 -
L^a T^b`` is one walk along the orbits ``(n + q b, l + q a, [B])``, ``q`` in
Z, of ``L^a T^b`` on the numerator's terms.  Multiplying by ``f`` subtracts
the copy shifted one step along the orbits.  Dividing by ``f`` takes running
sums along each orbit: cut at ``T^order`` they are the power series that
:meth:`RationalSeries.expand` returns, and up to each orbit's last term they
are the exact quotient, which exists exactly when every orbit sums to 0.

A block of arithmetic progressions ``sum_q ((q e + b)/a)^t L^{q w} T^{q e +
b}`` over many residues ``b``, all multiples of a stride ``a`` dividing
``e``, is one progression numerator over ``(1 - L^w T^e)^{t+1}``: the
``(T/a) d/dT`` recursion that builds it is linear in its start, so all
residues enter it at once and the block is built and reduced once, not once
per residue.

>>> s = RationalSeries({(1, 0, ()): 1}, [(0, 2)])   # T + T^3 + T^5 + ...
>>> str(s)
'(T) / (1 - T^2)'
>>> s.expand(5)[(5, 0, ())]
1
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .errors import NonIntegralAssembly, NonReducible, PreconditionError

Key = tuple[int, int, tuple[int, ...]]
Poly = dict[Key, int]

_HASH_ORDER = 8  # T-order of the expansion that __hash__ reads


def _clean(poly: Poly) -> Poly:
    return {k: v for k, v in poly.items() if v}


def _coeff(v) -> int:
    """``v`` as an ``int``: an integral ``Fraction`` gives its numerator."""
    if type(v) is int:
        return v
    if type(v) is Fraction and v.denominator == 1:
        return v.numerator
    raise NonIntegralAssembly("series coefficient is not an integer: a %s" % type(v).__name__)


def _times_factor(poly: Poly, a: int, b: int) -> Poly:
    """``poly (1 - L^a T^b)``: ``poly`` less its copy shifted by ``L^a T^b``."""
    out = dict(poly)
    for (n, l, ab), v in poly.items():
        k = (n + b, l + a, ab)
        out[k] = out[k] - v if k in out else -v
    return _clean(out)


def _over_factor(poly: Poly, a: int, b: int, order: int | None = None) -> Poly | None:
    """``poly / (1 - L^a T^b)`` by running sums along each orbit ``(n + q b,
    l + q a, [B])`` of ``L^a T^b``: the power series cut at ``T^order``, or,
    without an order, the exact quotient, None unless every orbit sums to 0.
    Each stretch from a term to the next is written only where its running
    sum is nonzero, so a gap between terms costs nothing."""
    orbits: dict[Key, dict[int, int]] = {}
    for (n, l, ab), v in poly.items():
        q, r = divmod(n, b)
        key = (r, l - a * q, ab)
        if key in orbits:
            orbits[key][q] = v
        else:
            orbits[key] = {q: v}
    out: Poly = {}
    for (r, l, ab), terms in orbits.items():
        if order is None:
            if sum(terms.values()):
                return None
            end = max(terms)
        else:
            end = (order - r) // b + 1
        qs, acc = sorted(terms), 0
        for q, stop in zip(qs, qs[1:] + [end]):  # from each term to the next
            acc += terms[q]
            if acc:
                for k in range(q, min(stop, end)):
                    out[(r + k * b, l + k * a, ab)] = acc
    return out


def _reduce(num: Poly, den: tuple[tuple[int, int], ...]):
    """Cancel each distinct factor of ``den`` while it divides ``num``: once
    ``f`` fails it fails for good, as ``num / f' = f r`` gives ``num = f f' r``."""
    left: list[tuple[int, int]] = []
    for f in sorted(set(den)):
        k = den.count(f)
        while k and (q := _over_factor(num, *f)) is not None:
            num, k = q, k - 1
        left += [f] * k
    return num, tuple(left)


class RationalSeries:
    """Numerator polynomial over a multiset of ``1 - L^a T^b`` factors.

    Instances are immutable; identical factors are cancelled against the
    numerator whenever exact division succeeds, and the zero series has no
    denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=()):
        if isinstance(num, dict):
            num = num.items()
        poly = _clean({k: _coeff(v) for k, v in num})
        den = tuple(sorted(tuple(f) for f in den))
        for a, b in den:
            if b < 1:
                raise PreconditionError("denominator factor needs b >= 1")
        poly, den = _reduce(poly, den) if poly else (poly, ())
        object.__setattr__(self, "num", tuple(sorted(poly.items())))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("RationalSeries is immutable")

    # -- sum and comparison ----------------------------------------------------

    @classmethod
    def sum(cls, terms) -> "RationalSeries":
        """Sum over the common denominator (each factor at its largest
        multiplicity among the terms), reduced once.

        >>> odd = RationalSeries({(1, 0, ()): 1}, [(0, 2)])
        >>> str(RationalSeries.sum((odd, RationalSeries({(2, 0, ()): 1}, [(0, 2)]))))
        '(T + T^2) / (1 - T^2)'
        """
        terms = list(terms)
        if len(terms) == 1:  # a series is stored reduced
            return terms[0]
        terms = [(dict(s.num), Counter(s.den)) for s in terms]
        common: Counter = Counter()
        for _, den in terms:
            common |= den
        num: Poly = {}
        for part, den in terms:
            missing = common - den
            for f in missing.elements():
                part = _times_factor(part, *f)
            for k, v in part.items():
                num[k] = num[k] + v if k in num else v
        return cls(num, common.elements())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalSeries):
            return NotImplemented
        lhs, rhs = dict(self.num), dict(other.num)
        for f in other.den:
            lhs = _times_factor(lhs, *f)
        for f in self.den:
            rhs = _times_factor(rhs, *f)
        return lhs == rhs

    def __hash__(self):
        # equal series share their power series, not their (num, den)
        return hash(frozenset(self.expand(_HASH_ORDER).items()))

    def __repr__(self):
        return "RationalSeries(%s)" % self

    # -- analysis ----------------------------------------------------------------

    def expand(self, order: int) -> Poly:
        """Power series coefficients up to and including ``T^order``."""
        out = {k: v for k, v in self.num if k[0] <= order}
        for a, b in self.den:
            out = _over_factor(out, a, b, order)
        return out

    def degree(self) -> int:
        """``deg_T(num) - sum of denominator T-degrees``."""
        if not self.num:
            raise PreconditionError("degree of the zero series")
        return max(k[0] for k, _ in self.num) - sum(b for _, b in self.den)

    def pole_order_at_one(self) -> int:
        """Order of the pole at ``T = 1`` for series with plain Z numerators.

        Counts denominator factors ``1 - T^b`` net of the multiplicity of
        ``T = 1`` as a numerator root: the numerator is divided by ``1 - T``
        while it can, at most once per such factor.
        """
        if any(l or ab for (_, l, ab), _ in self.num):
            raise NonReducible("numerator carries L or abelian classes")
        num = dict(self.num)
        vanishing = sum(1 for a, _ in self.den if a == 0)
        mult = 0
        # 1 - T divides num exactly when its coefficients sum to 0
        while mult < vanishing and not sum(num.values()):
            num, mult = _over_factor(num, 0, 1), mult + 1
        return vanishing - mult

    def unique_pole_slope(self) -> tuple[Fraction, int]:
        """The single slope ``a/b`` among denominator factors, with its count."""
        if not self.den:
            raise NonReducible("series has no denominator factors")
        slopes = {Fraction(a, b) for a, b in self.den}
        if len(slopes) != 1:
            raise NonReducible("multiple pole slopes: %s" % sorted(slopes))
        return slopes.pop(), len(self.den)

    # -- presentation ---------------------------------------------------------------

    def __str__(self):
        num = _poly_str(dict(self.num))
        if not self.den:
            return num
        den = " ".join(_factor_str(a, b) for a, b in self.den)
        return "(%s) / %s" % (num, den)

    def to_dict(self) -> dict:
        return {
            "num": [
                {
                    "T": n,
                    "L": l,
                    "B": list(ab),
                    "c": v,
                }
                for (n, l, ab), v in self.num
            ],
            "den": [list(f) for f in self.den],
            "pretty": str(self),
        }


def _coeff_str(l: int, ab: tuple[int, ...], v: int) -> str:
    symbols = []
    if l:
        symbols.append("L" if l == 1 else "L^%d" % l)
    if ab:
        symbols.append("[B(%s)]" % ",".join(map(str, ab)))
    if not symbols:
        return str(v)
    body = "*".join(symbols)
    if v == 1:
        return body
    if v == -1:
        return "-" + body
    return "%s*%s" % (v, body)


def _poly_str(poly: Poly) -> str:
    if not poly:
        return "0"
    bits = []
    for (n, l, ab), v in sorted(poly.items()):
        c = _coeff_str(l, ab, v)
        if n == 0:
            bits.append(c)
        else:
            tpart = "T" if n == 1 else "T^%d" % n
            if c == "1":
                bits.append(tpart)
            elif c == "-1":
                bits.append("-" + tpart)
            else:
                bits.append("%s*%s" % (c, tpart))
    return " + ".join(bits).replace("+ -", "- ")


def _factor_str(a: int, b: int) -> str:
    tpart = "T" if b == 1 else "T^%d" % b
    if a == 0:
        return "(1 - %s)" % tpart
    lpart = "L" if a == 1 else "L^%d" % a
    return "(1 - %s %s)" % (lpart, tpart)


def _progression_sum(start: Poly, e: int, t: int, w: int, a: int) -> RationalSeries:
    """Closed form of ``sum_{q >= 0} ((n + q e)/a)^t c L^{l + q w} [B] T^{n + q e}``
    summed over the terms ``c L^l [B] T^n`` of ``start``: one progression
    numerator over ``(1 - L^w T^e)^{t+1}``, with integer coefficients ``c``.

    Built by applying ``(T/a) d/dT`` ``t`` times to ``start / (1 - L^w T^e)``,
    which is linear in ``start``.  The stride ``a`` must divide ``e`` and
    every T-degree of ``start``: then every T-degree of every step is a
    multiple of ``a``, so each step is exact in integers.
    """
    if t < 0:
        raise PreconditionError("need t >= 0, got t = %d" % t)
    num, e_a = start, e // a
    for k in range(1, t + 1):
        # theta = (T/a) d/dT:  theta (num / f^k)
        #   = (theta num - L^w T^e theta num + k (e/a) L^w T^e num) / f^{k+1}
        out: Poly = {}
        for (n, l, ab), v in num.items():
            m = n // a
            key = (n, l, ab)
            out[key] = out[key] + m * v if key in out else m * v
            key = (n + e, l + w, ab)
            c = (k * e_a - m) * v
            out[key] = out[key] + c if key in out else c
        num = out
    return RationalSeries(num, ((w, e),) * (t + 1))

