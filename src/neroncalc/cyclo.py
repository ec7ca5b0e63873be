"""Exact factored products of ``t^a - 1`` and their dense expansion.

A polynomial over Z is a dense coefficient list starting with the constant
term, so ``[ -1, 0, 1 ]`` is ``t^2 - 1``.  :class:`CycloProduct` represents
an expression ``prod_a (t^a - 1)^{e_a}`` with integer (possibly negative)
exponents without expanding it.  Exponents in the basis of cyclotomic
polynomials, from ``t^a - 1 = prod_{m | a} Phi_m(t)`` over the divisors of
each ``a``, are bookkeeping only.  Expansion reads half the coefficients:
a polynomial product is its own reversal up to sign, so its power series
below half the degree, where each ``1 - t^a`` is a unit, gives the rest.

>>> P = CycloProduct({6: 1, 3: -1, 2: -1, 1: 1})
>>> P.phi_exponents()
{6: 1}
>>> P.poly_str()
't^2 - t + 1'
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, gcd, lcm
from operator import itemgetter, neg, sub

from .errors import PreconditionError
from .record import Record


def poly_str(c: list[int]) -> str:
    """Human-readable form, highest degree first.

    >>> poly_str([1, -1, 1])
    't^2 - t + 1'
    >>> poly_str([])
    '0'
    """
    terms = []  # " + body" or " - body", one per nonzero coefficient
    for i in range(len(c) - 1, -1, -1):
        v = c[i]
        if v:
            sign, mag = (" - ", -v) if v < 0 else (" + ", v)
            if i > 1:
                terms.append(sign + "t^%d" % i if mag == 1 else "%s%d*t^%d" % (sign, mag, i))
            elif i:
                terms.append(sign + "t" if mag == 1 else "%s%d*t" % (sign, mag))
            else:
                terms.append("%s%d" % (sign, mag))
    if not terms:
        return "0"
    terms[0] = ("-" if terms[0][1] == "-" else "") + terms[0][3:]
    return "".join(terms)


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    """Ascending divisors of ``n >= 1`` by trial division up to sqrt(n).

    >>> _divisors(12)
    (1, 2, 3, 4, 6, 12)
    """
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


# -- factored products of (t^a - 1) ------------------------------------------


class CycloProduct(Record):
    """Exact product ``prod_a (t^a - 1)^{e_a}`` with ``e_a`` in Z.

    ``factors`` maps each ``a >= 1`` to its nonzero exponent.  The neutral
    element is the empty product (the constant 1).

    >>> CycloProduct({2: 1}) * CycloProduct({2: -1, 3: 2})
    CycloProduct({3: 2})
    >>> CycloProduct({6: 1}).power_d(2)
    CycloProduct({3: 2})
    """

    factors: tuple[tuple[int, int], ...]

    def __init__(self, factors=()):
        items = dict(factors)
        for a, e in list(items.items()):
            if a < 1:
                raise PreconditionError("factor exponent base must be >= 1")
            if e == 0:
                del items[a]
        super().__init__(tuple(sorted(items.items())))

    def __repr__(self):
        return "CycloProduct(%r)" % dict(self.factors)

    def __mul__(self, other: "CycloProduct") -> "CycloProduct":
        out = dict(self.factors)
        for a, e in other.factors:
            out[a] = out.get(a, 0) + e
        return CycloProduct(out)

    @property
    def degree(self) -> int:
        """Formal degree ``sum a * e_a`` (negative allowed)."""
        return sum(a * e for a, e in self.factors)

    def phi_exponents(self) -> dict[int, int]:
        """Exponents in the cyclotomic basis ``prod_m Phi_m^{k_m}``."""
        out: dict[int, int] = {}
        for a, e in self.factors:
            for m in _divisors(a):
                out[m] = out.get(m, 0) + e
        return {m: k for m, k in sorted(out.items()) if k}

    @property
    def is_polynomial(self) -> bool:
        return all(k >= 0 for k in self.phi_exponents().values())

    def as_poly(self) -> list[int]:
        """Expand to coefficients; requires :attr:`is_polynomial`.

        With ``n = sum a e_a`` and ``s = sum e_a``, ``Q = prod (1 - t^a)^{e_a}``
        is both ``(-1)^s P`` and ``t^n P(1/t)``, so ``c_{n-i} = (-1)^s c_i``:
        ``Q`` below degree ``h = n//2 + 1`` gives every coefficient.  There
        each ``1 - t^a`` is a unit of the power series ring, so products and
        quotients by it are exact in any order, and one with ``a >= h`` is 1.

        >>> CycloProduct({2: 1}).as_poly()
        [-1, 0, 1]
        >>> CycloProduct({2: -1}).as_poly()
        Traceback (most recent call last):
            ...
        neroncalc.errors.PreconditionError: not a polynomial
        """
        if not self.is_polynomial:
            raise PreconditionError("not a polynomial")
        n, s = self.degree, sum(e for _, e in self.factors)
        h = n // 2 + 1
        low = [(a, e) for a, e in self.factors if a < h]
        # seed with the binomial expansion of the largest positive power, saving most passes
        a0, e0 = max(low + [(1, 0)], key=itemgetter(1))
        q = [0] * h
        q[::a0] = [-comb(e0, k) if k & 1 else comb(e0, k) for k in range((h - 1) // a0 + 1)]
        for a, e in low:
            for _ in range(e - e0 if a == a0 else e):  # times (1 - t^a)
                q = list(map(sub, q, [0] * a + q[: h - a]))
            for _ in range(-e):  # over (1 - t^a): running sums per residue mod a
                for r in range(a):
                    q[r::a] = accumulate(q[r::a])
        return (list(map(neg, q)) if s & 1 else q) + q[: n + 1 - h][::-1]

    def power_d(self, d: int) -> "CycloProduct":
        """Image under the map sending every root ``z`` to ``z^d``.

        Each factor ``(t^a - 1)^e`` becomes ``(t^{a/g} - 1)^{g e}`` with
        ``g = gcd(a, d)``.
        """
        if d < 1:
            raise PreconditionError("d must be positive")
        out: dict[int, int] = {}
        for a, e in self.factors:
            g = gcd(a, d)
            out[a // g] = out.get(a // g, 0) + g * e
        return CycloProduct(out)

    def value_at_one(self) -> Fraction:
        """Exact value at ``t = 1``: each ``t^a - 1`` is ``t - 1`` times a
        factor that is ``a`` there, so 0 when ``sum e_a > 0``, ``prod a^{e_a}``
        when ``sum e_a = 0``, and a pole (:class:`PreconditionError`) else."""
        k1 = sum(e for _, e in self.factors)
        if k1 > 0:
            return Fraction(0)
        if k1 < 0:
            raise PreconditionError("pole at t = 1")
        out = Fraction(1)
        for a, e in self.factors:
            out *= Fraction(a) ** e
        return out

    def root_order(self) -> int:
        """lcm of the orders of the roots; requires :attr:`is_polynomial`.

        The constant 1 has no roots and returns 1.
        """
        phi = self.phi_exponents()
        if any(k < 0 for k in phi.values()):
            raise PreconditionError("not a polynomial")
        return lcm(*phi)

    def divides(self, other: "CycloProduct") -> bool:
        """Exponent domination in the cyclotomic basis."""
        mine = self.phi_exponents()
        theirs = other.phi_exponents()
        return all(k <= theirs.get(m, 0) for m, k in mine.items() if k > 0) and all(
            k >= 0 for k in mine.values()
        )

    def __str__(self):
        if not self.factors:
            return "1"
        parts = []
        for a, e in self.factors:
            base = "(t^%d-1)" % a if a > 1 else "(t-1)"
            parts.append(base if e == 1 else "%s^%d" % (base, e))
        return "".join(parts)

    def poly_str(self) -> str:
        """Expanded polynomial string; falls back to factored form."""
        try:
            return poly_str(self.as_poly())
        except PreconditionError:  # not a polynomial
            return str(self)
