"""Integer polynomials and exact factored products of ``t^a - 1``.

A polynomial over Z is a dense coefficient list starting with the constant
term, so ``[ -1, 0, 1 ]`` is ``t^2 - 1``.  :class:`CycloProduct` represents
an expression ``prod_a (t^a - 1)^{e_a}`` with integer (possibly negative)
exponents without expanding it; conversion to the basis of cyclotomic
polynomials is exact via ``t^a - 1 = prod_{m | a} Phi_m(t)``.

>>> P = CycloProduct({6: 1, 3: -1, 2: -1, 1: 1})
>>> P.phi_exponents()
{6: 1}
>>> P.poly_str()
't^2 - t + 1'
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import MalformedFiber

# -- dense integer polynomial helpers ---------------------------------------


def poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return poly_trim(out)


def poly_divexact(a: list[int], b: list[int]) -> list[int]:
    """Exact division in Z[t]; raises ``ValueError`` on any remainder.

    >>> poly_divexact([-1, 0, 0, 1], [-1, 1])
    [1, 1, 1]
    """
    a = list(a)
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return []
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        head = a[i + len(b) - 1]
        if head % b[-1]:
            raise ValueError("division is not exact")
        q[i] = head // b[-1]
        if q[i]:
            for j, y in enumerate(b):
                a[i + j] -= q[i] * y
    if any(a):
        raise ValueError("division is not exact")
    return poly_trim(q)


def poly_eval(c: list[int], x):
    out = 0
    for v in reversed(c):
        out = out * x + v
    return out


def poly_str(c: list[int], var: str = "t") -> str:
    """Human-readable form, highest degree first.

    >>> poly_str([1, -1, 1])
    't^2 - t + 1'
    >>> poly_str([])
    '0'
    """
    if not c:
        return "0"
    parts = []
    for i in range(len(c) - 1, -1, -1):
        v = c[i]
        if not v:
            continue
        sign = "-" if v < 0 else "+"
        mag = abs(v)
        if i == 0:
            body = str(mag)
        else:
            tpow = var if i == 1 else "%s^%d" % (var, i)
            body = tpow if mag == 1 else "%d*%s" % (mag, tpow)
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial.

    >>> cyclotomic(1)
    (-1, 1)
    >>> cyclotomic(6)
    (1, -1, 1)
    """
    if m < 1:
        raise ValueError("m must be positive")
    num = [-1] + [0] * (m - 1) + [1]  # t^m - 1
    for d in range(1, m):
        if m % d == 0:
            num = poly_divexact(num, list(cyclotomic(d)))
    return tuple(num)


def cyclotomic_at_one(m: int) -> int:
    """``Phi_m(1)``: 0 for m = 1, the prime p for m = p^k, else 1."""
    if m == 1:
        return 0
    return poly_eval(list(cyclotomic(m)), 1)


# -- factored products of (t^a - 1) ------------------------------------------


@dataclass(frozen=True)
class CycloProduct:
    """Exact product ``prod_a (t^a - 1)^{e_a}`` with ``e_a`` in Z.

    ``factors`` maps each ``a >= 1`` to its nonzero exponent.  The neutral
    element is the empty product (the constant 1).

    >>> CycloProduct({2: 1}) * CycloProduct({2: -1, 3: 2})
    CycloProduct({3: 2})
    >>> CycloProduct({6: 1}).power_d(2)
    CycloProduct({3: 2})
    """

    factors: tuple[tuple[int, int], ...] = field(default=())

    def __init__(self, factors=()):
        items = dict(factors)
        for a, e in list(items.items()):
            if a < 1:
                raise ValueError("factor exponent base must be >= 1")
            if e == 0:
                del items[a]
        object.__setattr__(self, "factors", tuple(sorted(items.items())))

    def __repr__(self):
        return "CycloProduct(%r)" % dict(self.factors)

    @classmethod
    def one(cls) -> "CycloProduct":
        return cls()

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def __mul__(self, other: "CycloProduct") -> "CycloProduct":
        out = dict(self.factors)
        for a, e in other.factors:
            out[a] = out.get(a, 0) + e
        return CycloProduct(out)

    def __pow__(self, k: int) -> "CycloProduct":
        return CycloProduct({a: e * k for a, e in self.factors})

    @property
    def degree(self) -> int:
        """Formal degree ``sum a * e_a`` (negative allowed)."""
        return sum(a * e for a, e in self.factors)

    def phi_exponents(self) -> dict[int, int]:
        """Exponents in the cyclotomic basis ``prod_m Phi_m^{k_m}``."""
        out: dict[int, int] = {}
        for a, e in self.factors:
            for m in range(1, a + 1):
                if a % m == 0:
                    out[m] = out.get(m, 0) + e
        return {m: k for m, k in sorted(out.items()) if k}

    @property
    def is_polynomial(self) -> bool:
        return all(k >= 0 for k in self.phi_exponents().values())

    def as_poly(self) -> list[int]:
        """Expand to coefficients; requires :attr:`is_polynomial`.

        >>> CycloProduct({2: 1}).as_poly()
        [-1, 0, 1]
        >>> CycloProduct({2: -1}).as_poly()
        Traceback (most recent call last):
            ...
        ValueError: not a polynomial
        """
        out = [1]
        for m, k in self.phi_exponents().items():
            if k < 0:
                raise ValueError("not a polynomial")
            phim = list(cyclotomic(m))
            for _ in range(k):
                out = poly_mul(out, phim)
        return out

    def power_d(self, d: int) -> "CycloProduct":
        """Image under the map sending every root ``z`` to ``z^d``.

        Each factor ``(t^a - 1)^e`` becomes ``(t^{a/g} - 1)^{g e}`` with
        ``g = gcd(a, d)``.
        """
        if d < 1:
            raise ValueError("d must be positive")
        out: dict[int, int] = {}
        for a, e in self.factors:
            g = gcd(a, d)
            out[a // g] = out.get(a // g, 0) + g * e
        return CycloProduct(out)

    def value_at_one(self) -> Fraction:
        """Exact value at ``t = 1`` (0 when ``Phi_1`` divides, else a ratio)."""
        phi = self.phi_exponents()
        k1 = phi.pop(1, 0)
        if k1 > 0:
            return Fraction(0)
        if k1 < 0:
            raise ZeroDivisionError("pole at t = 1")
        out = Fraction(1)
        for m, k in phi.items():
            out *= Fraction(cyclotomic_at_one(m)) ** k
        return out

    def root_order(self) -> int:
        """lcm of the orders of the roots; requires a polynomial.

        The constant 1 has no roots and returns 1.
        """
        phi = self.phi_exponents()
        if any(k < 0 for k in phi.values()):
            raise MalformedFiber("root orders undefined for non-polynomials")
        orders = [m for m, k in phi.items() if k > 0]
        return lcm(*orders) if orders else 1

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
        if self.is_polynomial:
            return poly_str(self.as_poly())
        return str(self)
