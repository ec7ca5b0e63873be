"""Closed-form answers the benchmark checks neroncalc's outputs against.

Nothing here imports neroncalc: every expected value is either written out
by hand (the fixture table) or computed from a formula by independent code
(series expansion, cyclotomic exponents from divisor sums, polynomial
evaluation of printed strings).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

# name -> (genus, |Phi|, e, b1, P, c_tame).  Hand-derived from the dual
# graphs: |Phi| = prod N_i^(d_i - 2) on trees, P = (t-1)^2 prod
# (t^N_i - 1)^(-chi_i) expanded by hand, e = lcm of principal multiplicities.
# c_tame is the monodromy class of the Kodaira type (None where the
# contracted transform is not a fixed Kodaira type).
FIXTURES = {
    "I0": (1, 1, 1, 0, "t^2 - 2*t + 1", None),
    "I1": (1, 1, 1, 1, "t^2 - 2*t + 1", None),
    "I2": (1, 2, 1, 1, "t^2 - 2*t + 1", None),
    "I3": (1, 3, 1, 1, "t^2 - 2*t + 1", None),
    "I4": (1, 4, 1, 1, "t^2 - 2*t + 1", None),
    "I5": (1, 5, 1, 1, "t^2 - 2*t + 1", None),
    "I6": (1, 6, 1, 1, "t^2 - 2*t + 1", None),
    "II": (1, 1, 6, 0, "t^2 - t + 1", Fraction(1, 6)),
    "III": (1, 2, 4, 0, "t^2 + 1", Fraction(1, 4)),
    "IV": (1, 3, 3, 0, "t^2 + t + 1", Fraction(1, 3)),
    "I0star": (1, 4, 2, 0, "t^2 + 2*t + 1", Fraction(1, 2)),
    "I1star": (1, 4, 2, 0, "t^2 + 2*t + 1", None),
    "I2star": (1, 4, 2, 0, "t^2 + 2*t + 1", None),
    "I3star": (1, 4, 2, 0, "t^2 + 2*t + 1", None),
    "I4star": (1, 4, 2, 0, "t^2 + 2*t + 1", None),
    "IVstar": (1, 3, 3, 0, "t^2 + t + 1", Fraction(2, 3)),
    "IIIstar": (1, 2, 4, 0, "t^2 + 1", Fraction(3, 4)),
    "IIstar": (1, 1, 6, 0, "t^2 - t + 1", Fraction(5, 6)),
    "g2_additive": (2, 1, 6, 0, "t^4 - 2*t^3 + 3*t^2 - 2*t + 1", None),
    "g2_semistable": (2, 1, 1, 0, "t^4 - 4*t^3 + 6*t^2 - 4*t + 1", None),
}

#: Kodaira type of each monodromy class c_tame, as a fixture name.
TYPE_OF_CLASS = {c: name for name, (*_, c) in FIXTURES.items() if c is not None}

# Elliptic base change conductors of the tame types (equal to c_tame when
# p = 1 and v(Delta) is the standard value).
ELLIPTIC_C = {
    "II": Fraction(1, 6), "III": Fraction(1, 4), "IV": Fraction(1, 3),
    "I0*": Fraction(1, 2), "IV*": Fraction(2, 3), "III*": Fraction(3, 4),
    "II*": Fraction(5, 6),
}
ELLIPTIC_VDELTA = {"II": 2, "III": 3, "IV": 4, "I0*": 6, "IV*": 8, "III*": 9, "II*": 10}


def multiplicities(doc: dict) -> list[int]:
    return sorted(v["N"] for v in doc["vertices"])


def genus_of(doc: dict) -> int:
    """Arithmetic genus from ``sum N_i (2 - 2 g_i - deg_i) = 2 - 2 g``."""
    deg: dict[str, int] = {}
    for a, b in doc["edges"]:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    total = sum(v["N"] * (2 - 2 * v["g"] - deg.get(v["id"], 0))
                for v in doc["vertices"])
    return (2 - total) // 2


def contracted_multiplicities(name: str, d: int, fixtures: dict) -> list[int] | None:
    """Multiplicity multiset of the minimal model of fixture ``name`` after
    tame base change of degree ``d``, or None where no closed form is known.

    The monodromy class ``c`` of a Kodaira type goes to ``d c mod 1``;
    ``I_n`` goes to ``I_nd`` and ``I_n*`` to ``I_nd*``.
    """
    cls = FIXTURES[name][5]
    if cls is not None:
        return multiplicities(fixtures[TYPE_OF_CLASS[(d * cls) % 1]])
    m = re.fullmatch(r"I(\d+)(star)?", name)
    if not m or m.group(1) == "0":
        return None
    n = int(m.group(1)) * d
    return [1] * 4 + [2] * (n + 1) if m.group(2) else [1] * n


_TERM = re.compile(r"^(-?)(?:(\d+)\*)?(t(?:\^(\d+))?|\d+)$")


def parse_poly(text: str) -> dict[int, int]:
    """Coefficients of a polynomial printed as ``t^2 - 2*t + 1``."""
    out: dict[int, int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        m = _TERM.match(term)
        if not m:
            raise ValueError("unparsable term %r" % term)
        sign, coeff, body, exp = m.groups()
        if body.startswith("t"):
            deg, c = int(exp or 1), int(coeff or 1)
        else:
            if coeff:
                raise ValueError("unparsable term %r" % term)
            deg, c = 0, int(body)
        out[deg] = out.get(deg, 0) + (-c if sign else c)
    return out


def eval_poly(coeffs: dict[int, int], x):
    return sum(c * x ** k for k, c in coeffs.items())


def ones_poly_str(n: int) -> str:
    """``(t^n - 1)/(t - 1)``, that is ``n`` ones, printed highest degree first."""
    return " + ".join("t^%d" % k if k > 1 else "t" if k else "1"
                      for k in range(n - 1, -1, -1))


def series_coefficients(series: dict, order: int) -> list[int]:
    """Integer coefficients of ``T^0..T^order`` of a series dict
    (``RationalSeries.to_dict`` layout) free of ``L`` and ``[B]``."""
    coeffs = [0] * (order + 1)
    for term in series["num"]:
        if term["L"] or term["B"]:
            raise ValueError("series carries L or [B] terms")
        if term["T"] <= order:
            coeffs[term["T"]] += int(term["c"])
    for a, b in series["den"]:
        if a:
            raise ValueError("denominator carries L")
        for k in range(b, order + 1):  # multiply by 1/(1 - T^b)
            coeffs[k] += coeffs[k - b]
    return coeffs


def divisors(n: int) -> list[int]:
    small, large = [], []
    k = 1
    while k * k <= n:
        if n % k == 0:
            small.append(k)
            if k * k != n:
                large.append(n // k)
        k += 1
    return small + large[::-1]


def totient(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def phi_exponents(factors: dict[int, int]) -> dict[int, int]:
    """Exponents of ``prod (t^a - 1)^e_a`` in the basis of cyclotomic
    polynomials, from ``t^a - 1 = prod_{m | a} Phi_m``."""
    out: dict[int, int] = {}
    for a, e in factors.items():
        for m in divisors(a):
            out[m] = out.get(m, 0) + e
    return {m: k for m, k in out.items() if k}


def phi_power_d(phi: dict[int, int], d: int) -> dict[int, int]:
    """Image of ``prod Phi_m^k_m`` under ``z -> z^d``: the ``phi(m)`` roots of
    order ``m`` go to roots of order ``m' = m/gcd(m, d)``, evenly."""
    out: dict[int, int] = {}
    for m, k in phi.items():
        m2 = m // gcd(m, d)
        out[m2] = out.get(m2, 0) + k * totient(m) // totient(m2)
    return {m: k for m, k in out.items() if k}


def value_at_one(factors: dict[int, int]) -> Fraction:
    """``prod (t^a - 1)^e_a`` at ``t = 1`` when ``sum e_a = 0``: each
    ``(t^a - 1)/(t - 1)`` tends to ``a``."""
    if sum(factors.values()):
        raise ValueError("only products with sum e_a = 0 have a finite nonzero value")
    out = Fraction(1)
    for a, e in factors.items():
        out *= Fraction(a) ** e
    return out


def root_order(factors: dict[int, int]) -> int:
    """lcm of root orders of a product with positive exponents: ``lcm(a)``."""
    return lcm(*factors) if factors else 1
