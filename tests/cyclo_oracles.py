"""Cyclotomic polynomials and schoolbook polynomial arithmetic, used only
by the tests.

``phi_basis_as_poly`` expands a :class:`~neroncalc.cyclo.CycloProduct`
through its exponents in the basis of cyclotomic polynomials, each
``Phi_m`` built by recursive exact division and multiplied out with
schoolbook products: a route independent of the library's power series
below half the degree.  ``concat_poly_str`` is the printer the library
had before it joined its terms once, kept as a reference for ``poly_str``.
"""

from functools import lru_cache

from neroncalc.cyclo import CycloProduct


def poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Schoolbook product of dense integer coefficient lists.

    >>> poly_mul([1, 1], [-1, 1])
    [-1, 0, 1]
    """
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
    """Horner evaluation of a dense coefficient list at ``x``."""
    out = 0
    for v in reversed(c):
        out = out * x + v
    return out


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


def phi_basis_as_poly(P: CycloProduct) -> list[int]:
    """Coefficients of ``P`` as the product of its ``Phi_m`` powers.

    >>> phi_basis_as_poly(CycloProduct({6: 1, 3: -1, 2: -1, 1: 1}))
    [1, -1, 1]
    """
    out = [1]
    for m, k in P.phi_exponents().items():
        if k < 0:
            raise ValueError("not a polynomial")
        phim = list(cyclotomic(m))
        for _ in range(k):
            out = poly_mul(out, phim)
    return out


def concat_poly_str(c: list[int]) -> str:
    """``poly_str`` by appending each term to the text so far.

    >>> concat_poly_str([-1, 0, 2])
    '2*t^2 - 1'
    """
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
            tpow = "t" if i == 1 else "t^%d" % i
            body = tpow if mag == 1 else "%d*%s" % (mag, tpow)
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text
