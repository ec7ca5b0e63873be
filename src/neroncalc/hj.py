"""Hirzebruch-Jung continued fractions and cyclic quotient resolutions.

``hj_expand`` writes ``n/r`` as ``b1 - 1/(b2 - 1/(... - 1/bL))`` with every
``bi >= 2``; these are the negatives of the self-intersection numbers of the
exceptional chain resolving the corresponding two-dimensional cyclic
quotient singularity.  ``resolve_chain`` adds the multiplicities carried by
the chain inside a degenerating one-parameter family, and
``local_point_data`` packages the full normalization bookkeeping of an
intersection point of branch multiplicities ``(m1, m2)`` under a degree-``d``
cover of the base.
"""

from __future__ import annotations

from math import gcd

from .errors import BadFraction, BadLocalData
from .record import Record


def hj_expand(n: int, r: int) -> list[int]:
    """Minus-continued-fraction digits of ``n/r``, all ``>= 2``.

    >>> hj_expand(5, 2)
    [3, 2]
    >>> hj_expand(7, 1)
    [7]
    """
    if not (0 < r < n):
        raise BadFraction("need 0 < r < n, got r=%d n=%d" % (r, n))
    if gcd(n, r) != 1:
        raise BadFraction("n=%d and r=%d are not coprime" % (n, r))
    digits = []
    while r:
        b = -((-n) // r)  # ceil(n / r)
        digits.append(b)
        n, r = r, b * r - n
    return digits


class HJChain(Record):
    """Resolution chain data: digits ``b`` and multiplicities ``mu``.

    ``mu`` has length ``len(b) + 2``; its ends ``mu[0]`` and ``mu[-1]`` are
    the multiplicities of the two branches through the singular point and
    the interior entries are the multiplicities of the exceptional curves,
    which have self-intersections ``-b[i]``.
    """

    n: int
    r: int
    b: tuple[int, ...]
    mu: tuple[int, ...]

    def __init__(self, n: int, r: int, b: tuple[int, ...], mu: tuple[int, ...]):
        super().__init__(n, r, b, mu)
        if len(mu) != len(b) + 2:
            raise BadLocalData("chain length mismatch")
        # convergents p_k = b_k p_{k-1} - p_{k-2} (same for q) of [b1, ..., bL]
        p, p_prev, q, q_prev = 1, 0, 0, -1
        for bk in b:
            p, p_prev, q, q_prev = bk * p - p_prev, p, bk * q - q_prev, q
        if (p, q) != (n, r):
            raise BadLocalData("digits do not recompose n/r")
        for i in range(1, len(mu) - 1):
            if mu[i - 1] + mu[i + 1] != b[i - 1] * mu[i]:
                raise BadLocalData("multiplicity recursion fails at %d" % i)


def resolve_chain(m1: int, m2: int, n: int, r: int) -> HJChain:
    """Multiplicity chain of the minimal resolution above a cyclic point.

    Starts with ``mu0 = m2`` and ``mu1 = (m1 + r m2)/n`` and follows the
    recursion ``mu_{i+1} = b_i mu_i - mu_{i-1}``; it ends at ``n mu1 - r mu0
    = m1``, since the digits recompose ``n/r``.

    >>> resolve_chain(6, 1, 5, 4).mu
    (1, 2, 3, 4, 5, 6)
    """
    if min(m1, m2) < 1:
        raise BadLocalData("branch multiplicities must be positive")
    if gcd(n, m1) != 1 or gcd(n, m2) != 1:
        raise BadLocalData("n must be coprime to both branch multiplicities")
    if (m1 + r * m2) % n:
        raise BadLocalData("m1 + r*m2 = %d is not divisible by n=%d" % (m1 + r * m2, n))
    b = hj_expand(n, r)
    mu = [m2, (m1 + r * m2) // n]
    for bi in b:  # one step per digit leaves L + 2 entries
        mu.append(bi * mu[-1] - mu[-2])
    return HJChain(n, r, tuple(b), tuple(mu))


class LocalPointData(Record):
    """Normalization data of an intersection point under base change.

    ``num_points`` points lie above the original point, each carrying the
    same quotient singularity of order ``d2`` (``d2 == 1`` means the point
    is already regular and ``chain`` is ``None``).  ``m1_red``/``m2_red``
    are the branch multiplicities after dividing out common parts.
    """

    m1: int
    m2: int
    d: int
    num_points: int              # c  = gcd(d, m1, m2)
    d1: int                      # d' = d / c
    e1: int                      # gcd(d', m1/c)
    e2: int                      # gcd(d', m2/c)
    d2: int                      # d'' = d' / (e1 e2)
    m1_red: int                  # m1'' = m1 / (c e1)
    m2_red: int                  # m2'' = m2 / (c e2)
    chain: HJChain | None


def local_point_data(m1: int, m2: int, d: int, p: int = 1) -> LocalPointData:
    """Decompose a degree-``d`` base change at a point of type ``(m1, m2)``.

    ``d`` must be prime to the characteristic exponent ``p`` (``p = 1``, the
    default, meaning equal characteristic zero) for the computation to
    describe an actual tame cover.

    >>> local_point_data(6, 3, 5).chain.mu
    (3, 3, 3, 6)
    >>> local_point_data(2, 2, 2).num_points
    2
    """
    if d < 1 or min(m1, m2) < 1:
        raise BadLocalData("need positive multiplicities and degree")
    if p < 1:
        raise BadLocalData("characteristic exponent must be >= 1")
    if gcd(d, p) != 1:
        raise BadLocalData("degree d=%d is not prime to p=%d" % (d, p))
    c = gcd(d, m1, m2)
    d1, m1p, m2p = d // c, m1 // c, m2 // c
    e1, e2 = gcd(d1, m1p), gcd(d1, m2p)
    # gcd(e1, e2) divides gcd(d1, m1p, m2p) = 1, so e1*e2 divides d1
    d2, m1r, m2r = d1 // (e1 * e2), m1p // e1, m2p // e2
    if d2 == 1:
        return LocalPointData(m1, m2, d, c, d1, e1, e2, 1, m1r, m2r, None)
    r = (-m1r * pow(m2r, -1, d2)) % d2
    chain = resolve_chain(m1r, m2r, d2, r)
    return LocalPointData(m1, m2, d, c, d1, e1, e2, d2, m1r, m2r, chain)
