"""Invariant oracles used only by the tests.

:func:`chi_product_per_vertex` is the assembly of ``prod (t^N' - 1)^(-chi)``
that the library made before the fiber pass held its exponents: one factor
per vertex, with the degrees counted from the edges here.

:func:`trace_identities` checks ``P'(1) = |Phi|' = prod (N'_i)^{d_i-2}`` on
additive fibers, three routes to one number that no command reports;
:func:`prime_to_order` gives its ``|Phi|'``.
"""

from fractions import Fraction
from math import prod
from typing import NamedTuple

from neroncalc.curves import SncdCurve, geometry
from neroncalc.cyclo import CycloProduct
from neroncalc.invariants import char_poly_prime, component_group
from neroncalc.linalg import FiniteAbelianGroup, prime_to_part


def chi_product_per_vertex(curve: SncdCurve, p: int) -> CycloProduct:
    """``prod_v (t^{N'_v} - 1)^{-chi_v}`` over the vertices one by one, with
    ``chi_v = 2 - 2 g_v - degree_v`` and ``N'_v`` the prime-to-``p`` part
    of ``N_v``."""
    degree = dict.fromkeys(curve.ids, 0)
    for a, b in curve.edges:
        degree[a] += 1
        degree[b] += 1
    factors: dict[int, int] = {}
    for vid, n, g in curve.vertices:
        n = prime_to_part(n, p)
        factors[n] = factors.get(n, 0) - (2 - 2 * g - degree[vid])
    return CycloProduct(factors)


def prime_to_order(group: FiniteAbelianGroup, p: int) -> int:
    """Order of the prime-to-``p`` part of ``group``: the product of the
    prime-to-``p`` parts of its invariant factors (``p = 1`` strips nothing)."""
    return prod(prime_to_part(d, p) for d in group.factors)


class TraceReport(NamedTuple):
    additive: bool
    char_value_at_one: Fraction        # P'(1)
    phi_prime_order: int               # prime-to-p part of |Phi|
    valency_product: Fraction          # prod (N'_i)^{d_i - 2}
    agree: bool


def trace_identities(curve: SncdCurve) -> TraceReport:
    """Check ``P'(1) = |Phi|' = prod (N'_i)^{d_i-2}`` on additive fibers.

    For non-additive fibers (positive toric or abelian rank) the first
    quantity vanishes and the report only records that fact.
    """
    geo = geometry(curve)
    additive = geo.b1 == 0 and geo.abelian_rank == 0
    value = char_poly_prime(curve).value_at_one()
    phi_prime = prime_to_order(component_group(curve), curve.p)
    prod = Fraction(1)
    for n, degree in zip(curve.N, geo.degree.values()):
        prod *= Fraction(prime_to_part(n, curve.p)) ** (degree - 2)
    if additive:
        agree = value == phi_prime == prod
    else:
        agree = value == 0
    return TraceReport(additive, value, phi_prime, prod, agree)
