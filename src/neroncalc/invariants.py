"""Arithmetic invariants of a degenerating curve read off its dual graph.

Everything here is a pure function of an :class:`~neroncalc.curves.SncdCurve`:
the component group of the Jacobian, the toric/abelian/unipotent ranks, the
characteristic polynomial and its prime-to-p companion, the monodromy zeta
function, the stabilization index, and the trace identities tying them
together on additively reducing fibers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .curves import SncdCurve, genus, geometry
from .cyclo import CycloProduct
from .errors import MalformedFiber
from .linalg import FiniteAbelianGroup, prime_to_part, smith_diagonal_sparse


def intersection_matrix(curve: SncdCurve) -> list[list[int]]:
    """Full intersection matrix: edge counts off the diagonal, derived
    self-intersections on it."""
    M = [[0] * len(curve.vertices) for _ in curve.vertices]
    for i, row in _intersection_rows(curve).items():
        for j, v in row.items():
            M[i][j] = v
    return M


def _intersection_rows(curve: SncdCurve) -> dict[int, dict[int, int]]:
    """Nonzero entries of the intersection matrix, ``{row: {col: value}}``,
    in vertex order, built from the adjacency in O(V + E)."""
    geo = geometry(curve)
    adj = curve.adjacency()
    pos = {v.id: i for i, v in enumerate(curve.vertices)}
    rows = {}
    for i, v in enumerate(curve.vertices):
        row = {pos[w]: k for w, k in adj[v.id].items()}
        self_int = geo.vertices[v.id].self_int
        if self_int:
            row[i] = self_int
        rows[i] = row
    return rows


def component_group(curve: SncdCurve) -> FiniteAbelianGroup:
    """Component group of the Jacobian's smooth model.

    With ``alpha`` the intersection matrix and ``beta`` the multiplicity
    vector, the group is ``ker(beta)/im(alpha)``.  Since the fiber relation
    makes ``beta . alpha = 0`` and the matrix has corank one on a connected
    graph, this quotient is exactly the torsion of ``coker(alpha)``
    (``coker(alpha)`` splits as the quotient times one copy of Z).

    ``alpha`` is built sparse from the adjacency, the fiber relation
    ``N_v self_v + sum_w N_w (E_v . E_w) = 0`` is checked per vertex, and
    the invariant factors come from the heap-pivot kernel
    :func:`~neroncalc.linalg.smith_diagonal_sparse`: about O((V + E) log V)
    on a dual graph, with no dense V x V matrix.
    """
    rows = _intersection_rows(curve)
    mult = [v.N for v in curve.vertices]
    for j, row in rows.items():  # the matrix is symmetric: row j is column j
        if sum(mult[i] * k for i, k in row.items()):
            raise MalformedFiber("fiber relation fails in column %d" % j)
    diag = smith_diagonal_sparse(rows)
    free = len(mult) - len(diag)
    if free != 1:
        raise MalformedFiber(
            "intersection matrix has corank %d, expected 1" % free
        )
    return FiniteAbelianGroup.from_factors(d for d in diag if d > 1)


def _char_product(curve: SncdCurve, reduce_p: bool) -> CycloProduct:
    geo = geometry(curve)
    factors = {1: 2}
    for v in curve.vertices:
        chi = geo.vertices[v.id].chi_open
        if chi:
            n = prime_to_part(v.N, curve.p) if reduce_p else v.N
            factors[n] = factors.get(n, 0) - chi
    return CycloProduct(factors)


def char_poly(curve: SncdCurve) -> CycloProduct:
    """``(t-1)^2 prod_i (t^{N_i}-1)^{-chi(E_i^o)}``, monic of degree 2g."""
    P = _char_product(curve, reduce_p=False)
    if not P.is_polynomial:
        raise MalformedFiber("characteristic product is not a polynomial")
    if P.degree != 2 * genus(curve):
        raise MalformedFiber(
            "degree %d differs from twice the genus" % P.degree
        )
    return P


def char_poly_prime(curve: SncdCurve) -> CycloProduct:
    """Same product with every multiplicity replaced by its prime-to-p part.

    Divides :func:`char_poly`; they agree exactly on tame fibers.
    """
    P = _char_product(curve, reduce_p=True)
    if not P.is_polynomial:
        raise MalformedFiber("prime-to-p characteristic product is not a polynomial")
    full = _char_product(curve, reduce_p=False)
    if not P.divides(full):
        raise MalformedFiber("prime-to-p polynomial does not divide the full one")
    return P


def monodromy_zeta(curve: SncdCurve) -> CycloProduct:
    """A'Campo-style zeta: ``prod_i (t^{N'_i}-1)^{-chi(E_i^o)}``."""
    geo = geometry(curve)
    factors: dict[int, int] = {}
    for v in curve.vertices:
        chi = geo.vertices[v.id].chi_open
        if chi:
            n = prime_to_part(v.N, curve.p)
            factors[n] = factors.get(n, 0) - chi
    return CycloProduct(factors)


def lorenzini_form(curve: SncdCurve) -> CycloProduct:
    """The same polynomial grouped by vertex valency:

    ``(t-1)^{2a+2t} prod_i ((t^{N'_i}-1)/(t-1))^{2 g_i + d_i - 2}``.

    Normalizes to ``(t-1)^2 * zeta``; kept as a separate assembly so the two
    routes can be compared.
    """
    geo = geometry(curve)
    factors = {1: 2 * geo.abelian_rank + 2 * geo.b1}
    for v in curve.vertices:
        w = 2 * v.g + geo.vertices[v.id].degree - 2
        if w:
            n = prime_to_part(v.N, curve.p)
            factors[n] = factors.get(n, 0) + w
            factors[1] = factors.get(1, 0) - w
    return CycloProduct(factors)


def stabilization_index(curve: SncdCurve) -> int:
    """lcm of the multiplicities of principal components (1 if none)."""
    geo = geometry(curve)
    principal = [
        v.N for v in curve.vertices if geo.vertices[v.id].principal
    ]
    return lcm(*principal) if principal else 1


def e_from_roots(P: CycloProduct) -> int:
    """Smallest ``e`` with ``z^e = 1`` for every root of the polynomial."""
    return P.root_order()


def tame(curve: SncdCurve) -> bool:
    """True when the stabilization index is prime to ``p``.

    Exact as a ramification criterion only on relatively minimal models;
    this function trusts the caller on minimality.
    """
    return gcd(stabilization_index(curve), curve.p) == 1


@dataclass(frozen=True)
class TraceReport:
    additive: bool
    char_value_at_one: Fraction        # P'(1)
    phi_prime_order: int               # prime-to-p part of |Phi|
    valency_product: Fraction          # prod (N'_i)^{d_i - 2}
    agree: bool

    @property
    def all_equal(self) -> bool:
        return self.agree


def trace_identities(curve: SncdCurve) -> TraceReport:
    """Check ``P'(1) = |Phi|' = prod (N'_i)^{d_i-2}`` on additive fibers.

    For non-additive fibers (positive toric or abelian rank) the first
    quantity vanishes and the report only records that fact.
    """
    geo = geometry(curve)
    additive = geo.b1 == 0 and geo.abelian_rank == 0
    value = char_poly_prime(curve).value_at_one()
    phi_prime = component_group(curve).prime_to(curve.p).order
    prod = Fraction(1)
    for v in curve.vertices:
        n = prime_to_part(v.N, curve.p)
        prod *= Fraction(n) ** (geo.vertices[v.id].degree - 2)
    if additive:
        agree = value == phi_prime == prod
    else:
        agree = value == 0
    return TraceReport(additive, value, phi_prime, prod, agree)


@dataclass(frozen=True)
class InvariantReport:
    genus: int
    toric_rank: int
    abelian_rank: int
    unipotent_rank: int
    phi: FiniteAbelianGroup
    phi_rank: int
    char_poly: CycloProduct
    char_poly_prime: CycloProduct
    zeta: CycloProduct
    e_model: int
    tame: bool
    additive: bool

    def to_dict(self) -> dict:
        return {
            "genus": self.genus,
            "t": self.toric_rank,
            "a": self.abelian_rank,
            "u": self.unipotent_rank,
            "phi": list(self.phi.factors),
            "phi_order": self.phi.order,
            "phi_rank": self.phi_rank,
            "P": self.char_poly.poly_str(),
            "P_factored": str(self.char_poly),
            "P_prime": self.char_poly_prime.poly_str(),
            "zeta": str(self.zeta),
            "e_model": self.e_model,
            "tame": self.tame,
            "additive": self.additive,
        }


def invariant_report(curve: SncdCurve) -> InvariantReport:
    """Assemble every invariant of the fiber in one pass."""
    geo = geometry(curve)
    g = genus(curve)
    t, a = geo.b1, geo.abelian_rank
    u = g - t - a
    if u < 0:
        raise MalformedFiber("ranks exceed the genus: t=%d a=%d g=%d" % (t, a, g))
    P = char_poly(curve)
    Pp = char_poly_prime(curve)
    zeta = monodromy_zeta(curve)
    if lorenzini_form(curve) != CycloProduct({1: 2}) * zeta:
        raise MalformedFiber("valency and stratum assemblies disagree")
    e_model = stabilization_index(curve)
    return InvariantReport(
        genus=g,
        toric_rank=t,
        abelian_rank=a,
        unipotent_rank=u,
        phi=component_group(curve),
        phi_rank=0,
        char_poly=P,
        char_poly_prime=Pp,
        zeta=zeta,
        e_model=e_model,
        tame=gcd(e_model, curve.p) == 1,
        additive=t == 0 and a == 0,
    )
