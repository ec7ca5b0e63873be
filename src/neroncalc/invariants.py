"""Arithmetic invariants of a degenerating curve read off its dual graph.

Everything here is a pure function of an :class:`~neroncalc.curves.SncdCurve`:
the component group of the Jacobian, the toric/abelian/unipotent ranks, the
characteristic polynomial and its prime-to-p companion, the monodromy zeta
function, the stabilization index, and the trace identities tying them
together on additively reducing fibers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .curves import SncdCurve, genus, geometry
from .cyclo import CycloProduct
from .errors import MalformedFiber
from .linalg import FiniteAbelianGroup, prime_to_part, smith_diagonal_sparse
from .record import Record

_T_MINUS_ONE_SQUARED = CycloProduct({1: 2})


def component_group(curve: SncdCurve) -> FiniteAbelianGroup:
    """Component group of the Jacobian's smooth model.

    With ``alpha`` the intersection matrix and ``beta`` the multiplicity
    vector, the group is ``ker(beta)/im(alpha)``.  Since the fiber relation
    makes ``beta . alpha = 0`` and the matrix has corank one on a connected
    graph, this quotient is exactly the torsion of ``coker(alpha)``
    (``coker(alpha)`` splits as the quotient times one copy of Z).

    ``alpha`` is built sparse from the adjacency and the self-intersections
    of :func:`~neroncalc.curves.geometry`, which solves them from the fiber
    relation, so the relation holds by construction.

    Chains are folded in closed form before elimination.  A vertex is
    foldable when it has one or two incident edges, simple and to distinct
    neighbours; every other vertex is kept, and when all are foldable (a
    cycle or a path) the first one is kept.  Each maximal run ``x_1..x_k``
    of foldable vertices is walked from a kept vertex ``P = x_0``.  The
    relations of ``x_1..x_{k-1}`` say ``x_{i+1} = b_i x_i - x_{i-1}`` with
    ``b_i = -E_i^2``, so ``x_i = A_i x_1 - B_i P`` with the continuants
    ``A_0 = 0, B_0 = -1, A_1 = 1, B_1 = 0``.  Each such relation has a unit
    coefficient on the generator it removes, so ``coker(alpha)`` keeps its
    isomorphism type when only ``x_1`` and one relation stay per run:
    ``Q - A_{k+1} x_1 + B_{k+1} P``, with ``Q`` the kept vertex that ends
    the run (no ``Q`` term when a leaf ends it), while ``Q``'s entry on
    ``x_k`` becomes ``A_k x_1 - B_k P``.  The kernel
    :func:`~neroncalc.linalg.smith_diagonal_sparse` gets the square system
    left, one row per kept vertex and per run (2 rows for any cycle
    ``I_n``), and the corank check reads its row count.  Cached on the
    curve (failures are not).
    """
    if curve._phi is not None:
        return curve._phi
    geo, adj = geometry(curve), curve.adjacency()
    pos = {v.id: i for i, v in enumerate(curve.vertices)}
    degree, self_int = geo.degree, geo.self_int
    # the foldable vertices: one or two edges, simple and to distinct neighbours
    unwalked = {vid for vid, nbrs in adj.items()
                if len(nbrs) == degree[vid] in (1, 2)}
    kept = [v.id for v in curve.vertices if v.id not in unwalked] or [curve.vertices[0].id]
    unwalked.discard(kept[0])
    rows = {}
    for P in kept:
        rows[pos[P]] = row = {pos[w]: k for w, k in adj[P].items()}
        if self_int[P]:
            row[pos[P]] = self_int[P]
    for P in kept:
        for x1 in adj[P]:
            if x1 not in unwalked:
                continue
            unwalked.discard(x1)
            prev, cur = P, x1
            a0, b0, a1, b1 = 0, -1, 1, 0  # (A, B) of x_{i-1} and of cur = x_i
            while True:
                if len(adj[cur]) == 1:  # a leaf ends the run
                    Q = None
                else:
                    u, w = adj[cur]
                    Q = w if u == prev else u
                b = -self_int[cur]
                a0, b0, a1, b1 = a1, b1, b * a1 - a0, b * b1 - b0
                if Q not in unwalked:
                    break
                unwalked.discard(Q)
                prev, cur = cur, Q
            # cur = x_k; (a0, b0) = (A_k, B_k) and (a1, b1) = (A_{k+1}, B_{k+1})
            i, j = pos[x1], pos[P]
            rows[i] = rel = {}
            edits = [(rel, i, -a1), (rel, j, b1)]
            if Q is not None:
                qrow = rows[pos[Q]]
                del qrow[pos[cur]]
                edits += [(rel, pos[Q], 1), (qrow, i, a0), (qrow, j, -b0)]
            for row, col, v in edits:
                v += row.get(col, 0)
                if v:
                    row[col] = v
                else:
                    row.pop(col, None)
    diag = smith_diagonal_sparse(rows)
    free = len(rows) - len(diag)
    if free != 1:
        raise MalformedFiber("intersection matrix has corank %d, expected 1" % free)
    phi = FiniteAbelianGroup.from_factors(d for d in diag if d > 1)
    object.__setattr__(curve, "_phi", phi)
    return phi


def _chi_product(curve: SncdCurve, p: int) -> CycloProduct:
    """``prod_i (t^{N'_i}-1)^{-chi(E_i^o)}`` with ``N'_i`` the prime-to-``p``
    part of ``N_i`` (``p = 1`` strips nothing)."""
    chi_open = geometry(curve).chi_open
    factors: dict[int, int] = {}
    for v in curve.vertices:
        chi = chi_open[v.id]
        if chi:
            n = prime_to_part(v.N, p)
            factors[n] = factors.get(n, 0) - chi
    return CycloProduct(factors)


def char_poly(curve: SncdCurve) -> CycloProduct:
    """``(t-1)^2 prod_i (t^{N_i}-1)^{-chi(E_i^o)}``, monic of degree 2g."""
    P = _T_MINUS_ONE_SQUARED * _chi_product(curve, 1)
    if not P.is_polynomial:
        raise MalformedFiber("characteristic product is not a polynomial")
    if P.degree != 2 * genus(curve):
        raise MalformedFiber(
            "degree %d differs from twice the genus" % P.degree
        )
    return P


def char_poly_prime(curve: SncdCurve) -> CycloProduct:
    """``(t-1)^2`` times :func:`monodromy_zeta`: the characteristic product
    with every multiplicity replaced by its prime-to-p part.

    Divides :func:`char_poly`; they agree exactly on tame fibers.
    """
    P = _T_MINUS_ONE_SQUARED * monodromy_zeta(curve)
    if not P.is_polynomial:
        raise MalformedFiber("prime-to-p characteristic product is not a polynomial")
    if not P.divides(_T_MINUS_ONE_SQUARED * _chi_product(curve, 1)):
        raise MalformedFiber("prime-to-p polynomial does not divide the full one")
    return P


def monodromy_zeta(curve: SncdCurve) -> CycloProduct:
    """A'Campo-style zeta: ``prod_i (t^{N'_i}-1)^{-chi(E_i^o)}``."""
    return _chi_product(curve, curve.p)


def lorenzini_form(curve: SncdCurve) -> CycloProduct:
    """The same polynomial grouped by vertex valency:

    ``(t-1)^{2a+2t} prod_i ((t^{N'_i}-1)/(t-1))^{2 g_i + d_i - 2}``.

    Normalizes to ``(t-1)^2 * zeta``; kept as a separate assembly so the two
    routes can be compared.
    """
    geo = geometry(curve)
    factors = {1: 2 * geo.abelian_rank + 2 * geo.b1}
    for v in curve.vertices:
        w = 2 * v.g + geo.degree[v.id] - 2
        if w:
            n = prime_to_part(v.N, curve.p)
            factors[n] = factors.get(n, 0) + w
            factors[1] = factors.get(1, 0) - w
    return CycloProduct(factors)


def stabilization_index(curve: SncdCurve) -> int:
    """lcm of the multiplicities of the principal components (1 if none):
    those of positive genus or meeting the rest of the fiber in at least
    3 points (degree >= 3 in :func:`~neroncalc.curves.geometry`)."""
    degree = geometry(curve).degree
    principal = [v.N for v in curve.vertices if v.g > 0 or degree[v.id] >= 3]
    return lcm(*principal) if principal else 1


def tame(curve: SncdCurve) -> bool:
    """True when the stabilization index is prime to ``p``.

    Exact as a ramification criterion only on relatively minimal models;
    this function trusts the caller on minimality.
    """
    return gcd(stabilization_index(curve), curve.p) == 1


class TraceReport(Record):
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
    phi_prime = component_group(curve).prime_to(curve.p).order
    prod = Fraction(1)
    for v in curve.vertices:
        n = prime_to_part(v.N, curve.p)
        prod *= Fraction(n) ** (geo.degree[v.id] - 2)
    if additive:
        agree = value == phi_prime == prod
    else:
        agree = value == 0
    return TraceReport(additive, value, phi_prime, prod, agree)


class InvariantReport(Record):
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
        P = self.char_poly.poly_str()  # P_prime equals it on tame fibers
        return {
            "genus": self.genus,
            "t": self.toric_rank,
            "a": self.abelian_rank,
            "u": self.unipotent_rank,
            "phi": list(self.phi.factors),
            "phi_order": self.phi.order,
            "phi_rank": self.phi_rank,
            "P": P,
            "P_factored": str(self.char_poly),
            "P_prime": (P if self.char_poly_prime == self.char_poly
                        else self.char_poly_prime.poly_str()),
            "zeta": str(self.zeta),
            "e_model": self.e_model,
            "tame": self.tame,
            "additive": self.additive,
        }


def invariant_report(curve: SncdCurve) -> InvariantReport:
    """Assemble every invariant of the fiber in one pass; a multiple
    fiber is refused first, worded as in :func:`~neroncalc.curves.validate`."""
    index = curve.multiplicity_gcd()
    if index > 1:
        raise MalformedFiber(
            "index-one flag fails: gcd of multiplicities is %d" % index
        )
    geo = geometry(curve)
    g = genus(curve)
    t, a = geo.b1, geo.abelian_rank
    u = g - t - a
    if u < 0:
        raise MalformedFiber("ranks exceed the genus: t=%d a=%d g=%d" % (t, a, g))
    P = char_poly(curve)
    Pp = char_poly_prime(curve)
    zeta = monodromy_zeta(curve)
    if lorenzini_form(curve) != _T_MINUS_ONE_SQUARED * zeta:
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
