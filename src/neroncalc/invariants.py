"""Arithmetic invariants of a degenerating curve read off its dual graph.

Everything here is a pure function of an :class:`~neroncalc.curves.SncdCurve`:
the component group of the Jacobian, read off the minimal model that
:func:`~neroncalc.curves.contract_minus_one` builds, the toric/abelian/unipotent
ranks, the characteristic polynomial and its prime-to-p companion, the
monodromy zeta function and the stabilization index.  The products and the
index walk no vertex: they read the exponents ``chi_factors`` and the
multiplicities ``principal`` that the curve's one fiber pass
(:func:`~neroncalc.curves.geometry`) collects.  :func:`lorenzini_form`
regroups the vertices by valency as an independent second assembly.
"""

from __future__ import annotations

from math import gcd, lcm

from .curves import SncdCurve, _fiber_pass, contract_minus_one, genus, geometry, validate
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

    The group is read off :func:`~neroncalc.curves.contract_minus_one`'s
    minimal model, since blowing down a (-1)-curve leaves it unchanged
    (Bosch-Lutkebohmert-Raynaud, *Neron Models*, section 9.6).  Once
    :func:`~neroncalc.curves.geometry` refuses an invalid curve, ``alpha``
    is built sparse from the minimal curve's fiber pass.

    The runs between kept vertices, and cycles, are then folded in closed
    form before elimination.  A vertex is foldable when it has one or two
    incident edges, simple and to distinct neighbours; every other vertex
    is kept, and when all are foldable (a cycle or a path) the first one is
    kept.  Each maximal run ``x_1..x_k`` of foldable vertices is walked
    from a kept vertex ``P = x_0``.  The relations of ``x_1..x_{k-1}`` say
    ``x_{i+1} = b_i x_i - x_{i-1}`` with ``b_i = -E_i^2``, so ``x_i = A_i
    x_1 - B_i P`` with the continuants ``A_0 = 0, B_0 = -1, A_1 = 1, B_1 =
    0``.  Each such relation has a unit coefficient on the generator it
    removes, so ``coker(alpha)`` keeps its isomorphism type when only
    ``x_1`` and one relation stay per run: ``Q - A_{k+1} x_1 + B_{k+1} P``,
    with ``Q`` the kept vertex that ends the run, while ``Q``'s entry on
    ``x_k`` becomes ``A_k x_1 - B_k P``.  A run that ends at a leaf has no
    ``Q`` (``x_{k+1} = 0``), so its relation is ``-A_{k+1} x_1 + B_{k+1}
    P``.  The kernel :func:`~neroncalc.linalg.smith_diagonal_sparse` gets
    the square system left, one row per kept vertex and per run (2 rows
    for any cycle ``I_n``), and the corank check reads its row count.
    Cached on the curve (failures are not).
    """
    if curve._phi is not None:
        return curve._phi
    geometry(curve)  # refuses an invalid curve with its own message
    geo = _fiber_pass(minimal := contract_minus_one(curve))
    adj, degree, self_int, pos = geo.adjacency, geo.degree, geo.self_int, minimal._pos
    # the foldable vertices: one or two edges, simple and to distinct neighbours
    unwalked = {vid for vid, nbrs in adj.items() if len(nbrs) == degree[vid] in (1, 2)}
    kept = [vid for vid in adj if vid not in unwalked] or [next(iter(adj))]
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
                if len(adj[cur]) == 2:
                    u, w = adj[cur]
                    Q = w if u == prev else u
                else:  # a leaf ends the run
                    Q = None
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
                q = pos[Q]
                qrow = rows[q]
                del qrow[pos[cur]]
                edits += (rel, q, 1), (qrow, i, a0), (qrow, j, -b0)
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
    phi = FiniteAbelianGroup(tuple(d for d in diag if d > 1))  # 1s, then a divisibility chain
    object.__setattr__(curve, "_phi", phi)
    return phi


def _chi_product(curve: SncdCurve, p: int) -> CycloProduct:
    """``prod_i (t^{N'_i}-1)^{-chi(E_i^o)}`` with ``N'_i`` the prime-to-``p``
    part of ``N_i`` (``p = 1`` strips nothing): the cached exponents of
    each distinct ``N``, gathered on ``N'``."""
    factors: dict[int, int] = {}
    for n, e in geometry(curve).chi_factors.items():
        n = prime_to_part(n, p)
        factors[n] = factors.get(n, 0) + e
    return CycloProduct(factors)


def char_poly(curve: SncdCurve) -> CycloProduct:
    """``(t-1)^2 prod_i (t^{N_i}-1)^{-chi(E_i^o)}``, monic of degree 2g."""
    P = _T_MINUS_ONE_SQUARED * _chi_product(curve, 1)
    if not P.is_polynomial:
        raise MalformedFiber("characteristic product is not a polynomial")
    genus(curve)  # raises on a bad Euler sum; 2g is P's degree
    return P


def char_poly_prime(curve: SncdCurve) -> CycloProduct:
    """``(t-1)^2`` times :func:`monodromy_zeta`: the characteristic product
    with every multiplicity replaced by its prime-to-p part.

    Divides :func:`char_poly`; they agree exactly on tame fibers.
    """
    P = _T_MINUS_ONE_SQUARED * monodromy_zeta(curve)
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
    for n, g, degree in zip(curve.N, curve.g, geo.degree.values()):
        w = 2 * g + degree - 2
        if w:
            n = prime_to_part(n, curve.p)
            factors[n] = factors.get(n, 0) + w
            factors[1] = factors.get(1, 0) - w
    return CycloProduct(factors)


def stabilization_index(curve: SncdCurve) -> int:
    """lcm of the multiplicities of the principal components (1 if none):
    those of positive genus or meeting the rest of the fiber in at least
    3 points (degree >= 3 in :func:`~neroncalc.curves.geometry`)."""
    return lcm(*geometry(curve).principal)


class InvariantReport(Record):
    """The invariants of one fiber, from :func:`invariant_report`.  ``tame``
    (``e_model`` prime to ``p``) is exact as a ramification criterion only on
    relatively minimal models: it reads the model as given."""

    genus: int
    toric_rank: int
    abelian_rank: int
    unipotent_rank: int
    phi: FiniteAbelianGroup
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
            "phi_rank": 0,  # Phi is finite
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
    """Assemble every invariant of the fiber in one pass, once
    :func:`~neroncalc.curves.validate` finds no problem; otherwise raises
    :class:`MalformedFiber` with its problems joined by ``"; "``, past three
    the first three and their count."""
    problems = validate(curve).problems
    if problems:
        more = "; ... (%d problems)" % len(problems) if len(problems) > 3 else ""
        raise MalformedFiber("; ".join(problems[:3]) + more)
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
        char_poly=P,
        char_poly_prime=Pp,
        zeta=zeta,
        e_model=e_model,
        tame=gcd(e_model, curve.p) == 1,
        additive=t == 0 and a == 0,
    )
