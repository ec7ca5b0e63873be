"""Arithmetic invariants of a degenerating curve read off its dual graph.

Everything here is a pure function of an :class:`~neroncalc.curves.SncdCurve`:
the component group of the Jacobian, the toric/abelian/unipotent ranks, the
characteristic polynomial and its prime-to-p companion, the monodromy zeta
function and the stabilization index.  The products and the index walk no
vertex: they read the exponents ``chi_factors`` and the multiplicities
``principal`` that the curve's one fiber pass
(:func:`~neroncalc.curves.geometry`) collects.  :func:`lorenzini_form`
regroups the vertices by valency as an independent second assembly.
"""

from __future__ import annotations

from math import gcd, lcm

from .curves import SncdCurve, genus, geometry, validate
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

    Pendant chains are cut first.  A pendant chain is a leaf ``y = x_k``
    and the run ``x_{k-1}..x_1`` behind it of vertices with two simple
    edges to distinct neighbours; it hangs from the vertex ``P = x_0`` where
    that run stops.  The relations of ``x_k..x_1`` say ``x_{i-1} = b_i x_i -
    x_{i+1}`` (``x_{k+1} = 0``, ``b_i = -E_i^2``), so each ``x_i = c_i y``
    with the integers ``c_k = 1``, ``c_{i-1} = b_i c_i - c_{i+1}``.  The
    fiber relation gives the multiplicities the same recursion, so ``c_i =
    N_i / N_y``.  When the leaf has ``P``'s multiplicity, ``c_0 = 1``: the
    chain's ``k`` relations remove its ``k`` generators with unit
    coefficients, and ``P``'s relation, where ``x_1 = c_1 P``, gains
    ``N_{x_1} / N_P`` on ``E_P^2``, which is the fiber relation of the graph
    without the chain.  So the chain is cut and the group is unchanged (a
    point blow-up's (-1)-leaf is the case ``k = 1``).  One worklist over the
    leaves cuts in O(V + E): a walk that stops uncut at ``P`` goes on once
    cuts leave ``P`` two simple edges to distinct neighbours.  (A cut never
    leaves ``P`` one edge: the edge it removes is simple, so ``P`` had one,
    at the far end of a path, or at least three.)  The cached adjacency and
    geometry are copied at the first cut, never changed.  A chain whose
    walk stops uncut is not walked again: the relations of ``x_k..x_2``
    remove ``x_{k-1}..x_1``, so its leaf ``y`` stays as one generator with
    the relation of ``x_1``, ``P - (N_P / N_y) y``, and ``P``'s row takes
    ``N_{x_1} / N_y`` on ``y`` in place of its 1 on ``x_1``.  Such a ``P``
    is kept below: it has at least three edges, since integral
    self-intersections give ``N_y | N_i`` along a chain, so the two ends of
    a path have equal ``N`` and the whole path is cut.

    The runs between kept vertices, and cycles, are then folded in closed
    form before elimination.  A vertex is foldable when it has one or two
    incident edges, simple and to distinct neighbours; every other vertex
    is kept, and when all are foldable (a cycle) the first one is kept.
    Each maximal run ``x_1..x_k`` of foldable vertices outside the pendant
    chains is walked from a kept vertex ``P = x_0``.  The
    relations of ``x_1..x_{k-1}`` say ``x_{i+1} = b_i x_i - x_{i-1}`` with
    ``b_i = -E_i^2``, so ``x_i = A_i x_1 - B_i P`` with the continuants
    ``A_0 = 0, B_0 = -1, A_1 = 1, B_1 = 0``.  Each such relation has a unit
    coefficient on the generator it removes, so ``coker(alpha)`` keeps its
    isomorphism type when only ``x_1`` and one relation stay per run:
    ``Q - A_{k+1} x_1 + B_{k+1} P``, with ``Q`` the kept vertex that ends
    the run, while ``Q``'s entry on ``x_k`` becomes ``A_k x_1 - B_k P``.
    The kernel :func:`~neroncalc.linalg.smith_diagonal_sparse` gets the
    square system left, one row per kept vertex, per uncut pendant chain
    and per run (2 rows for any cycle ``I_n``), and the corank check reads
    its row count.  Cached on the curve (failures are not).
    """
    if curve._phi is not None:
        return curve._phi
    geo, adj = geometry(curve), curve.adjacency()
    N, pos = curve.N, curve._pos
    degree, self_int = geo.degree, geo.self_int
    # walks (leaf, prev, cur): cut pendant chains whose leaf has the N of their end
    todo = [(v, v, next(iter(adj[v]))) for v, d in degree.items() if d == 1]
    stops, own = {}, None  # end -> walks stopped there uncut; ids whose adj[id] is a copy
    while todo:
        leaf, prev, cur = todo.pop()
        if degree.get(leaf) != 1:  # cut, or its edge cut, since the walk was queued
            continue
        while len(adj[cur]) == degree[cur] == 2:
            u, w = adj[cur]
            prev, cur = cur, w if u == prev else u
        if N[pos[leaf]] != N[pos[cur]]:
            stops.setdefault(cur, []).append((leaf, prev))
            continue
        if own is None:  # the first cut: copy the cached maps before editing
            adj, degree, self_int, own = dict(adj), dict(degree), dict(self_int), set()
        if cur not in own:
            adj[cur] = dict(adj[cur])
            own.add(cur)
        del adj[cur][prev]
        degree[cur] -= 1
        self_int[cur] += N[pos[prev]] // N[pos[cur]]
        x, y = None, leaf
        while y != cur:  # drop leaf..prev
            nbrs = adj.pop(y)
            del degree[y], self_int[y]
            for w in nbrs:
                if w != x:
                    break
            x, y = y, w
        if degree[cur] == len(adj[cur]) == 2:  # the walks that stopped at cur go on
            todo += [(l, p, cur) for l, p in stops.pop(cur, ())]
    # the foldable vertices: one or two edges, simple and to distinct neighbours
    unwalked = {vid for vid, nbrs in adj.items()
                if len(nbrs) == degree[vid] in (1, 2)}
    kept = [vid for vid in adj if vid not in unwalked] or [next(iter(adj))]
    unwalked.discard(kept[0])
    rows = {}
    for P in kept:
        rows[pos[P]] = row = {pos[w]: k for w, k in adj[P].items()}
        if self_int[P]:
            row[pos[P]] = self_int[P]
    for P, chains in stops.items():  # each uncut chain is its leaf y: x_i = (N_i/N_y) y
        row, j = rows[pos[P]], pos[P]
        for y, x1 in chains:
            i, n = pos[y], N[pos[y]]
            unwalked.discard(x1)
            del row[pos[x1]]
            row[i] = N[pos[x1]] // n
            rows[i] = {i: -(N[j] // n), j: 1}
    for P in kept:
        for x1 in adj[P]:
            if x1 not in unwalked:
                continue
            unwalked.discard(x1)
            prev, cur = P, x1
            a0, b0, a1, b1 = 0, -1, 1, 0  # (A, B) of x_{i-1} and of cur = x_i
            while True:
                u, w = adj[cur]
                Q = w if u == prev else u
                b = -self_int[cur]
                a0, b0, a1, b1 = a1, b1, b * a1 - a0, b * b1 - b0
                if Q not in unwalked:
                    break
                unwalked.discard(Q)
                prev, cur = cur, Q
            # cur = x_k; (a0, b0) = (A_k, B_k) and (a1, b1) = (A_{k+1}, B_{k+1})
            i, j, q = pos[x1], pos[P], pos[Q]
            rows[i] = rel = {}
            qrow = rows[q]
            del qrow[pos[cur]]
            edits = (rel, i, -a1), (rel, j, b1), (rel, q, 1), (qrow, i, a0), (qrow, j, -b0)
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


def tame(curve: SncdCurve) -> bool:
    """True when the stabilization index is prime to ``p``.

    Exact as a ramification criterion only on relatively minimal models;
    this function trusts the caller on minimality.
    """
    return gcd(stabilization_index(curve), curve.p) == 1


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
    """Assemble every invariant of the fiber in one pass, once
    :func:`~neroncalc.curves.validate` finds no problem; otherwise raises
    :class:`MalformedFiber` with all of its problems, joined by ``"; "``."""
    problems = validate(curve).problems
    if problems:
        raise MalformedFiber("; ".join(problems))
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
