"""Weighted dual multigraphs of normal crossings fibers.

A curve degeneration is recorded purely combinatorially: one vertex per
irreducible component of the special fiber, labelled with its multiplicity
``N`` and genus ``g``, and one edge per intersection point.  Multi-edges are
allowed, loops are not (components are smooth).  Self-intersection numbers
are never stored; they are derived from ``sum_i N_i (E_i . E_j) = 0``.

The characteristic exponent ``p`` of the residue field rides along on the
curve (``p = 1`` meaning equal characteristic zero) so that prime-to-p
computations need no side channel.
"""

from __future__ import annotations

import heapq
import json
import warnings
from collections import Counter
from dataclasses import dataclass
from math import gcd

from .errors import MalformedFiber, ParseError


class CurveWarning(UserWarning):
    """Non-fatal irregularities found while reading curve documents."""


@dataclass(frozen=True)
class Vertex:
    id: str
    N: int
    g: int


@dataclass(frozen=True)
class SncdCurve:
    """Immutable dual graph with multiplicities and genera.

    ``edges`` are unordered pairs of vertex ids; each pair is normalized to
    lexicographic order, the list order is preserved.

    Derived data (adjacency, degrees, :func:`geometry`) is computed on first
    use and cached in private attributes that are not dataclass fields, so
    equality and hashing see only ``vertices``, ``edges`` and ``p``.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[str, str], ...]
    p: int = 1

    def __init__(self, vertices, edges, p: int = 1):
        vertices = tuple(
            v if isinstance(v, Vertex) else Vertex(*v) for v in vertices
        )
        ids = [v.id for v in vertices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        if p < 1:
            raise ValueError("characteristic exponent must be >= 1")
        for v in vertices:
            if not v.id:
                raise ValueError("empty vertex id")
            if v.N < 1:
                raise ValueError("multiplicity of %r must be >= 1" % v.id)
            if v.g < 0:
                raise ValueError("genus of %r must be >= 0" % v.id)
        known = set(ids)
        norm = []
        for e in edges:
            a, b = e
            if a not in known or b not in known:
                raise ValueError("edge %r references unknown vertex" % (tuple(e),))
            if a == b:
                raise ValueError("loop edge at %r (components are smooth)" % a)
            norm.append((a, b) if a <= b else (b, a))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_by_id", {v.id: v for v in vertices})
        object.__setattr__(self, "_adj", None)
        object.__setattr__(self, "_deg", None)
        object.__setattr__(self, "_geo", None)

    def vertex(self, vid: str) -> Vertex:
        return self._by_id[vid]

    def multiplicity(self, vid: str) -> int:
        return self._by_id[vid].N

    @property
    def ids(self) -> list[str]:
        return [v.id for v in self.vertices]

    def degree(self, vid: str) -> int:
        return self._degrees()[vid]

    def adjacency(self) -> dict[str, Counter]:
        """Neighbour multiplicity count per vertex.

        Built once and cached on the curve; callers must not mutate it.
        """
        if self._adj is None:
            adj: dict[str, Counter] = {v.id: Counter() for v in self.vertices}
            for a, b in self.edges:
                adj[a][b] += 1
                adj[b][a] += 1
            object.__setattr__(self, "_adj", adj)
        return self._adj

    def _degrees(self) -> dict[str, int]:
        if self._deg is None:
            deg = {vid: sum(nbrs.values()) for vid, nbrs in self.adjacency().items()}
            object.__setattr__(self, "_deg", deg)
        return self._deg

    def multiplicity_gcd(self) -> int:
        return gcd(*(v.N for v in self.vertices)) if self.vertices else 0

    def b1(self) -> int:
        """First Betti number of the graph (assumes connectedness)."""
        return len(self.edges) - len(self.vertices) + 1

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        adj = self.adjacency()
        seen = {self.vertices[0].id}
        stack = [self.vertices[0].id]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)


@dataclass(frozen=True)
class VertexGeometry:
    degree: int
    chi_open: int       # Euler characteristic of the open stratum
    self_int: int
    principal: bool     # positive genus or meets the rest in >= 3 points


@dataclass(frozen=True)
class CurveGeometry:
    vertices: dict[str, VertexGeometry]
    b1: int
    abelian_rank: int


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[str, ...]
    index_one: bool

    @property
    def ok(self) -> bool:
        return not self.problems


def validate(curve: SncdCurve) -> ValidationReport:
    """Report every violated structural constraint (empty report = valid).

    O(V + E) on the curve's cached adjacency.
    """
    problems = []
    if not curve.is_connected():
        problems.append("graph is not connected")
    adj = curve.adjacency()
    for v in curve.vertices:
        incident = sum(curve.multiplicity(w) * k for w, k in adj[v.id].items())
        if incident % v.N:
            problems.append(
                "multiplicity %d of %r does not divide the incident sum %d"
                % (v.N, v.id, incident)
            )
    index_one = curve.multiplicity_gcd() == 1
    if not index_one:
        problems.append(
            "index-one flag fails: gcd of multiplicities is %d"
            % curve.multiplicity_gcd()
        )
    total = _chi_weighted_sum(curve)
    if (2 - total) % 2 or total > 2:
        problems.append("weighted Euler sum %d is not of the form 2 - 2g" % total)
    return ValidationReport(tuple(problems), index_one)


def _chi_weighted_sum(curve: SncdCurve) -> int:
    deg = curve._degrees()
    return sum(v.N * (2 - 2 * v.g - deg[v.id]) for v in curve.vertices)


def genus(curve: SncdCurve) -> int:
    """Arithmetic genus recovered from ``sum N_i chi(E_i^o) = 2 - 2g``."""
    total = _chi_weighted_sum(curve)
    if (2 - total) % 2:
        raise MalformedFiber("weighted Euler sum %d has wrong parity" % total)
    g = (2 - total) // 2
    if g < 0:
        raise MalformedFiber("negative genus %d" % g)
    return g


def geometry(curve: SncdCurve) -> CurveGeometry:
    """Per-vertex degree, open Euler characteristic, self-intersection.

    Raises :class:`MalformedFiber` when a self-intersection fails to be an
    integer or the graph is disconnected.  A successful result is cached on
    the curve; a failing curve raises again on every call.
    """
    if curve._geo is not None:
        return curve._geo
    if not curve.is_connected():
        raise MalformedFiber("graph is not connected")
    adj = curve.adjacency()
    deg = curve._degrees()
    out = {}
    for v in curve.vertices:
        d = deg[v.id]
        incident = sum(curve.multiplicity(w) * k for w, k in adj[v.id].items())
        if incident % v.N:
            raise MalformedFiber(
                "multiplicity %d of %r does not divide %d" % (v.N, v.id, incident)
            )
        out[v.id] = VertexGeometry(
            degree=d,
            chi_open=2 - 2 * v.g - d,
            self_int=-(incident // v.N),
            principal=v.g > 0 or d >= 3,
        )
    geo = CurveGeometry(
        vertices=out,
        b1=curve.b1(),
        abelian_rank=sum(v.g for v in curve.vertices),
    )
    object.__setattr__(curve, "_geo", geo)
    return geo


def contract_minus_one(curve: SncdCurve) -> SncdCurve:
    """Contract genus-0 exceptional vertices while staying normal crossings.

    A vertex is contracted when it has genus 0, derived self-intersection
    -1 and at most two edge endpoints; in the two-endpoint case its edges
    must lead to two distinct vertices, which get joined by a new edge.
    Repeats until no vertex qualifies.  Surviving labels are untouched.

    Each step contracts the first vertex (in the input's vertex order) that
    qualifies at that moment.  Contracting a vertex changes only its
    neighbours, so they alone are re-examined: a heap of input positions
    holds the candidates, and a popped entry is checked again before use.
    Surviving edges keep their input order, followed by the new edges in
    the order they were made, and one curve is built at the end, in
    O((V + E) log V) overall.  A curve with nothing to contract is returned
    as is.
    """
    vs = curve.vertices
    adj = curve.adjacency()
    heap = [i for i, v in enumerate(vs) if _contractible(curve, v, adj[v.id])]
    if not heap:
        return curve
    pos = {v.id: i for i, v in enumerate(vs)}
    adj = {vid: Counter(nbrs) for vid, nbrs in adj.items()}  # edited below
    removed: set[str] = set()
    new_edges = []
    while heap:
        v = vs[heapq.heappop(heap)]
        if v.id in removed or not _contractible(curve, v, adj[v.id]):
            continue
        removed.add(v.id)
        nbrs = adj.pop(v.id)
        for w in nbrs:
            del adj[w][v.id]
        if len(nbrs) == 2:
            a, b = sorted(nbrs)
            adj[a][b] += 1
            adj[b][a] += 1
            new_edges.append((a, b))
        for w in nbrs:
            if _contractible(curve, vs[pos[w]], adj[w]):
                heapq.heappush(heap, pos[w])
    return SncdCurve(
        [v for v in vs if v.id not in removed],
        [e for e in curve.edges + tuple(new_edges)
         if e[0] not in removed and e[1] not in removed],
        curve.p,
    )


def _contractible(curve: SncdCurve, v: Vertex, nbrs: Counter) -> bool:
    if v.g != 0:
        return False
    d = sum(nbrs.values())
    if d == 0 or d > 2:
        return False
    if d == 2 and len(nbrs) != 2:
        return False  # both endpoints on one vertex: contraction makes a loop
    # derived self-intersection is exactly -1
    return sum(curve.multiplicity(w) * k for w, k in nbrs.items()) == v.N


def blow_up_point(curve: SncdCurve, vid: str, new_id: str | None = None) -> SncdCurve:
    """Blow up a smooth point of the component ``vid``.

    Adds an exceptional vertex with the same multiplicity and genus 0.
    """
    v = curve.vertex(vid)
    nid = new_id or _fresh_id(curve, vid + "^")
    return SncdCurve(
        curve.vertices + (Vertex(nid, v.N, 0),),
        curve.edges + ((vid, nid),),
        curve.p,
    )


def blow_up_intersection(
    curve: SncdCurve, edge_index: int, new_id: str | None = None
) -> SncdCurve:
    """Blow up the intersection point recorded by ``edges[edge_index]``.

    The edge is subdivided by an exceptional vertex of multiplicity
    ``N_a + N_b`` and genus 0.
    """
    a, b = curve.edges[edge_index]
    nid = new_id or _fresh_id(curve, "%s*%s" % (a, b))
    n = curve.multiplicity(a) + curve.multiplicity(b)
    edges = list(curve.edges)
    del edges[edge_index]
    edges += [(a, nid), (b, nid)]
    return SncdCurve(curve.vertices + (Vertex(nid, n, 0),), edges, curve.p)


def _fresh_id(curve: SncdCurve, base: str) -> str:
    taken = set(curve.ids)
    if base not in taken:
        return base
    k = 2
    while "%s%d" % (base, k) in taken:
        k += 1
    return "%s%d" % (base, k)


# -- JSON interchange ---------------------------------------------------------

def parse_curve(text: str) -> SncdCurve:
    """Read a curve document; see :func:`serialize_curve` for the format.

    A missing ``p`` defaults to 1 and emits a :class:`CurveWarning`.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if "p" in doc:
        p = doc["p"]
        if not isinstance(p, int) or p < 1:
            raise ParseError("field 'p' must be a positive integer")
    else:
        p = 1
        warnings.warn("field 'p' missing, defaulting to 1", CurveWarning, stacklevel=2)
    raw_vertices = doc.get("vertices")
    raw_edges = doc.get("edges")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise ParseError("field 'vertices' must be a non-empty list")
    if not isinstance(raw_edges, list):
        raise ParseError("field 'edges' must be a list")
    vertices = []
    for i, rv in enumerate(raw_vertices):
        if not isinstance(rv, dict):
            raise ParseError("vertex %d must be an object" % i)
        try:
            vid, n, g = rv["id"], rv["N"], rv["g"]
        except KeyError as exc:
            raise ParseError("vertex %d misses field %s" % (i, exc)) from exc
        if not isinstance(vid, str) or not isinstance(n, int) or not isinstance(g, int):
            raise ParseError("vertex %d has wrongly typed fields" % i)
        vertices.append(Vertex(vid, n, g))
    edges = []
    for i, re_ in enumerate(raw_edges):
        if not isinstance(re_, list) or len(re_) != 2:
            raise ParseError("edge %d must be a pair" % i)
        a, b = re_
        if a == b:
            raise ParseError("edge %d is a loop at %r" % (i, a))
        edges.append((a, b))
    try:
        return SncdCurve(vertices, edges, p)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_curve(curve: SncdCurve) -> str:
    """Deterministic JSON: fixed key order, edges as sorted pairs."""
    doc = {
        "p": curve.p,
        "vertices": [{"id": v.id, "N": v.N, "g": v.g} for v in curve.vertices],
        "edges": [list(e) for e in curve.edges],
    }
    return json.dumps(doc, ensure_ascii=False, separators=(", ", ": "))


def load_curve(path) -> SncdCurve:
    with open(path, encoding="utf-8") as fh:
        return parse_curve(fh.read())
