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
from math import gcd

from .errors import MalformedFiber, ParseError, PreconditionError
from .record import Record


class CurveWarning(UserWarning):
    """Non-fatal irregularities found while reading curve documents."""


class Vertex(Record):
    id: str
    N: int
    g: int


class SncdCurve(Record):
    """Immutable dual graph with multiplicities and genera.

    The constructor is the one checker of curve data, for library callers
    and :func:`parse_curve` alike.  ``vertices`` holds :class:`Vertex`
    records, kept as they are, or ``(id, N, g)`` triples; ``edges`` are
    unordered pairs of vertex ids, each normalized to lexicographic order,
    in list order.  It refuses, in this order: a vertex that is not three
    items or has a non-``str`` id or a non-``int`` ``N`` or ``g`` (``bool``
    included), duplicate ids, a ``p`` that is not an ``int >= 1``
    (:class:`PreconditionError`), an empty id, ``N < 1``, ``g < 0``, and an
    edge that is not a tuple or list of two known ids or is a loop
    (:class:`MalformedFiber`).

    Derived data (the adjacency, the one fiber pass that :func:`validate`,
    :func:`geometry` and :func:`genus` read, and
    :func:`~neroncalc.invariants.component_group`) is computed on first use
    and cached in private attributes that are not record fields, so
    equality and hashing see only ``vertices``, ``edges`` and ``p``.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[str, str], ...]
    p: int = 1

    def __init__(self, vertices, edges, p: int = 1):
        records = []
        for i, v in enumerate(vertices):
            try:
                v = v if isinstance(v, Vertex) else Vertex(*v)
                if not isinstance(v.id, str) or type(v.N) is not int or type(v.g) is not int:
                    raise TypeError
            except TypeError:  # or not an iterable of three items
                raise MalformedFiber("vertex %d has wrongly typed fields" % i) from None
            records.append(v)
        by_id = {v.id: v for v in records}
        if len(by_id) != len(records):
            raise MalformedFiber("duplicate vertex ids")
        if type(p) is not int or p < 1:
            raise PreconditionError("characteristic exponent must be >= 1")
        for v in records:
            if not v.id:
                raise MalformedFiber("empty vertex id")
            if v.N < 1:
                raise MalformedFiber("multiplicity of %r must be >= 1" % v.id)
            if v.g < 0:
                raise MalformedFiber("genus of %r must be >= 0" % v.id)
        norm = []
        for i, e in enumerate(edges):
            if not isinstance(e, (tuple, list)) or len(e) != 2:
                raise MalformedFiber("edge %d must be a pair" % i)
            a, b = e
            if not isinstance(a, str) or not isinstance(b, str):
                raise MalformedFiber("edge %d must join two vertex ids" % i)
            if a not in by_id or b not in by_id:
                raise MalformedFiber("edge %r references unknown vertex" % (tuple(e),))
            if a == b:
                raise MalformedFiber("loop edge at %r (components are smooth)" % a)
            norm.append((a, b) if a <= b else (b, a))
        super().__init__(tuple(records), tuple(norm), p)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_adj", None)
        object.__setattr__(self, "_geo", None)
        object.__setattr__(self, "_phi", None)

    def vertex(self, vid: str) -> Vertex:
        return self._by_id[vid]

    def multiplicity(self, vid: str) -> int:
        return self._by_id[vid].N

    @property
    def ids(self) -> list[str]:
        return [v.id for v in self.vertices]

    def adjacency(self) -> dict[str, dict[str, int]]:
        """Neighbour -> number of edges to it, per vertex.

        Plain dicts in vertex order, each neighbour at its first edge, built
        in one walk of the edges on first use and cached on the curve;
        callers must not mutate them.
        """
        if self._adj is None:
            adj: dict[str, dict[str, int]] = {v.id: {} for v in self.vertices}
            for a, b in self.edges:
                na, nb = adj[a], adj[b]
                na[b] = na.get(b, 0) + 1
                nb[a] = nb.get(a, 0) + 1
            object.__setattr__(self, "_adj", adj)
        return self._adj

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


class CurveGeometry(Record):
    """What one walk of the graph says about the fiber relation.

    The three maps run in vertex order.  ``self_int`` is exact only when
    ``nondividing`` is empty, which :func:`geometry` checks.
    """

    degree: dict[str, int]
    chi_open: dict[str, int]     # Euler characteristic of the open stratum
    self_int: dict[str, int]
    b1: int
    abelian_rank: int
    connected: bool
    nondividing: tuple[tuple[Vertex, int], ...]  # (v, sum_w N_w E_v.E_w), N_v not dividing
    euler: int                                   # sum_v N_v chi(E_v^o)


class ValidationReport(Record):
    problems: tuple[str, ...]
    index_one: bool

    @property
    def ok(self) -> bool:
        return not self.problems


def _fiber_pass(curve: SncdCurve) -> CurveGeometry:
    """The one walk of ``curve`` behind :func:`validate`, :func:`geometry`
    and :func:`genus`: one loop over the edges adds up each vertex's degree
    and incident sum ``sum_w N_w``, in O(V + E).  Cached on the curve;
    never raises."""
    if curve._geo is not None:
        return curve._geo
    by_id = curve._by_id
    degree = dict.fromkeys(by_id, 0)
    incident = dict.fromkeys(by_id, 0)
    for a, b in curve.edges:
        degree[a] += 1
        degree[b] += 1
        incident[a] += by_id[b].N
        incident[b] += by_id[a].N
    chi_open, self_int, nondividing, euler = {}, {}, [], 0
    for v in curve.vertices:
        vid, inc = v.id, incident[v.id]
        chi_open[vid] = chi = 2 - 2 * v.g - degree[vid]
        self_int[vid] = -(inc // v.N)
        if inc % v.N:
            nondividing.append((v, inc))
        euler += v.N * chi
    geo = CurveGeometry(degree, chi_open, self_int, curve.b1(),
                        sum(v.g for v in curve.vertices), curve.is_connected(),
                        tuple(nondividing), euler)
    object.__setattr__(curve, "_geo", geo)
    return geo


# Each fiber condition worded once: validate reports them all, and geometry,
# genus and basechange's preconditions raise the ones they check.
_DISCONNECTED = "graph is not connected"
_NONDIVIDING = "multiplicity %d of %r does not divide the incident sum %d"
_MULTIPLE = "index-one flag fails: gcd of multiplicities is %d"
_EULER = "weighted Euler sum %d is not of the form 2 - 2g"


def validate(curve: SncdCurve) -> ValidationReport:
    """Report every violated fiber condition (empty report = valid):
    connectivity, divisibility, index one and the Euler sum, in that order.

    Reads the curve's one cached fiber pass, O(V + E) on first use.
    """
    geo = _fiber_pass(curve)
    problems = [] if geo.connected else [_DISCONNECTED]
    problems += [_NONDIVIDING % (v.N, v.id, incident) for v, incident in geo.nondividing]
    index = curve.multiplicity_gcd()
    if index != 1:
        problems.append(_MULTIPLE % index)
    if geo.euler % 2 or geo.euler > 2:
        problems.append(_EULER % geo.euler)
    return ValidationReport(tuple(problems), index == 1)


def genus(curve: SncdCurve) -> int:
    """Arithmetic genus recovered from ``sum N_i chi(E_i^o) = 2 - 2g``."""
    euler = _fiber_pass(curve).euler
    if euler % 2 or euler > 2:
        raise MalformedFiber(_EULER % euler)
    return (2 - euler) // 2


def geometry(curve: SncdCurve) -> CurveGeometry:
    """The curve's one cached fiber pass, once it describes a fiber.

    ``degree``, ``chi_open`` (the Euler characteristic of the open stratum)
    and ``self_int`` map each vertex id, in vertex order, to its value; the
    same object comes back on every call.  Raises :class:`MalformedFiber`
    with :func:`validate`'s text when the graph is disconnected or, failing
    that, at the first vertex whose self-intersection is not an integer; a
    failing curve raises again on every call.
    """
    geo = _fiber_pass(curve)
    if not geo.connected:
        raise MalformedFiber(_DISCONNECTED)
    if geo.nondividing:
        v, incident = geo.nondividing[0]
        raise MalformedFiber(_NONDIVIDING % (v.N, v.id, incident))
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
    vs, by_id = curve.vertices, curve._by_id
    adj = curve.adjacency()
    heap = [i for i, v in enumerate(vs) if _contractible(by_id, v, adj[v.id])]
    if not heap:
        return curve
    pos = {v.id: i for i, v in enumerate(vs)}
    adj = {vid: dict(nbrs) for vid, nbrs in adj.items()}  # edited below
    removed: set[str] = set()
    new_edges = []
    while heap:
        v = vs[heapq.heappop(heap)]
        if v.id in removed or not _contractible(by_id, v, adj[v.id]):
            continue
        removed.add(v.id)
        nbrs = adj.pop(v.id)
        for w in nbrs:
            del adj[w][v.id]
        if len(nbrs) == 2:
            a, b = sorted(nbrs)
            na, nb = adj[a], adj[b]
            na[b] = na.get(b, 0) + 1
            nb[a] = nb.get(a, 0) + 1
            new_edges.append((a, b))
        for w in nbrs:
            if _contractible(by_id, by_id[w], adj[w]):
                heapq.heappush(heap, pos[w])
    return SncdCurve(
        [v for v in vs if v.id not in removed],
        [e for e in curve.edges + tuple(new_edges)
         if e[0] not in removed and e[1] not in removed],
        curve.p,
    )


def _contractible(by_id: dict[str, Vertex], v: Vertex, nbrs: dict[str, int]) -> bool:
    """Genus 0, one or two simple edges to distinct vertices (two edges to
    one vertex would contract to a loop), and self-intersection exactly -1:
    the multiplicities of the neighbours add up to ``N_v``."""
    if v.g or not 0 < len(nbrs) <= 2 or sum(nbrs.values()) != len(nbrs):
        return False
    return sum(by_id[w].N for w in nbrs) == v.N


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
    taken = curve._by_id
    if base not in taken:
        return base
    k = 2
    while "%s%d" % (base, k) in taken:
        k += 1
    return "%s%d" % (base, k)


# -- JSON interchange ---------------------------------------------------------

def _read_text(path, what: str) -> str:
    """UTF-8 text of a file; undecodable bytes raise :class:`ParseError`."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError("%s: %s" % (what, exc)) from exc


def _parse_json(text: str, what: str):
    """``json.loads`` raising only :class:`ParseError`.  An integer literal
    past the interpreter's digit limit fails as a plain ``ValueError``."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError("%s: %s" % (what, exc)) from exc
    except ValueError as exc:
        raise ParseError("%s: integer literal has too many digits" % what) from exc


def _parse_int(text: str, error, noun: str, invalid: str) -> int:
    """``int(text)``, or ``error`` with a message of one short line.

    A decimal string past the interpreter's digit limit is named as
    ``noun``, by its first 20 characters and its digit count.  Any other
    non-integer fills ``invalid``: by its repr, or past 40 characters by
    the repr of its first 20 and its length.
    """
    try:
        return int(text)
    except ValueError as exc:
        body = text.strip()
        digits = body[1:] if body[:1] in ("+", "-") else body
        if digits.isdecimal():
            message = "%s %s... has too many digits (%d)" % (noun, text[:20], len(digits))
        elif len(text) > 40:
            message = invalid % ("%r... (%d characters)" % (text[:20], len(text)))
        else:
            message = invalid % repr(text)
        raise error(message) from exc


def parse_curve(text: str, p: int | None = None) -> SncdCurve:
    """Read a curve document; see :func:`serialize_curve` for the format.

    Checks only the document's shape (an object; ``p``, if present, a
    positive integer; a non-empty ``vertices`` list of objects with ``id``,
    ``N`` and ``g``; an ``edges`` list) and leaves each vertex and edge to
    :class:`SncdCurve`, whose :class:`MalformedFiber` comes back as a
    :class:`ParseError` with the same text.  A given ``p`` replaces the
    document's; without one, a missing ``p`` defaults to 1 and emits a
    :class:`CurveWarning`.
    """
    doc = _parse_json(text, "invalid JSON")
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    # ``type(x) is int`` refuses JSON true and false, which load as bool.
    if "p" in doc:
        if type(doc["p"]) is not int or doc["p"] < 1:
            raise ParseError("field 'p' must be a positive integer")
    elif p is None:
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
            vertices.append((rv["id"], rv["N"], rv["g"]))
        except KeyError as exc:
            raise ParseError("vertex %d misses field %s" % (i, exc)) from exc
    try:
        return SncdCurve(vertices, raw_edges, doc.get("p", 1) if p is None else p)
    except MalformedFiber as exc:
        raise ParseError(str(exc)) from exc


def _curve_doc(curve: SncdCurve) -> dict:
    """The curve document as plain JSON values, in :func:`serialize_curve`'s key order."""
    return {
        "p": curve.p,
        "vertices": [{"id": v.id, "N": v.N, "g": v.g} for v in curve.vertices],
        "edges": [list(e) for e in curve.edges],
    }


def serialize_curve(curve: SncdCurve) -> str:
    """Deterministic JSON: fixed key order, edges as sorted pairs."""
    return json.dumps(_curve_doc(curve), ensure_ascii=False, separators=(", ", ": "))


def load_curve(path, p: int | None = None) -> SncdCurve:
    """:func:`parse_curve` of a file's text; a given ``p`` replaces the document's."""
    return parse_curve(_read_text(path, "invalid JSON"), p)
