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
from operator import itemgetter

from .errors import MalformedFiber, ParseError, PreconditionError
from .record import Record


class CurveWarning(UserWarning):
    """Non-fatal irregularities found while reading curve documents."""


class SncdCurve(Record):
    """Immutable dual graph with multiplicities and genera.

    The constructor is the one checker of curve data, for library callers
    and :func:`parse_curve` alike.  ``vertices`` are ``(id, N, g)`` triples;
    ``edges`` are unordered pairs of vertex ids, each normalized to
    lexicographic order, in list order.  It refuses, in this order: a vertex
    that is not three items or has a non-``str`` id or a non-``int`` ``N`` or
    ``g`` (``bool`` included), duplicate ids, a ``p`` that is not an
    ``int >= 1`` (:class:`PreconditionError`), an empty id, ``N < 1``,
    ``g < 0``, and an edge that is not a tuple or list of two known ids or is
    a loop (:class:`MalformedFiber`).

    The field ``vertices`` holds the checked triples, each a plain
    ``tuple``, so ``SncdCurve(c.vertices, c.edges, c.p) == c``.  The passes
    read the same data by columns: ``ids``, ``N`` and ``g`` are parallel
    lists in vertex order, and an id's position in them comes from one
    dict.  Callers must not mutate them.

    Derived data (the one fiber pass, whose record also holds the adjacency
    that :meth:`adjacency` returns, and
    :func:`~neroncalc.invariants.component_group`) is computed on first use
    and cached in private attributes that are not record fields, so
    equality and hashing see only ``vertices``, ``edges`` and ``p``.
    """

    vertices: tuple[tuple[str, int, int], ...]
    edges: tuple[tuple[str, str], ...]
    p: int = 1

    def __init__(self, vertices, edges, p: int = 1):
        triples, ids, N, g = [], [], [], []
        for i, v in enumerate(vertices):
            try:
                vid, n, gi = v
                if type(n) is not int or type(gi) is not int or not isinstance(vid, str):
                    raise TypeError
            except (TypeError, ValueError):  # or not an iterable of three items
                raise MalformedFiber("vertex %d has wrongly typed fields" % i) from None
            triples.append(v if type(v) is tuple else (vid, n, gi))
            ids.append(vid)
            N.append(n)
            g.append(gi)
        pos = dict(zip(ids, range(len(ids))))
        if len(pos) != len(ids):
            raise MalformedFiber("duplicate vertex ids")
        if type(p) is not int or p < 1:
            raise PreconditionError("characteristic exponent must be >= 1")
        if "" in pos or min(N, default=1) < 1 or min(g, default=0) < 0:
            for vid, n, gi in zip(ids, N, g):  # the first fault in vertex order
                if not vid:
                    raise MalformedFiber("empty vertex id")
                if n < 1:
                    raise MalformedFiber("multiplicity of %s must be >= 1" % _shown(vid, repr))
                if gi < 0:
                    raise MalformedFiber("genus of %s must be >= 0" % _shown(vid, repr))
        norm = []
        for i, e in enumerate(edges):
            try:
                a, b = e
            except (TypeError, ValueError):
                a = b = None
            if (type(a) is not str or type(b) is not str or a == b
                    or a not in pos or b not in pos or type(e) not in (tuple, list)):
                _check_edge(i, e, pos)  # raises, unless subclasses of str, tuple or list
            norm.append((a, b) if a <= b else (b, a))
        vars(self).update(vertices=tuple(triples), edges=tuple(norm), p=p, ids=ids, N=N, g=g,
                          _pos=pos, _geo=None, _phi=None)

    def multiplicity(self, vid: str) -> int:
        return self.N[self._pos[vid]]

    def adjacency(self) -> dict[str, dict[str, int]]:
        """Neighbour -> number of edges to it, per vertex: the rows of the
        curve's one fiber pass, in vertex order, each neighbour at its first
        edge.  Callers must not mutate them."""
        return _fiber_pass(self).adjacency


def _check_edge(i: int, e, pos: dict[str, int]) -> None:
    """The constructor's refusals of edge ``i``, in their order."""
    if not isinstance(e, (tuple, list)) or len(e) != 2:
        raise MalformedFiber("edge %d must be a pair" % i)
    a, b = e
    if not isinstance(a, str) or not isinstance(b, str):
        raise MalformedFiber("edge %d must join two vertex ids" % i)
    if a not in pos or b not in pos:
        raise MalformedFiber("edge (%s, %s) references unknown vertex"
                             % (_shown(a, repr), _shown(b, repr)))
    if a == b:
        raise MalformedFiber("loop edge at %s (components are smooth)" % _shown(a, repr))


class CurveGeometry(Record):
    """What one walk of the graph says about the fiber relation.

    ``adjacency`` maps each vertex id, in vertex order, to its row of
    neighbour -> number of edges, each neighbour at its first edge.
    ``degree`` and ``self_int`` map each vertex id to its value, in vertex
    order; ``self_int`` is exact only when ``nondividing`` is empty, which
    :func:`geometry` checks.  ``b1`` is the first Betti number of the graph
    when ``connected``, and ``index`` the gcd of the multiplicities (0 for
    no vertex).  The open stratum ``E_v^o`` of a vertex has Euler
    characteristic ``chi_v = 2 - 2 g_v - degree_v``: ``chi_factors``
    maps each multiplicity ``N`` to ``-sum chi_v`` over the vertices of
    multiplicity ``N`` with ``chi_v != 0``, the exponents of
    ``prod (t^N - 1)^(-chi)``.  ``principal`` holds the multiplicities of
    the principal vertices, those of positive genus or degree at least 3.
    """

    adjacency: dict[str, dict[str, int]]
    degree: dict[str, int]
    self_int: dict[str, int]
    b1: int
    abelian_rank: int
    connected: bool
    index: int
    nondividing: tuple[tuple[str, int, int], ...]  # (id, N_v, sum_w N_w E_v.E_w), N_v not dividing
    euler: int                                     # sum_v N_v chi(E_v^o)
    chi_factors: dict[int, int]                    # N -> -sum chi(E_v^o) over N_v = N
    principal: frozenset[int]                      # N_v over g_v > 0 or degree_v >= 3


class ValidationReport(Record):
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def _fiber_pass(curve: SncdCurve) -> CurveGeometry:
    """The one walk of ``curve`` behind :meth:`SncdCurve.adjacency`,
    :func:`validate`, :func:`geometry` and :func:`genus`: one loop over the
    edges fills the adjacency rows and adds up each vertex's degree and
    incident sum ``sum_w N_w``, and one walk of the rows decides
    connectivity, in O(V + E).  Cached on the curve, where the adjacency
    has no slot of its own; never raises."""
    if curve._geo is not None:
        return curve._geo
    ids, N, g, pos = curve.ids, curve.N, curve.g, curve._pos
    degree, incident, rows = [0] * len(ids), [0] * len(ids), [{} for _ in ids]
    for a, b in curve.edges:
        i, j = pos[a], pos[b]
        degree[i] += 1
        degree[j] += 1
        incident[i] += N[j]
        incident[j] += N[i]
        ra, rb = rows[i], rows[j]
        ra[b] = ra.get(b, 0) + 1
        rb[a] = rb.get(a, 0) + 1
    adj = dict(zip(ids, rows))
    seen, stack = set(ids[:1]), ids[:1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    self_int, nondividing, euler, chi_factors, principal = {}, [], 0, {}, set()
    for i, vid in enumerate(ids):
        n, inc, d = N[i], incident[i], degree[i]
        self_int[vid] = -(inc // n)
        if inc % n:
            nondividing.append((vid, n, inc))
        chi = 2 - 2 * g[i] - d
        if chi:
            euler += n * chi
            chi_factors[n] = chi_factors.get(n, 0) - chi
        if g[i] or d >= 3:
            principal.add(n)
    geo = CurveGeometry(adj, dict(zip(ids, degree)), self_int, len(curve.edges) - len(ids) + 1,
                        sum(g), 0 < len(seen) == len(ids), gcd(*N), tuple(nondividing), euler,
                        chi_factors, frozenset(principal))
    object.__setattr__(curve, "_geo", geo)
    return geo


# Each fiber condition worded once: validate reports them all, and geometry,
# genus and basechange's preconditions raise the ones they check.  Ids and
# numbers are shown by _shown and _shown_number, so a line stays short.
_DISCONNECTED = "graph is not connected"
_MULTIPLE = "index-one flag fails: gcd of multiplicities is %s"
_EULER = "weighted Euler sum %s is not of the form 2 - 2g"


def _nondividing(vid: str, n: int, incident: int) -> str:
    return "multiplicity %s of %s does not divide the incident sum %s" % (
        _shown_number(n), _shown(vid, repr), _shown_number(incident))


def validate(curve: SncdCurve) -> ValidationReport:
    """Report every violated fiber condition (empty report = valid):
    connectivity, divisibility, index one and the Euler sum, in that order.

    Reads the curve's one cached fiber pass, O(V + E) on first use.
    """
    geo = _fiber_pass(curve)
    problems = [] if geo.connected else [_DISCONNECTED]
    problems += [_nondividing(*v) for v in geo.nondividing]
    if geo.index != 1:
        problems.append(_MULTIPLE % _shown_number(geo.index))
    if geo.euler % 2 or geo.euler > 2:
        problems.append(_EULER % _shown_number(geo.euler))
    return ValidationReport(tuple(problems))


def genus(curve: SncdCurve) -> int:
    """Arithmetic genus recovered from ``sum N_i chi(E_i^o) = 2 - 2g``."""
    euler = _fiber_pass(curve).euler
    if euler % 2 or euler > 2:
        raise MalformedFiber(_EULER % _shown_number(euler))
    return (2 - euler) // 2


def geometry(curve: SncdCurve) -> CurveGeometry:
    """The curve's one cached fiber pass, once it describes a fiber.

    ``degree`` and ``self_int`` map each vertex id, in vertex order, to its
    value; ``chi_factors`` and ``principal`` hold the exponents of
    ``prod (t^N - 1)^(-chi)`` and the principal multiplicities (see
    :class:`CurveGeometry`).  The same object comes back on every call.
    Raises :class:`MalformedFiber` with :func:`validate`'s text when the
    graph is disconnected or, failing that, at the first vertex whose
    self-intersection is not an integer; a failing curve raises again on
    every call.
    """
    geo = _fiber_pass(curve)
    if not geo.connected:
        raise MalformedFiber(_DISCONNECTED)
    if geo.nondividing:
        raise MalformedFiber(_nondividing(*geo.nondividing[0]))
    return geo


def contract_minus_one(curve: SncdCurve) -> SncdCurve:
    """The minimal model, by the library's only contraction of (-1)-curves:
    vertices of genus 0, self-intersection -1, a multiplicity that divides
    the incident sum, and one or two simple edges to distinct vertices (two
    to one vertex would give a loop), two neighbours then joined by an edge.

    Each step contracts the first such vertex in input order, which raises
    each neighbour's self-intersection by 1 (its multiplicity is the sum
    of theirs) and changes no other vertex, so only its neighbours are
    examined again: a heap of input positions holds the candidates, each
    checked again when popped, in O((V + E) log V).  The cached pass is
    never changed: the first contraction copies its outer maps, and a row
    is copied when first edited.  Surviving edges keep their input order,
    then come the new edges in the order they were made; one curve is
    built at the end, and a curve with nothing to contract is returned.

    On a valid fiber of genus >= 1 the order does not matter: ``N`` spans
    the kernel of the intersection form of a connected fiber, so the form
    is negative semidefinite (Perron-Frobenius); two (-1)-curves ``E``,
    ``E'`` that met would give ``(E + E')^2 = 0``, so ``E + E'`` would be
    the whole fiber, of genus 0; contractions that do not meet commute.
    The genus-0 fiber of two reduced vertices joined once keeps the second.
    """
    geo = _fiber_pass(curve)
    ids, pos, g = curve.ids, curve._pos, curve.g
    adj, degree, self_int = geo.adjacency, geo.degree, geo.self_int
    nondividing = {vid for vid, _, _ in geo.nondividing}

    def exceptional(vid):  # reads the maps as rebound below
        return (self_int[vid] == -1 and degree[vid] == len(adj[vid]) in (1, 2)
                and not g[pos[vid]] and vid not in nondividing)

    heap = [i for i, s in enumerate(self_int.values()) if s == -1 and exceptional(ids[i])]
    if not heap:
        return curve
    cached, adj, degree, self_int, new_edges = adj, dict(adj), dict(degree), dict(self_int), []
    while heap:
        vid = ids[heapq.heappop(heap)]
        if vid not in adj or not exceptional(vid):
            continue
        nbrs = adj.pop(vid)
        del degree[vid], self_int[vid]
        for w in nbrs:
            if adj[w] is cached[w]:
                adj[w] = dict(adj[w])
            del adj[w][vid]
            self_int[w] += 1
        if len(nbrs) == 2:
            a, b = sorted(nbrs)
            adj[a][b] = adj[a].get(b, 0) + 1
            adj[b][a] = adj[b].get(a, 0) + 1
            new_edges.append((a, b))
        else:
            degree[w] -= 1
        for w in nbrs:
            if exceptional(w):
                heapq.heappush(heap, pos[w])
    return SncdCurve([curve.vertices[pos[vid]] for vid in adj],  # adj keeps vertex order
                     [e for e in curve.edges + tuple(new_edges) if e[0] in adj and e[1] in adj],
                     curve.p)


def blow_up_point(curve: SncdCurve, vid: str) -> SncdCurve:
    """Blow up a smooth point of the component ``vid``.

    Adds an exceptional vertex, named by :func:`_fresh_id`, with the same
    multiplicity and genus 0.
    """
    nid = _fresh_id(curve)
    return SncdCurve([*curve.vertices, (nid, curve.multiplicity(vid), 0)],
                     curve.edges + ((vid, nid),), curve.p)


def blow_up_intersection(curve: SncdCurve, edge_index: int) -> SncdCurve:
    """Blow up the intersection point recorded by ``edges[edge_index]``.

    The edge is subdivided by an exceptional vertex, named by
    :func:`_fresh_id`, of multiplicity ``N_a + N_b`` and genus 0.
    """
    a, b = curve.edges[edge_index]
    nid = _fresh_id(curve)
    n = curve.multiplicity(a) + curve.multiplicity(b)
    edges = list(curve.edges)
    del edges[edge_index]
    edges += [(a, nid), (b, nid)]
    return SncdCurve([*curve.vertices, (nid, n, 0)], edges, curve.p)


def _fresh_id(curve: SncdCurve) -> str:
    """``"E<k>"`` for a curve of ``k`` vertices, or if that is taken the
    first free ``"E<k>_<j>"``: an id that stays short however many blow-ups
    came before."""
    taken, base = curve._pos, "E%d" % len(curve.ids)
    nid, j = base, 1
    while nid in taken:
        j += 1
        nid = "%s_%d" % (base, j)
    return nid


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


def _shown(text: str, show=str) -> str:
    """``show(text)`` for a message, or past 40 characters ``show`` of its
    first 20 and its length."""
    if len(text) <= 40:
        return show(text)
    return "%s... (%d characters)" % (show(text[:20]), len(text))


def _shown_number(x) -> str:
    """``_shown(str(x))`` for an ``int`` or a ``Fraction``, past 40 digits in a
    part without ``str``, which refuses one beyond the interpreter's limit."""
    parts = (x.numerator,) if x.denominator == 1 else (x.numerator, x.denominator)
    if all(abs(n) < 10**40 for n in parts):
        return _shown(str(x))
    heads, length = [], len(parts) - 1  # each part's first 20 characters; the "/"
    for n in parts:
        m, sign = abs(n), "-" if n < 0 else ""
        k = (m.bit_length() - 1) * 30102999 // 10**8  # 10^k <= m: 0.30102999 < log10(2)
        while 10 ** (k + 1) <= m:
            k += 1
        heads.append(sign + str(m // 10 ** max(k - 19, 0)))
        length += len(sign) + k + 1
    return "%s... (%d characters)" % ("/".join(heads)[:20], length)


def _parse_int(text: str, error, noun: str, invalid: str) -> int:
    """``int(text)``, or ``error`` with a message of one short line.

    A decimal string past the interpreter's digit limit is named as
    ``noun``, by its first 20 characters and its digit count.  Any other
    non-integer fills ``invalid`` by its repr, shortened by :func:`_shown`.
    """
    try:
        return int(text)
    except ValueError as exc:
        body = text.strip()
        digits = body[1:] if body[:1] in ("+", "-") else body
        if digits.isdecimal():
            message = "%s %s... has too many digits (%d)" % (noun, text[:20], len(digits))
        else:
            message = invalid % _shown(text, repr)
        raise error(message) from exc


_VERTEX_FIELDS = itemgetter("id", "N", "g")


def parse_curve(text: str, p: int | None = None) -> SncdCurve:
    """Read a curve document; see :func:`serialize_curve` for the format.

    Checks only the document's shape (an object; ``p``, if present, a
    positive integer; a non-empty ``vertices`` list of objects with ``id``,
    ``N`` and ``g``; an ``edges`` list) and leaves each vertex and edge to
    :class:`SncdCurve`, whose :class:`MalformedFiber` comes back as a
    :class:`ParseError` with the same text.  The vertices reach it as
    ``(id, N, g)`` triples made one at a time, and the shape of each vertex
    is looked at only once the curve fails, so that a fault of shape is
    still the one reported, wherever it stands.  A given ``p`` replaces the
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
    try:
        return SncdCurve(map(_VERTEX_FIELDS, raw_vertices), raw_edges,
                         doc.get("p", 1) if p is None else p)
    except (MalformedFiber, KeyError, TypeError) as exc:  # the last two from _VERTEX_FIELDS
        for i, rv in enumerate(raw_vertices):
            if not isinstance(rv, dict):
                raise ParseError("vertex %d must be an object" % i) from None
            try:
                _VERTEX_FIELDS(rv)
            except KeyError as err:
                raise ParseError("vertex %d misses field %s" % (i, err)) from err
        if not isinstance(exc, MalformedFiber):
            raise
        raise ParseError(str(exc)) from exc


def _curve_doc(curve: SncdCurve) -> dict:
    """The curve document as plain JSON values, in :func:`serialize_curve`'s key order."""
    return {
        "p": curve.p,
        "vertices": [{"id": vid, "N": n, "g": gi} for vid, n, gi in curve.vertices],
        "edges": [list(e) for e in curve.edges],
    }


def serialize_curve(curve: SncdCurve) -> str:
    """Deterministic JSON: fixed key order, edges as sorted pairs."""
    return json.dumps(_curve_doc(curve), ensure_ascii=False, separators=(", ", ": "))


def load_curve(path, p: int | None = None) -> SncdCurve:
    """:func:`parse_curve` of a file's text; a given ``p`` replaces the document's."""
    return parse_curve(_read_text(path, "invalid JSON"), p)
