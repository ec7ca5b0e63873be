"""Two earlier curve document readers, used only by the tests.

:func:`parse_curve_two_stage` is the reader the library had before the
:class:`~neroncalc.curves.SncdCurve` constructor became the one checker of
vertices and edges: it checks the type of every vertex field and every edge
itself, refuses loops in its own words, builds the ``(id, N, g)`` triples
and only then calls the constructor.  Its first stage refuses every
wrongly typed document, so the constructor it calls sees the data the old
constructor saw and checks it the same way.

:func:`parse_curve_shape_first` is the reader of the one checker as first
written: it checks the shape of every vertex before the constructor sees
any, so a fault of shape is the one reported wherever it stands.
"""

import warnings

from neroncalc.curves import CurveWarning, SncdCurve, _parse_json
from neroncalc.errors import MalformedFiber, ParseError


def parse_curve_two_stage(text: str) -> SncdCurve:
    doc = _parse_json(text, "invalid JSON")
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    # ``type(x) is int`` refuses JSON true and false, which load as bool.
    if "p" in doc:
        p = doc["p"]
        if type(p) is not int or p < 1:
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
        if not isinstance(vid, str) or type(n) is not int or type(g) is not int:
            raise ParseError("vertex %d has wrongly typed fields" % i)
        vertices.append((vid, n, g))
    edges = []
    for i, re_ in enumerate(raw_edges):
        if not isinstance(re_, list) or len(re_) != 2:
            raise ParseError("edge %d must be a pair" % i)
        a, b = re_
        if not isinstance(a, str) or not isinstance(b, str):
            raise ParseError("edge %d must join two vertex ids" % i)
        if a == b:
            raise ParseError("edge %d is a loop at %r" % (i, a))
        edges.append((a, b))
    try:
        return SncdCurve(vertices, edges, p)
    except MalformedFiber as exc:
        raise ParseError(str(exc)) from exc


def parse_curve_shape_first(text: str) -> SncdCurve:
    """The reader of one checker as first written: the shape of every
    vertex is checked, and its ``(id, N, g)`` triple made, before the
    constructor sees any of them."""
    doc = _parse_json(text, "invalid JSON")
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if "p" in doc:
        if type(doc["p"]) is not int or doc["p"] < 1:
            raise ParseError("field 'p' must be a positive integer")
    else:
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
        return SncdCurve(vertices, raw_edges, doc.get("p", 1))
    except MalformedFiber as exc:
        raise ParseError(str(exc)) from exc
