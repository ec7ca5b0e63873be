"""Curve model: validation, derived geometry, contraction, serialization."""

import json
import time
from math import gcd

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neroncalc.curves import (
    CurveWarning,
    SncdCurve,
    Vertex,
    blow_up_intersection,
    blow_up_point,
    contract_minus_one,
    genus,
    geometry,
    parse_curve,
    serialize_curve,
    validate,
)
from neroncalc.errors import MalformedFiber, ParseError, PreconditionError
from neroncalc.kodaira import kodaira_curve

from conftest import curves


def test_validate_star_fiber(all_fixture_curves):
    report = validate(all_fixture_curves["I0*"])
    assert report.ok and report.index_one


def test_validate_isolated_genus_one_vertex():
    report = validate(SncdCurve([("o", 1, 1)], []))
    assert report.ok


def test_validate_flags_index(all_fixture_curves):
    curve = SncdCurve([("a", 2, 0), ("b", 2, 0)], [("a", "b")])
    report = validate(curve)
    assert not report.index_one
    assert any("gcd" in p for p in report.problems)


def test_validate_flags_divisibility():
    curve = SncdCurve([("a", 3, 0), ("b", 1, 0)], [("a", "b")])
    assert validate(curve).problems == (
        "multiplicity 3 of 'a' does not divide the incident sum 1",
        "weighted Euler sum 4 is not of the form 2 - 2g",
    )
    with pytest.raises(MalformedFiber, match=r"^multiplicity 3 of 'a' does not divide 1$"):
        geometry(curve)
    with pytest.raises(MalformedFiber, match=r"^negative genus -1$"):
        genus(curve)


def test_validate_flags_disconnected():
    curve = SncdCurve([("a", 1, 1), ("b", 1, 1)], [])
    assert validate(curve).problems == ("graph is not connected",)
    with pytest.raises(MalformedFiber, match=r"^graph is not connected$"):
        geometry(curve)
    assert genus(curve) == 1
    # disconnected and not dividing: connectivity comes first everywhere
    curve = SncdCurve([("a", 3, 0), ("b", 1, 0), ("c", 1, 1)], [("a", "b")])
    assert validate(curve).problems == (
        "graph is not connected",
        "multiplicity 3 of 'a' does not divide the incident sum 1",
        "weighted Euler sum 4 is not of the form 2 - 2g",
    )
    with pytest.raises(MalformedFiber, match=r"^graph is not connected$"):
        geometry(curve)
    with pytest.raises(MalformedFiber, match=r"^negative genus -1$"):
        genus(curve)


def test_genus_examples(all_fixture_curves):
    assert genus(all_fixture_curves["II"]) == 1
    assert genus(all_fixture_curves["I2"]) == 1
    assert genus(SncdCurve([("o", 1, 3)], [])) == 3


def test_genus_rejects_negative():
    curve = SncdCurve([("a", 1, 0), ("b", 1, 0)], [("a", "b")])
    # weighted sum is 2 + 2 - 2 = 2 -> genus 0; add an extra component chain
    assert genus(curve) == 0
    with pytest.raises(MalformedFiber):
        genus(SncdCurve([("a", 2, 0), ("b", 1, 0)], [("a", "b")]))


def test_geometry_examples(all_fixture_curves):
    ii = geometry(all_fixture_curves["II"])
    center = ii.vertices["c"]
    assert (center.degree, center.chi_open, center.self_int) == (3, -1, -1)
    assert center.principal and ii.b1 == 0

    i2 = geometry(all_fixture_curves["I2"])
    for vg in i2.vertices.values():
        assert (vg.degree, vg.chi_open, vg.self_int, vg.principal) == (2, 0, -2, False)
    assert i2.b1 == 1

    i0s = geometry(all_fixture_curves["I0*"])
    c = i0s.vertices["c"]
    assert (c.degree, c.chi_open, c.self_int, c.principal) == (4, -2, -2, True)
    assert i0s.b1 == 0 and i0s.abelian_rank == 0


def test_contract_chain():
    chain = SncdCurve(
        [("a", 6, 0), ("b", 3, 0), ("c", 3, 0), ("d", 3, 0)],
        [("a", "b"), ("b", "c"), ("c", "d")],
    )
    out = contract_minus_one(chain)
    assert sorted(v.id for v in out.vertices) == ["a", "b"]
    assert out.edges == (("a", "b"),)


def test_contract_fixed_points(all_fixture_curves):
    for name in ("II", "I2"):
        curve = all_fixture_curves[name]
        assert contract_minus_one(curve) == curve


def test_contract_skips_double_edge_to_one_vertex():
    # the blown-up nodal fiber has a -1 vertex with both edges to one vertex
    i1 = kodaira_curve("I1")
    assert contract_minus_one(i1) == i1


def test_roundtrip_canonical_document():
    doc = (
        '{"p": 1, "vertices": [{"id": "v0", "N": 1, "g": 0}, '
        '{"id": "v1", "N": 1, "g": 0}], '
        '"edges": [["v0", "v1"], ["v0", "v1"]]}'
    )
    curve = parse_curve(doc)
    assert serialize_curve(curve) == doc
    assert parse_curve(serialize_curve(curve)) == curve


def test_parse_rejects_loop():
    doc = json.dumps(
        {"p": 1, "vertices": [{"id": "a", "N": 1, "g": 0}], "edges": [["a", "a"]]}
    )
    with pytest.raises(ParseError, match="loop"):
        parse_curve(doc)


def test_parse_defaults_p_with_warning():
    doc = json.dumps(
        {"vertices": [{"id": "a", "N": 1, "g": 1}], "edges": []}
    )
    with pytest.warns(CurveWarning):
        curve = parse_curve(doc)
    assert curve.p == 1


def test_parse_error_reporting():
    with pytest.raises(ParseError):
        parse_curve("{")
    with pytest.raises(ParseError, match="vertices"):
        parse_curve('{"p": 1, "edges": []}')
    with pytest.raises(ParseError, match="unknown vertex"):
        parse_curve(
            '{"p": 1, "vertices": [{"id": "a", "N": 1, "g": 0}], "edges": [["a", "b"]]}'
        )


def test_constructor_guards():
    with pytest.raises(MalformedFiber, match=r"^multiplicity of 'a' must be >= 1$"):
        SncdCurve([("a", 0, 0)], [])
    with pytest.raises(MalformedFiber, match=r"^genus of 'a' must be >= 0$"):
        SncdCurve([("a", 1, -1)], [])
    with pytest.raises(MalformedFiber, match=r"^duplicate vertex ids$"):
        SncdCurve([("a", 1, 0), ("a", 2, 0)], [])
    with pytest.raises(MalformedFiber, match=r"^loop edge at 'a' \(components are smooth\)$"):
        SncdCurve([("a", 1, 0)], [("a", "a")])
    with pytest.raises(PreconditionError, match=r"^characteristic exponent must be >= 1$"):
        SncdCurve([("a", 1, 0)], [], 0)
    with pytest.raises(MalformedFiber, match=r"^empty vertex id$"):
        SncdCurve([("", 1, 0)], [])
    with pytest.raises(MalformedFiber,
                       match=r"^edge \('a', 'b'\) references unknown vertex$"):
        SncdCurve([("a", 1, 0)], [("a", "b")])
    # checked in order: duplicate ids, then p, then each vertex, then each edge
    with pytest.raises(MalformedFiber, match="duplicate"):
        SncdCurve([("", 0, -1), ("", 0, -1)], [("x", "x")], 0)
    with pytest.raises(PreconditionError):
        SncdCurve([("", 0, -1)], [("x", "x")], 0)
    with pytest.raises(MalformedFiber, match="empty vertex id"):
        SncdCurve([("", 0, -1)], [("x", "x")])
    with pytest.raises(MalformedFiber, match="multiplicity of 'a'"):
        SncdCurve([("a", 0, -1), ("", 1, 0)], [("x", "x")])
    with pytest.raises(MalformedFiber, match="genus of 'a'"):
        SncdCurve([("a", 1, -1), ("b", 0, 0)], [("x", "x")])
    with pytest.raises(MalformedFiber, match="unknown vertex"):
        SncdCurve([("a", 1, 0)], [("a", "x"), ("a", "a")])
    with pytest.raises(MalformedFiber, match="loop"):
        SncdCurve([("a", 1, 0)], [("a", "a"), ("a", "x")])


@given(curves())
@settings(max_examples=120, deadline=None)
def test_weighted_euler_sum_is_even_and_bounded(curve):
    g = genus(curve)
    geo = geometry(curve)
    total = sum(
        curve.multiplicity(vid) * vg.chi_open for vid, vg in geo.vertices.items()
    )
    assert total == 2 - 2 * g


@given(curves())
@settings(max_examples=120, deadline=None)
def test_self_intersection_relation_is_exact(curve):
    geo = geometry(curve)
    adj = curve.adjacency()
    for vid, vg in geo.vertices.items():
        incident = sum(curve.multiplicity(w) * k for w, k in adj[vid].items())
        assert curve.multiplicity(vid) * vg.self_int + incident == 0


@given(curves())
@settings(max_examples=120, deadline=None)
def test_contraction_preserves_b1_and_genus_and_is_idempotent(curve):
    out = contract_minus_one(curve)
    assert out.b1() == curve.b1()
    assert genus(out) == genus(curve)
    assert contract_minus_one(out) == out


@given(curves())
@settings(max_examples=80, deadline=None)
def test_blowups_preserve_validity_and_genus(curve):
    g = genus(curve)
    up = blow_up_point(curve, curve.ids[0])
    assert validate(up).ok == validate(curve).ok
    assert genus(up) == g
    if curve.edges:
        up2 = blow_up_intersection(curve, 0)
        assert genus(up2) == g
        assert up2.b1() == curve.b1()


# -- the one edge walk against a per-vertex recomputation ----------------------


@st.composite
def valid_and_broken_curves(draw):
    """A curve of :func:`curves`, or a disjoint union of two of them, with one
    multiplicity possibly bumped until it stops dividing its incident sum."""
    curve = draw(curves())
    vertices, edges = list(curve.vertices), list(curve.edges)
    if draw(st.booleans()):
        other = draw(curves())
        vertices += [Vertex("~" + v.id, v.N, v.g) for v in other.vertices]
        edges += [("~" + a, "~" + b) for a, b in other.edges]
    if draw(st.booleans()):
        sums = [sum(m for _, m in incident(vertices, edges, v)) for v in vertices]
        bumpable = [i for i, s in enumerate(sums) if s]
        if bumpable:
            i = draw(st.sampled_from(bumpable))
            v = vertices[i]
            n = next(n for n in range(v.N + 1, sums[i] + 2) if sums[i] % n)
            vertices[i] = Vertex(v.id, n, v.g)
    return SncdCurve(vertices, edges, curve.p)


def incident(vertices, edges, v):
    """``(neighbour, its N)`` once per edge end at ``v``, in edge order."""
    mult = {w.id: w.N for w in vertices}
    ends = [b if a == v.id else a for a, b in edges if v.id in (a, b)]
    return [(w, mult[w]) for w in ends]


@given(valid_and_broken_curves())
@settings(max_examples=200, deadline=None)
def test_fiber_pass_matches_a_per_vertex_recomputation(curve):
    vs, es = curve.vertices, curve.edges
    adj = curve.adjacency()
    rows = {}  # vid -> (degree, incident sum)
    for v in vs:
        ends = incident(vs, es, v)
        order = list(dict.fromkeys(w for w, _ in ends))
        assert list(adj[v.id]) == order
        assert adj[v.id] == {w: sum(1 for u, _ in ends if u == w) for w in order}
        rows[v.id] = (len(ends), sum(m for _, m in ends))
    graph = nx.MultiGraph()
    graph.add_nodes_from(v.id for v in vs)
    graph.add_edges_from(es)
    connected = nx.is_connected(graph)
    assert curve.is_connected() == connected

    nondividing = [(v, rows[v.id][1]) for v in vs if rows[v.id][1] % v.N]
    euler = sum(v.N * (2 - 2 * v.g - rows[v.id][0]) for v in vs)
    index = gcd(*(v.N for v in vs))
    problems = [] if connected else ["graph is not connected"]
    problems += ["multiplicity %d of %r does not divide the incident sum %d"
                 % (v.N, v.id, s) for v, s in nondividing]
    if index != 1:
        problems.append("index-one flag fails: gcd of multiplicities is %d" % index)
    if euler % 2 or euler > 2:
        problems.append("weighted Euler sum %d is not of the form 2 - 2g" % euler)
    report = validate(curve)
    assert report.problems == tuple(problems)
    assert report.index_one == (index == 1)

    if euler % 2:
        with pytest.raises(MalformedFiber, match="wrong parity"):
            genus(curve)
    elif euler > 2:
        with pytest.raises(MalformedFiber, match="negative genus"):
            genus(curve)
    else:
        assert genus(curve) == (2 - euler) // 2

    if not connected:
        with pytest.raises(MalformedFiber, match=r"^graph is not connected$"):
            geometry(curve)
    elif nondividing:
        v, s = nondividing[0]
        with pytest.raises(MalformedFiber) as exc:
            geometry(curve)
        assert str(exc.value) == "multiplicity %d of %r does not divide %d" % (v.N, v.id, s)
    else:
        geo = geometry(curve)
        assert list(geo.vertices) == [v.id for v in vs]
        for v in vs:
            d, s = rows[v.id]
            vg = geo.vertices[v.id]
            assert (vg.degree, vg.chi_open, vg.self_int, vg.principal) == (
                d, 2 - 2 * v.g - d, -s // v.N, v.g > 0 or d >= 3)
        assert (geo.b1, geo.abelian_rank) == (len(es) - len(vs) + 1, sum(v.g for v in vs))


# -- the curves layer at 10^4 vertices -----------------------------------------


def _curves_layer_seconds(n: int) -> float:
    """Best of 3: a fresh curve of ``I_n``, its adjacency and its geometry."""
    cycle = kodaira_curve("I%d" % n)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        curve = SncdCurve(cycle.vertices, cycle.edges, cycle.p)
        curve.adjacency()
        geometry(curve)
        best = min(best, time.perf_counter() - t0)
    return best


def test_long_cycle_walks_fast():
    best = _curves_layer_seconds(10000)
    assert best < 0.1, best


def test_curves_layer_scales_near_linearly():
    # 4x the vertices: about 16x when quadratic, about 4.5x at n log n
    ratio = _curves_layer_seconds(10000) / _curves_layer_seconds(2500)
    assert ratio < 8, ratio
