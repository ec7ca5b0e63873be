"""Curve model: validation, derived geometry, contraction, serialization."""

import gc
import json
import time
from math import gcd, lcm

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neroncalc.basechange import base_change_laws, transform
from neroncalc.curves import (
    CurveWarning,
    SncdCurve,
    _fiber_pass,
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
from neroncalc.invariants import invariant_report, stabilization_index
from neroncalc.kodaira import good_elliptic, kodaira_curve, kodaira_In, kodaira_Instar
from neroncalc.record import Record

from conftest import curves
from curve_oracles import parse_curve_shape_first, parse_curve_two_stage


def test_validate_star_fiber(all_fixture_curves):
    report = validate(all_fixture_curves["I0*"])
    assert report.ok and report.problems == ()


def test_validate_isolated_genus_one_vertex():
    report = validate(SncdCurve([("o", 1, 1)], []))
    assert report.ok


def test_validate_flags_index(all_fixture_curves):
    curve = SncdCurve([("a", 2, 0), ("b", 2, 0)], [("a", "b")])
    report = validate(curve)
    assert "index-one flag fails: gcd of multiplicities is 2" in report.problems
    assert any("gcd" in p for p in report.problems)


def test_validate_flags_divisibility():
    curve = SncdCurve([("a", 3, 0), ("b", 1, 0)], [("a", "b")])
    assert validate(curve).problems == (
        "multiplicity 3 of 'a' does not divide the incident sum 1",
        "weighted Euler sum 4 is not of the form 2 - 2g",
    )
    # geometry and genus raise validate's text for the one fault each checks
    with pytest.raises(MalformedFiber) as exc:
        geometry(curve)
    assert str(exc.value) == "multiplicity 3 of 'a' does not divide the incident sum 1"
    with pytest.raises(MalformedFiber) as exc:
        genus(curve)
    assert str(exc.value) == "weighted Euler sum 4 is not of the form 2 - 2g"


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
    with pytest.raises(MalformedFiber) as exc:
        genus(curve)
    assert str(exc.value) == "weighted Euler sum 4 is not of the form 2 - 2g"


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
    def row(name, vid):  # degree, chi of the open stratum, self-intersection
        curve = all_fixture_curves[name]
        geo = geometry(curve)
        d = geo.degree[vid]
        return d, 2 - 2 * curve.g[curve._pos[vid]] - d, geo.self_int[vid]

    assert row("II", "c") == (3, -1, -1)
    assert geometry(all_fixture_curves["II"]).b1 == 0

    for vid in all_fixture_curves["I2"].ids:
        assert row("I2", vid) == (2, 0, -2)
    assert geometry(all_fixture_curves["I2"]).b1 == 1

    assert row("I0*", "c") == (4, -2, -2)
    i0s = geometry(all_fixture_curves["I0*"])
    assert i0s.b1 == 0 and i0s.abelian_rank == 0
    # principal: II's centre (degree 3) and I0*'s (degree 4), none in I2
    e = [stabilization_index(all_fixture_curves[name]) for name in ("II", "I2", "I0*")]
    assert e == [6, 1, 2]


def test_principal_multiplicities_include_a_lone_genus_one_vertex(all_fixture_curves):
    """Principal means positive genus or degree >= 3, not ``chi < 0``: good
    reduction has one vertex of genus 1 and ``chi = 0``, so no factor."""
    geo = geometry(good_elliptic())
    assert (geo.principal, geo.chi_factors) == ({1}, {})
    assert geometry(all_fixture_curves["I2"]).principal == frozenset()
    geo = geometry(all_fixture_curves["II"])
    assert (geo.principal, geo.chi_factors) == ({6}, {1: -1, 2: -1, 3: -1, 6: 1})


def test_contract_chain():
    chain = SncdCurve(
        [("a", 6, 0), ("b", 3, 0), ("c", 3, 0), ("d", 3, 0)],
        [("a", "b"), ("b", "c"), ("c", "d")],
    )
    out = contract_minus_one(chain)
    assert sorted(vid for vid, _, _ in out.vertices) == ["a", "b"]
    assert out.edges == (("a", "b"),)


def test_kodaira_constructors_refuse_bad_input():
    for build in (kodaira_In, kodaira_Instar):
        with pytest.raises(PreconditionError, match=r"^n must be >= 0$"):
            build(-1)
    with pytest.raises(PreconditionError, match=r"^unknown reduction type 'V'$"):
        kodaira_curve(" V ")


def test_kodaira_curve_shortens_a_long_unknown_symbol():
    with pytest.raises(PreconditionError) as info:
        kodaira_curve("V" * 5000)
    assert str(info.value) == "unknown reduction type 'VVVVVVVVVVVVVVVVVVVV'... (5000 characters)"


@pytest.mark.parametrize("symbol", ["I" + "9" * 5000, "I" + "9" * 5000 + "*"],
                         ids=["In", "In_star"])
def test_kodaira_curve_names_an_index_past_the_digit_limit(symbol):
    with pytest.raises(PreconditionError) as info:
        kodaira_curve(symbol)
    assert str(info.value) == "index %s... has too many digits (5000)" % ("9" * 20)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="I*V 0123456789", max_size=4))
def test_kodaira_curve_builds_or_refuses_any_short_symbol(symbol):
    try:
        curve = kodaira_curve(symbol)
    except PreconditionError:
        return
    assert genus(curve) == 1


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


AB = [("a", 1, 0), ("b", 1, 0)]


@pytest.mark.parametrize("vertices, edges, p, kind, message", [
    ([("a", 1.5, 0)], [], 1, MalformedFiber, "vertex 0 has wrongly typed fields"),
    ([("a", 1, 0), ("b", True, 0)], [], 1, MalformedFiber, "vertex 1 has wrongly typed fields"),
    ([("a", 1, 0.5)], [], 1, MalformedFiber, "vertex 0 has wrongly typed fields"),
    ([(5, 1, 0)], [], 1, MalformedFiber, "vertex 0 has wrongly typed fields"),
    ([["a", 1, False]], [], 1, MalformedFiber, "vertex 0 has wrongly typed fields"),
    ([("a", 1, 0)], [], 1.5, PreconditionError, "characteristic exponent must be >= 1"),
    ([("a", 1, 0)], [], True, PreconditionError, "characteristic exponent must be >= 1"),
    (AB, [("a", "b", "a")], 1, MalformedFiber, "edge 0 must be a pair"),
    (AB, [("a", "b"), ("a",)], 1, MalformedFiber, "edge 1 must be a pair"),
    (AB, ["ab"], 1, MalformedFiber, "edge 0 must be a pair"),
    (AB, [{"a": 1, "b": 2}], 1, MalformedFiber, "edge 0 must be a pair"),
    (AB, [("a", ["b"])], 1, MalformedFiber, "edge 0 must join two vertex ids"),
    (AB, [[1, "b"]], 1, MalformedFiber, "edge 0 must join two vertex ids"),
    ([("a", 1)], [], 1, MalformedFiber, "vertex 0 has wrongly typed fields"),
    ([5], [], 1, MalformedFiber, "vertex 0 has wrongly typed fields"),
    ([("a", 1, 0, 7)], [], 1, MalformedFiber, "vertex 0 has wrongly typed fields"),
    ([None], [], 1, MalformedFiber, "vertex 0 has wrongly typed fields"),
])
def test_constructor_refuses_wrongly_typed_data(vertices, edges, p, kind, message):
    with pytest.raises(kind) as info:
        SncdCurve(vertices, edges, p)
    assert type(info.value) is kind and str(info.value) == message


def test_constructor_checks_types_before_values():
    # every vertex's types, then duplicate ids, then p, then values, then edges
    with pytest.raises(MalformedFiber, match="^vertex 2 has wrongly typed fields$"):
        SncdCurve([("a", 0, 0), ("a", 1, 0), ("c", 1, None)], [("x", "x")], 0)
    with pytest.raises(MalformedFiber, match="^empty vertex id$"):
        SncdCurve([("", 1, 0)], ["ab"])


def test_constructor_keeps_vertex_records_and_builds_the_rest(all_fixture_curves):
    """``vertices`` holds each vertex as a plain tuple: a given tuple as is, a
    list as its tuple.  Every fixture rebuilds from its fields."""
    o = ("o", 1, 1)
    curve = SncdCurve([o, ["b", 1, 0]], [["o", "b"]])
    assert curve.vertices == (o, ("b", 1, 0)) and curve.vertices[0] is o
    assert type(curve.vertices[1]) is tuple
    assert curve.edges == (("b", "o"),)
    assert repr(curve) == ("SncdCurve(vertices=(('o', 1, 1), ('b', 1, 0)), "
                           "edges=(('b', 'o'),), p=1)")
    assert curve != SncdCurve([o, ("b", 2, 0)], [("o", "b")])
    for c in all_fixture_curves.values():
        assert list(c.vertices) == list(zip(c.ids, c.N, c.g))
        same = SncdCurve(c.vertices, c.edges, c.p)
        assert same == c and hash(same) == hash(c) and repr(same) == repr(c)


@given(curves(), st.integers(0, 2 ** 8))
@settings(max_examples=120, deadline=None)
def test_columnar_curve_matches_the_record_built_curve(curve, mask):
    # the columns and the triples agree, from tuples, lists, a mix of both
    # and the record fields alike
    triples = list(curve.vertices)
    lists = [list(t) for t in triples]
    mixed = [t if mask >> i & 1 else l for i, (t, l) in enumerate(zip(triples, lists))]
    built = [SncdCurve(vs, curve.edges, curve.p) for vs in (triples, lists, mixed)]
    built.append(SncdCurve(**{f: getattr(curve, f) for f in SncdCurve._fields}))
    for c in built:
        assert list(vars(c))[:3] == ["vertices", "edges", "p"]
        assert list(zip(c.ids, c.N, c.g)) == triples
        assert type(c.vertices) is tuple and c.vertices == tuple(triples)
        assert all(type(v) is tuple for v in c.vertices)
        assert c == curve and hash(c) == hash(curve) and repr(c) == repr(curve)
    by_tuple, _, half, by_fields = built
    assert all(v is t for v, t in zip(by_tuple.vertices, triples))
    assert all(v is t for v, t, m in zip(half.vertices, triples, mixed) if m is t)
    assert all(v is t for v, t in zip(by_fields.vertices, curve.vertices))


@given(curves())
@settings(max_examples=120, deadline=None)
def test_weighted_euler_sum_is_even_and_bounded(curve):
    g = genus(curve)
    geo = geometry(curve)
    total = sum(
        n * (2 - 2 * g - geo.degree[vid]) for vid, n, g in curve.vertices
    )
    assert total == 2 - 2 * g


@given(curves())
@settings(max_examples=120, deadline=None)
def test_self_intersection_relation_is_exact(curve):
    geo = geometry(curve)
    adj = curve.adjacency()
    for vid, self_int in geo.self_int.items():
        incident = sum(curve.multiplicity(w) * k for w, k in adj[vid].items())
        assert curve.multiplicity(vid) * self_int + incident == 0


@given(curves())
@settings(max_examples=120, deadline=None)
def test_contraction_preserves_b1_and_genus_and_is_idempotent(curve):
    out = contract_minus_one(curve)
    assert geometry(out).b1 == geometry(curve).b1
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
        assert geometry(up2).b1 == geometry(curve).b1


def test_blown_up_ids_stay_short():
    """Forty blow-ups, each of the edge from the newest vertex to its newest
    neighbour, name every vertex in under 8 characters; contracting them
    all gives back I0."""
    curve = blow_up_point(good_elliptic(), "o")
    for _ in range(40):
        newest = curve.ids[-1]
        neighbour = max(curve.adjacency()[newest], key=curve._pos.get)
        curve = blow_up_intersection(curve, curve.edges.index(tuple(sorted((newest, neighbour)))))
        assert max(map(len, curve.ids)) < 8, max(map(len, curve.ids))
    assert len(curve.ids) == 42
    assert contract_minus_one(curve) == good_elliptic()


# -- the one edge walk against a per-vertex recomputation ----------------------


@st.composite
def valid_and_broken_curves(draw):
    """A curve of :func:`curves`, or a disjoint union of two of them, with one
    multiplicity possibly bumped until it stops dividing its incident sum."""
    curve = draw(curves())
    vertices, edges = list(curve.vertices), list(curve.edges)
    if draw(st.booleans()):
        other = draw(curves())
        vertices += [("~" + vid, n, g) for vid, n, g in other.vertices]
        edges += [("~" + a, "~" + b) for a, b in other.edges]
    if draw(st.booleans()):
        sums = [sum(m for _, m in incident(vertices, edges, vid)) for vid, _, _ in vertices]
        bumpable = [i for i, s in enumerate(sums) if s]
        if bumpable:
            i = draw(st.sampled_from(bumpable))
            vid, old, g = vertices[i]
            n = next(n for n in range(old + 1, sums[i] + 2) if sums[i] % n)
            vertices[i] = (vid, n, g)
    return SncdCurve(vertices, edges, curve.p)


def incident(vertices, edges, vid):
    """``(neighbour, its N)`` once per edge end at ``vid``, in edge order."""
    mult = {w: n for w, n, _ in vertices}
    ends = [b if a == vid else a for a, b in edges if vid in (a, b)]
    return [(w, mult[w]) for w in ends]


@given(valid_and_broken_curves())
@settings(max_examples=200, deadline=None)
def test_fiber_pass_matches_a_per_vertex_recomputation(curve):
    vs, es = curve.vertices, curve.edges
    adj = curve.adjacency()
    rows = {}  # vid -> (degree, incident sum)
    for vid, _, _ in vs:
        ends = incident(vs, es, vid)
        order = list(dict.fromkeys(w for w, _ in ends))
        assert list(adj[vid]) == order
        assert adj[vid] == {w: sum(1 for u, _ in ends if u == w) for w in order}
        rows[vid] = (len(ends), sum(m for _, m in ends))
    graph = nx.MultiGraph()
    graph.add_nodes_from(vid for vid, _, _ in vs)
    graph.add_edges_from(es)
    connected = nx.is_connected(graph)
    index = gcd(*(n for _, n, _ in vs))
    assert (_fiber_pass(curve).connected, _fiber_pass(curve).index) == (connected, index)

    nondividing = [(vid, n, rows[vid][1]) for vid, n, _ in vs if rows[vid][1] % n]
    euler = sum(n * (2 - 2 * g - rows[vid][0]) for vid, n, g in vs)
    problems = [] if connected else ["graph is not connected"]
    problems += ["multiplicity %d of %r does not divide the incident sum %d"
                 % (n, vid, s) for vid, n, s in nondividing]
    if index != 1:
        problems.append("index-one flag fails: gcd of multiplicities is %d" % index)
    if euler % 2 or euler > 2:
        problems.append("weighted Euler sum %d is not of the form 2 - 2g" % euler)
    report = validate(curve)
    assert report.problems == tuple(problems)
    assert (("index-one flag fails: gcd of multiplicities is %d" % index)
            in report.problems) == (index != 1)

    if euler % 2 or euler > 2:
        with pytest.raises(MalformedFiber) as exc:
            genus(curve)
        assert str(exc.value) == "weighted Euler sum %d is not of the form 2 - 2g" % euler
    else:
        assert genus(curve) == (2 - euler) // 2

    if not connected:
        with pytest.raises(MalformedFiber, match=r"^graph is not connected$"):
            geometry(curve)
    elif nondividing:
        vid, n, s = nondividing[0]
        with pytest.raises(MalformedFiber) as exc:
            geometry(curve)
        assert str(exc.value) == (
            "multiplicity %d of %r does not divide the incident sum %d" % (n, vid, s))
    else:
        geo = geometry(curve)
        # dict equality ignores order, so the key order is checked on its own
        assert [list(geo.degree), list(geo.self_int)] == [curve.ids] * 2
        assert geo.degree == {vid: rows[vid][0] for vid, _, _ in vs}
        assert geo.self_int == {vid: -rows[vid][1] // n for vid, n, _ in vs}
        assert (geo.b1, geo.abelian_rank) == (len(es) - len(vs) + 1, sum(g for _, _, g in vs))
        chi_factors = {}
        for vid, n, g in vs:
            chi = 2 - 2 * g - rows[vid][0]
            if chi:
                chi_factors[n] = chi_factors.get(n, 0) - chi
        assert geo.chi_factors == chi_factors
        # principal: positive genus, or meets the rest of the fiber in >= 3 points
        principal = [n for vid, n, g in vs if g > 0 or rows[vid][0] >= 3]
        assert geo.principal == set(principal)
        assert stabilization_index(curve) == (lcm(*principal) if principal else 1)


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


def test_fiber_pass_builds_no_record_per_vertex(monkeypatch):
    cycle = kodaira_curve("I10000")
    curve = SncdCurve(cycle.vertices, cycle.edges, cycle.p)
    built = []
    init = Record.__init__

    def spy(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Record, "__init__", spy)
    geometry(curve)
    assert len(built) <= 2, built[:5]


@pytest.fixture(scope="module")
def transformed_document() -> str:
    """The 20,017-vertex document of ``transform(I0*, 10007)``."""
    return serialize_curve(transform(kodaira_curve("I0*"), 10007)[0])


def _records(monkeypatch, run) -> list[str]:
    """The class names of the records ``run()`` builds."""
    built = []
    init = Record.__init__

    def spy(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Record, "__init__", spy)
        run()
    return built


def test_hot_path_builds_no_record_per_vertex(monkeypatch, transformed_document):
    i5 = kodaira_curve("I5")
    curve = parse_curve(transformed_document)
    runs = {
        "parse": lambda: parse_curve(transformed_document),
        "transform_contract": lambda: contract_minus_one(transform(i5, 2003)[0]),
        "report_laws": lambda: (invariant_report(curve), base_change_laws(i5, 2003)),
    }
    # records per input edge and per report, none per vertex of the
    # 10,015-vertex transform or the 20,017-vertex parsed curve
    built = {name: _records(monkeypatch, run) for name, run in runs.items()}
    assert built["parse"] == [] and all(len(b) <= 64 for b in built.values()), built


def test_nondividing_vertex_builds_no_record(monkeypatch):
    """A cycle with one multiplicity that does not divide its incident sum:
    :func:`validate` and :func:`geometry` name that vertex, with their usual
    text, and build no record per vertex."""
    n = 2000
    ids = ["v%d" % i for i in range(n)]

    def bad_cycle():
        return SncdCurve([(vid, 3 if vid == "v7" else 1, 0) for vid in ids],
                         [(ids[i], ids[(i + 1) % n]) for i in range(n)])

    text = "multiplicity 3 of 'v7' does not divide the incident sum 2"
    problems = []

    def check_geometry():
        with pytest.raises(MalformedFiber) as exc:
            geometry(bad_cycle())
        problems.append(str(exc.value))

    built = [_records(monkeypatch, lambda: problems.extend(validate(bad_cycle()).problems)),
              _records(monkeypatch, check_geometry)]
    assert built == [["CurveGeometry", "ValidationReport"], ["CurveGeometry"]]
    assert problems == [text, text]


def test_parse_stays_near_json_loads(transformed_document):
    """Best of 7: the parse costs at most a few json.loads of its text.

    Each timed call starts from a full collection, so that a collection of
    the whole session's heap falls into neither call by chance."""
    best = {json.loads: float("inf"), parse_curve: float("inf")}
    for _ in range(7):
        for read in best:
            gc.collect()
            t0 = time.perf_counter()
            read(transformed_document)
            best[read] = min(best[read], time.perf_counter() - t0)
    ratio = best[parse_curve] / best[json.loads]
    assert ratio < 3.5, ratio


def test_long_cycle_walks_fast():
    best = _curves_layer_seconds(10000)
    assert best < 0.1, best


def test_curves_layer_scales_near_linearly():
    # 4x the vertices: about 16x when quadratic, about 4.5x at n log n
    ratio = _curves_layer_seconds(10000) / _curves_layer_seconds(2500)
    assert ratio < 8, ratio


# -- one checker: parse_curve against the two-stage reader ---------------------

UNKNOWN = "\x00unknown"
VERTEX_FAULTS = {
    "not_object": lambda v: [v["id"], v["N"], v["g"]],
    "misses_N": lambda v: {"id": v["id"], "g": v["g"]},
    "N_float": lambda v: dict(v, N=1.5),
    "N_bool": lambda v: dict(v, N=True),
    "g_float": lambda v: dict(v, g=0.5),
    "id_int": lambda v: dict(v, id=5),
    "empty_id": lambda v: dict(v, id=""),
    "N_zero": lambda v: dict(v, N=0),
    "g_negative": lambda v: dict(v, g=-1),
}
EDGE_FAULTS = {  # an edge inserted beside the others, at a known id
    "string": lambda vid: "ab",
    "triple": lambda vid: [vid, vid, vid],
    "single": lambda vid: [vid],
    "list_endpoint": lambda vid: [[vid], vid],
    "int_endpoint": lambda vid: [vid, 5],
    "unknown_endpoint": lambda vid: [vid, UNKNOWN],
    "loop": lambda vid: [vid, vid],
}
DOC_FAULTS = {
    "p_zero": {"p": 0},
    "p_bool": {"p": True},
    "p_string": {"p": "2"},
    "vertices_empty": {"vertices": []},
    "edges_object": {"edges": {}},
}
FAULTS = sorted([*VERTEX_FAULTS, *EDGE_FAULTS, *DOC_FAULTS, "duplicate"])


def planted(curve: SncdCurve, faults) -> str:
    """The document of ``curve`` with each ``(fault, k, pos)`` planted at its
    vertex ``k`` (modulo their number) or, for an edge, at position ``pos``.
    Every planted fault stays a fault whatever else is planted."""
    doc = json.loads(serialize_curve(curve))
    vertices, edges = doc["vertices"], doc["edges"]
    original = list(vertices)
    for fault, k, pos in faults:
        v = original[k % len(original)]
        if fault in VERTEX_FAULTS:
            vertices[k % len(original)] = VERTEX_FAULTS[fault](v)
        elif fault in EDGE_FAULTS:
            edges.insert(pos % (len(edges) + 1), EDGE_FAULTS[fault](v["id"]))
        elif fault == "duplicate":
            vertices.append(dict(v))
    for fault, _, _ in faults:
        doc.update(DOC_FAULTS.get(fault, {}))
    return json.dumps(doc)


def parse_error(parse, text: str) -> str:
    with pytest.raises(ParseError) as info:
        parse(text)
    return str(info.value)


@given(curves(), st.integers(0, 2 ** 16))
@settings(max_examples=120, deadline=None)
def test_parse_matches_the_two_stage_reader_on_valid_documents(curve, flips):
    doc = json.loads(serialize_curve(curve))
    doc["edges"] = [e[::-1] if flips >> i & 1 else e for i, e in enumerate(doc["edges"])]
    text = json.dumps(doc)
    parsed = parse_curve(text)
    assert parsed == parse_curve_two_stage(text) == curve
    assert all(type(v) is tuple for v in parsed.vertices)


@given(curves(), st.sampled_from(FAULTS), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
@settings(max_examples=300, deadline=None)
def test_parse_matches_the_two_stage_reader_on_one_fault(curve, fault, k, pos):
    text = planted(curve, [(fault, k, pos)])
    new, old = parse_error(parse_curve, text), parse_error(parse_curve_two_stage, text)
    if fault == "loop":  # the constructor's words, not the reader's
        vid = curve.vertices[k % len(curve.vertices)][0]
        assert new == "loop edge at %r (components are smooth)" % vid
        assert old == "edge %d is a loop at %r" % (pos % (len(curve.edges) + 1), vid)
    else:
        assert new == old


@given(curves(), st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(0, 10 ** 6),
                                    st.integers(0, 10 ** 6)), min_size=2, max_size=4))
@settings(max_examples=150, deadline=None)
def test_several_faults_end_in_a_parse_error(curve, faults):
    text = planted(curve, faults)
    message = parse_error(parse_curve, text)
    assert message.count("\n") == 0
    assert message == parse_error(parse_curve_shape_first, text)
    parse_error(parse_curve_two_stage, text)
