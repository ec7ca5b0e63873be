"""Curve model: validation, derived geometry, contraction, serialization."""

import json

import pytest
from hypothesis import given, settings

from neroncalc.curves import (
    CurveWarning,
    SncdCurve,
    blow_up_intersection,
    blow_up_point,
    contract_minus_one,
    genus,
    geometry,
    parse_curve,
    serialize_curve,
    validate,
)
from neroncalc.errors import MalformedFiber, ParseError
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
    with pytest.raises(ValueError):
        SncdCurve([("a", 0, 0)], [])
    with pytest.raises(ValueError):
        SncdCurve([("a", 1, -1)], [])
    with pytest.raises(ValueError):
        SncdCurve([("a", 1, 0), ("a", 2, 0)], [])
    with pytest.raises(ValueError):
        SncdCurve([("a", 1, 0)], [("a", "a")])


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
