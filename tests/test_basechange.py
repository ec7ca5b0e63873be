"""Base change transform: graph surgery and the laws it must satisfy."""

import hashlib
import json
import os
from math import gcd

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neroncalc.basechange
from neroncalc import cli
from neroncalc.basechange import BaseChangeLaws, base_change_laws, transform
from neroncalc.curves import (
    SncdCurve,
    contract_minus_one,
    genus,
    serialize_curve,
    validate,
)
from neroncalc.errors import PreconditionError
from neroncalc.invariants import (
    char_poly,
    component_group,
    invariant_report,
    stabilization_index,
)
from neroncalc.kodaira import ALL_FIXTURES, fixture_curve, kodaira_curve

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def as_multigraph(curve: SncdCurve) -> nx.MultiGraph:
    g = nx.MultiGraph()
    for v in curve.vertices:
        g.add_node(v.id, N=v.N, g=v.g)
    for a, b in curve.edges:
        g.add_edge(a, b)
    return g


def isomorphic(c1: SncdCurve, c2: SncdCurve) -> bool:
    return nx.is_isomorphic(
        as_multigraph(c1),
        as_multigraph(c2),
        node_match=lambda x, y: (x["N"], x["g"]) == (y["N"], y["g"]),
    )


def test_cycle_gets_subdivided(all_fixture_curves):
    out, trace = transform(all_fixture_curves["I2"], 3)
    assert isomorphic(out, kodaira_curve("I6"))
    assert all(len(r.inserted) == 2 for r in trace.edge_records)


def test_type_II_becomes_II_star(all_fixture_curves):
    out, _ = transform(all_fixture_curves["II"], 5)
    minimal = contract_minus_one(out)
    assert sorted(v.N for v in minimal.vertices) == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    assert isomorphic(minimal, all_fixture_curves["II*"])


def test_degree_one_is_identity(all_fixture_curves):
    curve = all_fixture_curves["IV*"]
    out, trace = transform(curve, 1)
    assert out == curve
    assert all(not r.inserted for r in trace.edge_records)


def test_trace_records(all_fixture_curves):
    out, trace = transform(all_fixture_curves["I2"], 3)
    assert trace.d == 3
    assert all(old == new for _, old, g, new in trace.vertex_records if g == 1)
    doc = trace.to_dict()
    assert doc["d"] == 3 and len(doc["edges"]) == 2
    assert len(trace.input_digest) == 64
    assert doc["input_sha256"] == hashlib.sha256(
        serialize_curve(all_fixture_curves["I2"]).encode()).hexdigest()


def test_e_division_law_examples(all_fixture_curves):
    for name, d, e in (("II", 5, 6), ("I0*", 3, 2), ("I2", 4, 1)):
        laws = base_change_laws(all_fixture_curves[name], d)
        assert (laws.index_predicted, laws.index_measured) == (e, e)


def test_compfu_examples(all_fixture_curves):
    for name, d, growth in (("I2", 3, (2, 6, 3)), ("II", 5, (1, 1, 1)), ("I0*", 3, (4, 4, 1))):
        laws = base_change_laws(all_fixture_curves[name], d)
        assert (laws.phi_before, laws.phi_after, laws.factor) == growth


def test_charpoly_commutation_examples(all_fixture_curves):
    assert base_change_laws(all_fixture_curves["I2"], 3).charpoly_commutes
    assert base_change_laws(all_fixture_curves["II"], 5).charpoly_commutes
    # a factor (t^3 - 1) is fixed by a coprime power map
    assert base_change_laws(all_fixture_curves["IV"], 2).charpoly_commutes


def test_laws_read_from_one_transform(monkeypatch, capsys):
    calls = []

    def spy(curve, d):
        calls.append(d)
        return transform(curve, d)

    monkeypatch.setattr(neroncalc.basechange, "transform", spy)
    assert cli.main(["check", os.path.join(FIXTURES, "I2.json"), "-d", "3", "--json"]) == 0
    assert calls == [3]
    assert json.loads(capsys.readouterr().out)["pass"] is True


TREES = [name for name in ALL_FIXTURES if fixture_curve(name).b1() == 0]
SWEEP = TREES + ["I%d" % n for n in range(2, 7)]


@pytest.mark.parametrize("name", SWEEP)
def test_laws_agree_with_the_transform_sweep(name):
    curve = fixture_curve(name)
    e = stabilization_index(curve)
    for d in range(1, 26):
        if gcd(d, e * curve.p) != 1:
            continue
        out, _ = transform(curve, d)
        before, after = component_group(curve).order, component_group(out).order
        factor = d ** curve.b1()
        commutes = char_poly(out) == char_poly(curve).power_d(d)
        laws = base_change_laws(curve, d)
        assert laws == BaseChangeLaws(
            d, before, after, factor, e // gcd(e, d), stabilization_index(out), commutes
        ), (name, d)
        assert laws.ok, (name, d)
        assert laws.to_dict() == {
            "component_growth": {"before": before, "after": after, "factor": factor, "pass": True},
            "index_division": {"predicted": e, "measured": e, "pass": True},
            "charpoly_commutation": {"pass": True},
        }


def test_failed_laws_are_reported_not_raised(monkeypatch, capsys):
    # a transform that answers IV for II at d = 5 breaks all three laws
    monkeypatch.setattr(
        neroncalc.basechange, "transform", lambda curve, d: (fixture_curve("IV"), None)
    )
    laws = base_change_laws(fixture_curve("II"), 5)
    assert (laws.phi_before, laws.phi_after, laws.factor) == (1, 3, 1)
    assert (laws.index_predicted, laws.index_measured) == (6, 3)
    assert not laws.charpoly_commutes and not laws.ok
    assert cli.main(["check", os.path.join(FIXTURES, "II.json"), "-d", "5"]) == 1
    assert capsys.readouterr().out == (
        "component_growth: FAIL\nindex_division: FAIL\ncharpoly_commutation: FAIL\n"
    )
    # IV is II's reduction at d = 2, a degree the real transform refuses:
    # e goes to 6/2 and P to its squared roots, but Phi is not a d^b1 multiple
    laws = base_change_laws(fixture_curve("II"), 2)
    assert (laws.index_predicted, laws.index_measured) == (3, 3)
    assert laws.charpoly_commutes
    assert (laws.phi_before, laws.phi_after, laws.factor) == (1, 3, 1)


def test_preconditions():
    with pytest.raises(PreconditionError, match="gcd\\(d, p\\)"):
        transform(kodaira_curve("II", p=5), 5)
    with pytest.raises(PreconditionError, match="gcd\\(d, e\\)"):
        transform(fixture_curve("II"), 2)
    with pytest.raises(PreconditionError, match="index-one"):
        transform(SncdCurve([("a", 2, 0), ("b", 2, 0)], [("a", "b")]), 3)
    with pytest.raises(PreconditionError):
        transform(fixture_curve("I2"), 0)


def test_output_validates_and_preserves_shape(all_fixture_curves):
    for name in ALL_FIXTURES:
        curve = all_fixture_curves[name]
        e = stabilization_index(curve)
        for d in (2, 3, 5, 7):
            if gcd(d, e) != 1:
                continue
            out, trace = transform(curve, d)
            assert validate(out).ok
            assert out.b1() == curve.b1()
            assert genus(out) == genus(curve)
            assert stabilization_index(out) == e
            for record in trace.edge_records:
                for vid in record.inserted:
                    assert out.vertex(vid).g == 0
                if record.local.chain is not None:
                    a, b = record.endpoints
                    chain = record.local.chain
                    assert chain.mu[0] == out.multiplicity(b)
                    assert chain.mu[-1] == out.multiplicity(a)


def test_principal_multiplicities_unchanged(all_fixture_curves):
    from neroncalc.curves import geometry

    for name in ("II*", "I3*", "g2_additive"):
        curve = all_fixture_curves[name]
        degree = geometry(curve).degree
        out, _ = transform(curve, 5)
        for v in curve.vertices:
            if v.g > 0 or degree[v.id] >= 3:  # principal N divides e, prime to d
                assert out.multiplicity(v.id) == v.N


@pytest.mark.parametrize("name", ["I2", "II", "I0*", "g2_additive"])
@pytest.mark.parametrize("d1,d2", [(5, 7), (5, 5), (7, 11)])
def test_composite_degree_consistency(name, d1, d2):
    curve = fixture_curve(name)
    e = stabilization_index(curve)
    if gcd(d1 * d2, e) != 1:
        pytest.skip("degree shares a factor with the index")
    step1, _ = transform(curve, d1)
    step2, _ = transform(step1, d2)
    direct, _ = transform(curve, d1 * d2)
    rep_two = invariant_report(contract_minus_one(step2))
    rep_one = invariant_report(contract_minus_one(direct))
    assert rep_two.phi == rep_one.phi
    assert rep_two.char_poly == rep_one.char_poly
    assert rep_two.e_model == rep_one.e_model
    assert rep_two.toric_rank == rep_one.toric_rank


@given(
    st.sampled_from(["I2", "I3", "II", "III", "IV", "I0*", "I2*", "g2_additive"]),
    st.integers(1, 20),
)
@settings(max_examples=60, deadline=None)
def test_charpoly_commutes_generically(name, d):
    curve = fixture_curve(name)
    e = stabilization_index(curve)
    if gcd(d, e) != 1:
        return
    assert base_change_laws(curve, d).charpoly_commutes
    assert char_poly(transform(curve, d)[0]) == char_poly(curve).power_d(d)


def test_component_growth_on_cycles():
    for n in range(2, 5):
        curve = kodaira_curve("I%d" % n)
        for d in (2, 3, 5):
            out, _ = transform(curve, d)
            assert component_group(out).order == n * d
