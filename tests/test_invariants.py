"""Fiber invariants: component groups, characteristic polynomials, ranks."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from neroncalc.curves import SncdCurve, blow_up_intersection, blow_up_point, geometry
from neroncalc.cyclo import CycloProduct
from neroncalc.errors import MalformedFiber
from neroncalc.invariants import (
    char_poly,
    char_poly_prime,
    component_group,
    invariant_report,
    lorenzini_form,
    monodromy_zeta,
    stabilization_index,
    tame,
    trace_identities,
)
from neroncalc.kodaira import ALL_FIXTURES, fixture_curve, kodaira_curve

from conftest import curves
from linalg_oracles import intersection_matrix, smith_quotient


def test_component_group_examples(all_fixture_curves):
    assert component_group(all_fixture_curves["II"]).is_trivial
    assert component_group(all_fixture_curves["I0*"]).factors == (2, 2)
    assert component_group(all_fixture_curves["I2"]).factors == (2,)


def test_component_group_cycles():
    for n in range(2, 7):
        assert component_group(kodaira_curve("I%d" % n)).order == n


def test_component_group_known_structures(all_fixture_curves):
    expected = {
        "I1": (), "II": (), "III": (2,), "IV": (3,),
        "I1*": (4,), "I2*": (2, 2), "I3*": (4,), "I4*": (2, 2),
        "IV*": (3,), "III*": (2,), "II*": (),
        "g2_additive": (), "g2_semistable": (),
    }
    for name, factors in expected.items():
        assert component_group(all_fixture_curves[name]).factors == factors


def test_component_group_agrees_with_kernel_route(all_fixture_curves):
    # same quotient computed as ker(multiplicities)/im(intersection matrix)
    for name in ALL_FIXTURES:
        curve = all_fixture_curves[name]
        beta = [[v.N for v in curve.vertices]]
        group, rank = smith_quotient(beta, intersection_matrix(curve))
        assert rank == 0
        assert group == component_group(curve)


def test_char_poly_examples(all_fixture_curves):
    assert char_poly(all_fixture_curves["II"]).as_poly() == [1, -1, 1]
    assert char_poly(all_fixture_curves["I2"]).as_poly() == [1, -2, 1]


def test_char_poly_prime_wild_collapse():
    ii = kodaira_curve("II", p=2)
    assert char_poly_prime(ii) == CycloProduct.one()
    assert char_poly_prime(ii).divides(char_poly(ii))
    assert not tame(ii)
    # odd characteristic leaves type II untouched
    assert char_poly_prime(kodaira_curve("II", p=5)) == char_poly(kodaira_curve("II"))


def test_monodromy_zeta_examples(all_fixture_curves):
    assert monodromy_zeta(all_fixture_curves["I2"]) == CycloProduct.one()
    assert monodromy_zeta(all_fixture_curves["II"]) == CycloProduct(
        {6: 1, 3: -1, 2: -1, 1: -1}
    )


def test_lorenzini_form_matches_zeta(all_fixture_curves):
    prefactor = CycloProduct({1: 2})
    for name in ALL_FIXTURES:
        curve = all_fixture_curves[name]
        assert lorenzini_form(curve) == prefactor * monodromy_zeta(curve)
    # and the product equals the prime characteristic polynomial
    assert lorenzini_form(all_fixture_curves["II"]) == char_poly_prime(
        all_fixture_curves["II"]
    )


def test_stabilization_examples(all_fixture_curves):
    assert stabilization_index(all_fixture_curves["II"]) == 6
    assert stabilization_index(all_fixture_curves["I0*"]) == 2
    assert stabilization_index(all_fixture_curves["I2"]) == 1


def test_root_order_matches_index_on_minimal_fixtures(all_fixture_curves):
    for name in ALL_FIXTURES:
        curve = all_fixture_curves[name]
        assert char_poly(curve).root_order() == stabilization_index(curve)


@pytest.mark.parametrize("scale", [2, 10**6])
def test_multiple_fiber_is_refused_up_front(scale):
    curve = kodaira_curve("II")
    multiple = SncdCurve(
        [(v.id, v.N * scale, v.g) for v in curve.vertices], curve.edges
    )
    message = "^index-one flag fails: gcd of multiplicities is %d$" % scale
    start = time.perf_counter()
    with pytest.raises(MalformedFiber, match=message):
        invariant_report(multiple)
    assert time.perf_counter() - start < 0.1


def test_tame_examples():
    assert not tame(kodaira_curve("II", p=2))
    assert tame(kodaira_curve("II", p=5))
    assert tame(kodaira_curve("II"))


def test_trace_identities_examples(all_fixture_curves):
    rep = trace_identities(all_fixture_curves["II"])
    assert rep.additive and rep.agree
    assert rep.char_value_at_one == rep.phi_prime_order == rep.valency_product == 1

    rep = trace_identities(all_fixture_curves["I0*"])
    assert rep.additive and rep.agree
    assert rep.char_value_at_one == 4

    rep = trace_identities(all_fixture_curves["I2"])
    assert not rep.additive
    assert rep.char_value_at_one == 0 and rep.agree


def test_trace_identities_all_additive_fixtures(all_fixture_curves):
    for name in ALL_FIXTURES:
        rep = trace_identities(all_fixture_curves[name])
        assert rep.agree, name


def test_invariant_report_assembly(all_fixture_curves):
    rep = invariant_report(all_fixture_curves["II"])
    assert (rep.genus, rep.toric_rank, rep.abelian_rank, rep.unipotent_rank) == (
        1, 0, 0, 1,
    )
    assert rep.e_model == 6 and rep.tame and rep.additive
    doc = rep.to_dict()
    assert doc["P"] == "t^2 - t + 1" and doc["phi"] == []

    rep2 = invariant_report(all_fixture_curves["g2_semistable"])
    assert (rep2.genus, rep2.abelian_rank, rep2.additive) == (2, 2, False)


def _as_poly_calls(monkeypatch, curve):
    """``(report dict, number of CycloProduct.as_poly calls)`` of one
    ``invariant_report(curve).to_dict()``."""
    calls = []
    expand = CycloProduct.as_poly

    def counting(self):
        calls.append(self)
        return expand(self)

    monkeypatch.setattr(CycloProduct, "as_poly", counting)
    return invariant_report(curve).to_dict(), len(calls)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_report_expands_a_tame_char_poly_once(monkeypatch, all_fixture_curves, name):
    doc, calls = _as_poly_calls(monkeypatch, all_fixture_curves[name])
    assert doc["P_prime"] == doc["P"] and calls == 1


def test_report_expands_a_distinct_prime_to_p_poly_again(monkeypatch):
    curve = kodaira_curve("II", p=3)
    assert char_poly_prime(curve) == CycloProduct.one() != char_poly(curve)
    doc, calls = _as_poly_calls(monkeypatch, curve)
    assert (doc["P"], doc["P_prime"], calls) == ("t^2 - t + 1", "1", 2)


def test_component_group_rejects_disconnected():
    with pytest.raises(MalformedFiber):
        component_group(SncdCurve([("a", 1, 1), ("b", 1, 1)], []))


@given(curves())
@settings(max_examples=100, deadline=None)
def test_char_poly_degree_is_twice_genus(curve):
    rep = invariant_report(curve)
    assert rep.char_poly.degree == 2 * rep.genus
    assert rep.toric_rank + rep.abelian_rank + rep.unipotent_rank == rep.genus


@given(curves(max_vertices=7))
@settings(max_examples=60, deadline=None)
def test_blowup_invariance(curve):
    P = char_poly(curve)
    phi = component_group(curve)
    up = blow_up_point(curve, curve.ids[-1])
    assert char_poly(up) == P
    assert component_group(up) == phi
    if curve.edges:
        up2 = blow_up_intersection(curve, len(curve.edges) - 1)
        assert char_poly(up2) == P
        assert component_group(up2) == phi


@given(curves())
@settings(max_examples=80, deadline=None)
def test_lorenzini_order_identity_on_trees(curve):
    geo = geometry(curve)
    if geo.b1 != 0:
        return
    prod = Fraction(1)
    for vid, degree in geo.degree.items():
        prod *= Fraction(curve.multiplicity(vid)) ** (degree - 2)
    assert component_group(curve).order == prod
