"""The graph-native core against the code it replaced.

Worklist contraction is compared with the rescan loop it replaced, the
heap-pivot sparse Smith kernel with brute-force and sympy oracles, and the
cached curve data with fresh curves.
"""

import random
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from neroncalc.basechange import transform
from neroncalc.curves import (
    SncdCurve,
    blow_up_intersection,
    blow_up_point,
    contract_minus_one,
    genus,
    geometry,
    validate,
)
from neroncalc.errors import MalformedFiber
from neroncalc.invariants import component_group, stabilization_index
from neroncalc.kodaira import ALL_FIXTURES, fixture_curve, kodaira_curve
from neroncalc.linalg import smith_diagonal, smith_diagonal_sparse

from test_linalg import determinantal_divisors


# -- contraction ---------------------------------------------------------------


def rescan_contract_minus_one(curve: SncdCurve) -> SncdCurve:
    """Reference: rescan every vertex, contract the first that qualifies,
    rebuild the whole curve, repeat."""
    cur = curve
    while True:
        target = _find_contractible(cur)
        if target is None:
            return cur
        cur = _contract_vertex(cur, target)


def _find_contractible(curve):
    adj = curve.adjacency()
    for v in curve.vertices:
        if v.g != 0:
            continue
        nbrs = adj[v.id]
        d = sum(nbrs.values())
        if d == 0 or d > 2:
            continue
        if d == 2 and len(nbrs) != 2:
            continue
        incident = sum(curve.multiplicity(w) * k for w, k in nbrs.items())
        if incident == v.N:
            return v.id
    return None


def _contract_vertex(curve, vid):
    neighbours = [w for e in curve.edges for w in e if vid in e and w != vid]
    vertices = tuple(v for v in curve.vertices if v.id != vid)
    edges = [e for e in curve.edges if vid not in e]
    if len(neighbours) == 2:
        edges.append(tuple(sorted(neighbours)))
    return SncdCurve(vertices, edges, curve.p)


@st.composite
def fixture_blowups(draw, max_vertices: int = 30):
    """Blow-up closure of every shipped fixture."""
    curve = fixture_curve(draw(st.sampled_from(ALL_FIXTURES)))
    steps = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 10 ** 6)), max_size=12))
    for on_edge, pick in steps:
        if len(curve.vertices) >= max_vertices:
            break
        if on_edge and curve.edges:
            curve = blow_up_intersection(curve, pick % len(curve.edges))
        else:
            curve = blow_up_point(curve, curve.ids[pick % len(curve.ids)])
    return curve


@given(fixture_blowups())
@settings(max_examples=200, deadline=None)
def test_contraction_equals_rescan_on_blowups(curve):
    # == compares the vertex and edge tuples, order included
    assert contract_minus_one(curve) == rescan_contract_minus_one(curve)


TREES = [name for name in ALL_FIXTURES if fixture_curve(name).b1() == 0]


@pytest.mark.parametrize("name", TREES)
def test_contraction_equals_rescan_on_transforms(name):
    curve = fixture_curve(name)
    e = stabilization_index(curve)
    degrees = [d for d in range(2, 60) if gcd(d, e) == 1][:6]
    for d in degrees:
        out, _ = transform(curve, d)
        assert contract_minus_one(out) == rescan_contract_minus_one(out)


def test_contraction_returns_input_when_nothing_qualifies():
    curve = fixture_curve("II*")
    assert contract_minus_one(curve) is curve


# -- sparse Smith kernel -------------------------------------------------------


def random_sparse(rng: random.Random, m: int, n: int, density: float):
    """Matrix with unit and non-unit entries, zero rows and zero columns."""
    M = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                M[i][j] = rng.choice([1, -1, 1, -1, 2, -2, 3, 4, -6])
    if m > 1:
        M[rng.randrange(m)] = [0] * n
    if n > 1:
        dead = rng.randrange(n)
        for row in M:
            row[dead] = 0
    return M


def to_sparse(M, rng: random.Random):
    """``{row: {col: value}}`` with shuffled, non-contiguous indices."""
    rows = rng.sample(range(3 * len(M)), len(M))
    cols = rng.sample(range(3 * len(M[0])), len(M[0]))
    return {rows[i]: {cols[j]: v for j, v in enumerate(r) if v} for i, r in enumerate(M)}


def sympy_invariants(M):
    D = smith_normal_form(Matrix(M), domain=ZZ)
    return sorted(abs(D[k, k]) for k in range(min(D.shape)) if D[k, k])


@given(st.integers(0, 10 ** 9), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_sparse_kernel_matches_determinantal_divisors(seed, m, n):
    rng = random.Random(seed)
    M = random_sparse(rng, m, n, 0.6)
    assert smith_diagonal_sparse(to_sparse(M, rng)) == determinantal_divisors(M)


@pytest.mark.parametrize("seed", range(40))
def test_sparse_kernel_matches_sympy(seed):
    rng = random.Random(seed)
    m, n = rng.randint(2, 9), rng.randint(2, 9)
    M = random_sparse(rng, m, n, rng.choice([0.2, 0.35, 0.6]))
    want = sympy_invariants(M)
    assert smith_diagonal_sparse(to_sparse(M, rng)) == want
    assert smith_diagonal([row[:] for row in M]) == want


def test_sparse_kernel_edge_cases():
    assert smith_diagonal_sparse({}) == []
    assert smith_diagonal_sparse({4: {}, 9: {}}) == []
    assert smith_diagonal_sparse({3: {7: -1}}) == [1]
    assert smith_diagonal_sparse({0: {0: 2}, 1: {1: 3}}) == [1, 6]


# -- cached curve data ---------------------------------------------------------


def test_caches_leave_equality_and_hash_alone():
    for name in ALL_FIXTURES:
        cached, fresh = fixture_curve(name), fixture_curve(name)
        before = hash(cached)
        cached.adjacency()
        genus(cached)
        geometry(cached)
        assert cached == fresh and fresh == cached
        assert hash(cached) == hash(fresh) == before
        assert repr(cached) == repr(fresh)
        assert geometry(cached) is geometry(cached)
        assert geometry(cached) == geometry(fresh)


@pytest.mark.parametrize("curve", [
    SncdCurve([("a", 3, 0), ("b", 1, 0)], [("a", "b")]),   # 3 does not divide 1
    SncdCurve([("a", 1, 1), ("b", 1, 1)], []),             # disconnected
])
def test_invalid_curve_raises_on_every_call(curve):
    for _ in range(3):
        with pytest.raises(MalformedFiber):
            geometry(curve)
        with pytest.raises(MalformedFiber):
            component_group(curve)
    assert not validate(curve).ok


def test_contraction_leaves_input_adjacency_alone():
    curve, _ = transform(fixture_curve("II"), 25)
    adj = curve.adjacency()
    snapshot = {vid: dict(nbrs) for vid, nbrs in adj.items()}
    out = contract_minus_one(curve)
    assert len(out.vertices) < len(curve.vertices)
    assert curve.adjacency() is adj
    assert {vid: dict(nbrs) for vid, nbrs in adj.items()} == snapshot
    rebuilt = SncdCurve(out.vertices, out.edges, out.p)
    assert out.adjacency() == rebuilt.adjacency()
    assert geometry(out) == geometry(rebuilt)


# -- scaling -------------------------------------------------------------------


def _component_group_seconds(n: int) -> float:
    best = float("inf")
    for _ in range(5):
        curve = kodaira_curve("I%d" % n)
        t0 = time.perf_counter()
        assert component_group(curve).order == n
        best = min(best, time.perf_counter() - t0)
    return best


def test_component_group_scales_near_linearly():
    # 4x the vertices: about 16x when quadratic, about 4.5x at n log n
    ratio = _component_group_seconds(3200) / _component_group_seconds(800)
    assert ratio < 8, ratio
