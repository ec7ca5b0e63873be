"""The graph-native core against the code it replaced.

Worklist contraction is compared with the rescan loop it replaced, the
heap-pivot sparse Smith kernel with brute-force and sympy oracles, the
chain fold of ``component_group`` with the unfolded intersection rows and
a dense quotient oracle, and the cached curve data with fresh curves.
"""

import contextlib
import os
import random
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from neroncalc.basechange import transform
from neroncalc.cli import main
from neroncalc.curves import (
    SncdCurve,
    blow_up_intersection,
    blow_up_point,
    contract_minus_one,
    genus,
    geometry,
    validate,
)
import neroncalc.invariants
from neroncalc.errors import MalformedFiber
from neroncalc.invariants import component_group, stabilization_index
from neroncalc.kodaira import ALL_FIXTURES, fixture_curve, kodaira_curve
from neroncalc.linalg import FiniteAbelianGroup, smith_diagonal_sparse

from linalg_oracles import intersection_matrix, smith_diagonal, smith_quotient
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


MIXED = (1, -1, 1, -1, 2, -2, 3, 4, -6)
UNIT_FREE = (2, -2, 3, -3, 4, 6, -9, 10, 12, 35)  # every pivot takes Euclid steps


def random_sparse(rng: random.Random, m: int, n: int, density: float, pool=MIXED):
    """Matrix with entries from ``pool``, zero rows and zero columns."""
    M = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                M[i][j] = rng.choice(pool)
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


@given(st.integers(0, 10 ** 9), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from([MIXED, UNIT_FREE]))
@settings(max_examples=200, deadline=None)
def test_sparse_kernel_matches_determinantal_divisors(seed, m, n, pool):
    rng = random.Random(seed)
    M = random_sparse(rng, m, n, 0.6, pool)
    assert smith_diagonal_sparse(to_sparse(M, rng)) == determinantal_divisors(M)


@pytest.mark.parametrize("seed", range(40))
def test_sparse_kernel_matches_sympy(seed):
    rng = random.Random(seed)
    m, n = rng.randint(2, 9), rng.randint(2, 9)
    inputs = [random_sparse(rng, m, n, rng.choice([0.2, 0.35, 0.6]))]
    for _ in range(3):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        inputs.append(random_sparse(rng, m, n, rng.choice([0.35, 0.6, 0.9]), UNIT_FREE))
    for M in inputs:
        want = sympy_invariants(M)
        assert smith_diagonal_sparse(to_sparse(M, rng)) == want
        assert smith_diagonal([row[:] for row in M]) == want


def test_sparse_kernel_edge_cases():
    assert smith_diagonal_sparse({}) == []
    assert smith_diagonal_sparse({4: {}, 9: {}}) == []
    assert smith_diagonal_sparse({3: {7: -1}}) == [1]
    assert smith_diagonal_sparse({0: {0: 2}, 1: {1: 3}}) == [1, 6]


# -- chain fold ----------------------------------------------------------------


def chain(ids, closed=False):
    """Edges along ``ids``, back to the first one when ``closed``."""
    return list(zip(ids, ids[1:])) + ([(ids[-1], ids[0])] if closed else [])


def reduced(ids, edges, genera=None):
    """Every multiplicity 1, so any connected multigraph is a valid fiber."""
    genera = genera or {}
    return SncdCurve([(v, 1, genera.get(v, 0)) for v in ids], edges)


# Chain shapes the fold must get right, each a valid fiber.
FOLD_SHAPES = {
    "I0": kodaira_curve("I0"),
    "I1": kodaira_curve("I1"),
    "I2": kodaira_curve("I2"),
    "two-vertex path": reduced("ab", chain("ab")),
    "path": reduced("abcdef", chain("abcdef")),
    "cycle with N = 3": SncdCurve([(v, 3, 0) for v in "abcde"], chain("abcde", True)),
    "runs ending at leaves": reduced("chijklmn", [("c", "h"), *chain("cij"), *chain("cklmn")]),
    "one run hanging from a vertex": reduced("pqabc", [("p", "q"), ("p", "q"), *chain("pabc")]),
    "two parallel runs": reduced(
        "pqabxyzlm", [*chain("pabq"), *chain("pxyzq"), ("p", "l"), ("q", "m")]),
    "run back to its start": reduced("pabcl", [*chain("pabc", True), ("p", "l")]),
    "double edge next to a run": reduced(
        "abcdef", [*chain("abc"), ("c", "d"), ("c", "d"), *chain("def")]),
    "vertex held by a double edge": reduced("yzab", [("y", "z"), ("y", "z"), *chain("zab")]),
    "chain vertex of genus 1": reduced(
        "chijkl", [("c", "h"), ("c", "l"), *chain("cijk")], {"j": 1}),
    "cycle through a genus-2 vertex": reduced("abcd", chain("abcd", True), {"c": 2}),
    "transformed cycle": transform(kodaira_curve("I3"), 7)[0],
    "transformed II": transform(kodaira_curve("II"), 11)[0],
    "transformed I0*": transform(kodaira_curve("I0*"), 5)[0],
}


@st.composite
def multigraph_blowups(draw):
    """Blow-ups of a random connected reduced multigraph with random genera."""
    n = draw(st.integers(1, 7))
    ids = ["v%d" % i for i in range(n)]
    edges = [(ids[i], ids[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    if n > 1:
        for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=4)):
            if a != b:
                edges.append((ids[a], ids[b]))
    curve = reduced(ids, edges, {v: draw(st.sampled_from((0, 0, 0, 1))) for v in ids})
    for on_edge, pick in draw(st.lists(st.tuples(st.booleans(), st.integers(0, 10 ** 6)),
                                       max_size=10)):
        if on_edge and curve.edges:
            curve = blow_up_intersection(curve, pick % len(curve.edges))
        else:
            curve = blow_up_point(curve, curve.ids[pick % len(curve.ids)])
    return curve


@st.composite
def transformed_cycles(draw):
    """``transform(I_n, d)``: a cycle of ``n d`` reduced vertices."""
    n = draw(st.integers(1, 5))
    return transform(kodaira_curve("I%d" % n), draw(st.integers(2, 40 // n)))[0]


@st.composite
def paths(draw):
    n = draw(st.integers(2, 12))
    ids = ["p%d" % i for i in range(n)]
    return reduced(ids, chain(ids))


FOLD_CURVES = st.one_of(
    st.sampled_from(list(FOLD_SHAPES.values())), transformed_cycles(), paths(),
    fixture_blowups(), multigraph_blowups(),
)


def kept_plus_runs(curve) -> int:
    """Rows the folded system may have, counted without walking a run: the
    vertices that do not fold, plus one per connected piece of the rest."""
    adj = curve.adjacency()
    fold = {v for v, nbrs in adj.items() if len(nbrs) in (1, 2) and set(nbrs.values()) == {1}}
    kept = len(adj) - len(fold)
    if not kept:
        fold.discard(curve.ids[0])
        kept = 1
    runs = 0
    while fold:
        runs += 1
        stack = [fold.pop()]
        while stack:
            for w in adj[stack.pop()]:
                if w in fold:
                    fold.remove(w)
                    stack.append(w)
    return kept + runs


@contextlib.contextmanager
def kernel_row_counts():
    """Row count of every matrix ``component_group`` hands the kernel."""
    seen = []

    def spy(rows):
        seen.append(len(rows))
        return smith_diagonal_sparse(rows)

    neroncalc.invariants.smith_diagonal_sparse = spy
    try:
        yield seen
    finally:
        neroncalc.invariants.smith_diagonal_sparse = smith_diagonal_sparse


def assert_fold_matches_oracles(curve):
    """``component_group`` against ``ker(beta)/im(alpha)`` computed densely
    and against the kernel run on every unfolded intersection row; the
    folded system has at most one row per kept vertex and per run."""
    alpha = intersection_matrix(curve)
    group, rank = smith_quotient([[v.N for v in curve.vertices]], alpha)
    diag = smith_diagonal(alpha)
    assert rank == 0 and len(alpha) - len(diag) == 1
    assert FiniteAbelianGroup.from_factors(d for d in diag if d > 1) == group
    with kernel_row_counts() as seen:  # a fresh copy: the group is cached on a curve
        assert component_group(SncdCurve(curve.vertices, curve.edges, curve.p)) == group
    assert len(seen) == 1 and seen[0] <= kept_plus_runs(curve)


@pytest.mark.parametrize("name", FOLD_SHAPES)
def test_fold_matches_oracles_on_chain_shapes(name):
    assert_fold_matches_oracles(FOLD_SHAPES[name])


@given(FOLD_CURVES)
@settings(max_examples=300, deadline=None)
def test_fold_matches_oracles(curve):
    assert_fold_matches_oracles(curve)


def test_cycles_reach_the_kernel_as_two_rows():
    cycles = [kodaira_curve("I%d" % n) for n in (1, 2, 3, 7, 1000)]
    cycles += [transform(kodaira_curve("I%d" % n), d)[0] for n, d in ((1, 5), (2, 9), (5, 2003))]
    with kernel_row_counts() as seen:
        for curve in cycles:
            component_group(curve)
    assert seen == [2] * len(cycles)


# -- cached curve data ---------------------------------------------------------


def test_caches_leave_equality_and_hash_alone():
    for name in ALL_FIXTURES:
        cached, fresh = fixture_curve(name), fixture_curve(name)
        before = hash(cached)
        cached.adjacency()
        genus(cached)
        geometry(cached)
        validate(cached)
        assert cached == fresh and fresh == cached
        assert hash(cached) == hash(fresh) == before
        assert repr(cached) == repr(fresh)
        assert geometry(cached) is geometry(cached)
        assert geometry(cached) == geometry(fresh)
        assert component_group(cached) is component_group(cached)
        assert component_group(cached) == component_group(fresh)
        assert cached == fresh and hash(cached) == before


@pytest.mark.parametrize("curve, message", [
    (SncdCurve([("a", 3, 0), ("b", 1, 0)], [("a", "b")]),
     "multiplicity 3 of 'a' does not divide 1"),
    (SncdCurve([("a", 1, 1), ("b", 1, 1)], []), "graph is not connected"),
    (SncdCurve([("a", 3, 0), ("b", 1, 0), ("c", 1, 1)], [("a", "b")]),
     "graph is not connected"),                            # both: connectivity first
], ids=["curve0", "curve1", "curve2"])
def test_invalid_curve_raises_on_every_call(curve, message):
    problems = validate(curve).problems
    for _ in range(3):
        with pytest.raises(MalformedFiber) as exc:
            geometry(curve)
        assert str(exc.value) == message
        with pytest.raises(MalformedFiber) as exc:
            component_group(curve)
        assert str(exc.value) == message
        assert validate(curve).problems == problems
    assert problems


def test_analyze_walks_the_graph_once(monkeypatch, capsys):
    calls = []
    walk = SncdCurve.is_connected

    def spy(curve):
        calls.append(curve)
        return walk(curve)

    monkeypatch.setattr(SncdCurve, "is_connected", spy)
    fixture = os.path.join(os.path.dirname(__file__), "..", "fixtures", "I3star.json")
    assert main(["analyze", fixture]) == 0
    capsys.readouterr()
    assert len(calls) == 1


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


@pytest.mark.parametrize("q", [101, 307, 1009])
def test_hub_without_units_stays_sparse(q):
    # centre of multiplicity q with q reduced arms: no unit is left once the
    # centre is eliminated, and Phi = (Z/q)^(q-2)
    arms = ["a%d" % k for k in range(q)]
    star = SncdCurve([("c", q, 0)] + [(a, 1, 0) for a in arms], [(a, "c") for a in arms])
    t0 = time.perf_counter()
    assert component_group(star).factors == (q,) * (q - 2)
    assert time.perf_counter() - t0 < 1.0


def test_component_group_scales_near_linearly():
    # 4x the vertices: about 16x when quadratic, about 4.5x at n log n
    ratio = _component_group_seconds(3200) / _component_group_seconds(800)
    assert ratio < 8, ratio


def unfolded_rows(curve) -> dict[int, dict[int, int]]:
    """One sparse intersection row per vertex, no chain folded."""
    self_int, adj = geometry(curve).self_int, curve.adjacency()
    pos = {v.id: i for i, v in enumerate(curve.vertices)}
    rows = {}
    for i, v in enumerate(curve.vertices):
        rows[i] = row = {pos[w]: k for w, k in adj[v.id].items()}
        if self_int[v.id]:
            row[i] = self_int[v.id]
    return rows


def _kernel_seconds(n: int) -> float:
    best = float("inf")
    for _ in range(5):
        rows = unfolded_rows(kodaira_curve("I%d" % n))
        t0 = time.perf_counter()
        diag = smith_diagonal_sparse(rows)
        best = min(best, time.perf_counter() - t0)
        assert diag == [1] * (n - 2) + [n]
    return best


def test_sparse_kernel_scales_near_linearly_on_unfolded_rows():
    # component_group hands the kernel 2 rows for a cycle, so this times the
    # kernel itself on every row: the same bound as above
    ratio = _kernel_seconds(3200) / _kernel_seconds(800)
    assert ratio < 8, ratio


def test_long_cycle_folds_fast():
    # the fiber pass is the curves layer's cost and is cached on the curve,
    # so only the fold and the kernel are timed
    best = float("inf")
    for _ in range(3):
        curve = kodaira_curve("I10000")
        geometry(curve)
        t0 = time.perf_counter()
        assert component_group(curve).factors == (10000,)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.05, best
