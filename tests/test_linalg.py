"""Smith normal form against an independent determinantal-divisor oracle."""

import time
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neroncalc.errors import PreconditionError
from neroncalc.linalg import FiniteAbelianGroup, prime_to_part

from invariant_oracles import prime_to_order
from linalg_oracles import DimensionMismatch, kernel_basis, smith_diagonal, smith_quotient


def minor_determinant(M, rows, cols):
    if not rows:
        return 1
    k = len(rows)
    sub = [[M[r][c] for c in cols] for r in rows]
    if k == 1:
        return sub[0][0]
    det = 0
    for j in range(k):
        if sub[0][j]:
            det += (
                (-1) ** j
                * sub[0][j]
                * minor_determinant(
                    sub, range(1, k), [c for c in range(k) if c != j]
                )
            )
    return det


def determinantal_divisors(M):
    """Invariant factors via gcds of all k x k minors (brute force)."""
    m, n = len(M), len(M[0]) if M else 0
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, minor_determinant(M, rows, cols))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


matrices = st.integers(1, 3).flatmap(
    lambda m: st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@given(matrices)
@settings(max_examples=300)
def test_snf_matches_determinantal_divisors(M):
    assert smith_diagonal([row[:] for row in M]) == determinantal_divisors(M)


@given(matrices)
@settings(max_examples=150)
def test_kernel_basis_is_saturated_and_annihilated(M):
    K = kernel_basis(M)
    n = len(M[0])
    width = len(K[0]) if K and K[0] else 0
    for row in M:
        for j in range(width):
            assert sum(row[i] * K[i][j] for i in range(n)) == 0
    if width:
        assert set(smith_diagonal([r[:] for r in K])) <= {1}
    # rank + kernel width = number of columns
    assert width == n - len(determinantal_divisors(M))


def test_smith_diagonal_known():
    assert smith_diagonal([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]
    assert smith_diagonal([[0]]) == []


def test_cokernel_examples():
    # Z^m modulo the column span: the kernel's factors and the oracle agree
    for M, torsion, free in [
        ([[2]], (2,), 0),
        ([[0, 0], [0, 0]], (), 2),
        ([[2, 0], [0, 6]], (2, 6), 0),
    ]:
        diag = smith_diagonal(M)
        assert FiniteAbelianGroup.from_factors(diag).factors == torsion
        assert len(M) - len(diag) == free
        assert smith_quotient([], M) == (FiniteAbelianGroup(torsion), free)


# Entries at most 35 and no unit after the first two pivots: an elimination
# that lets its coefficients grow reaches entries of hundreds of digits
# here.  Invariant factors checked against sympy.
NO_UNIT_BLOW_UP = [
    [0, -2, 12, 0, 1, 0],
    [0, 35, 10, 0, -1, 12],
    [0, 0, 0, 4, 2, 0],
    [35, 0, 12, 0, 0, 0],
    [0, 0, 35, 0, 0, 0],
    [0, 0, 2, 0, 6, 12],
    [3, 3, -2, -2, 35, -2],
]


def test_smith_form_without_units_keeps_entries_small():
    t0 = time.perf_counter()
    assert smith_diagonal([row[:] for row in NO_UNIT_BLOW_UP]) == [1, 1, 1, 1, 2, 84]
    transpose = [list(col) for col in zip(*NO_UNIT_BLOW_UP)]
    assert smith_diagonal(transpose) == [1, 1, 1, 1, 2, 84]
    assert time.perf_counter() - t0 < 0.1
    # 7 rows of rank 6: one free generator; the 6 x 7 transpose has none
    assert smith_quotient([], NO_UNIT_BLOW_UP) == (FiniteAbelianGroup((2, 84)), 1)
    assert smith_quotient([], transpose) == (FiniteAbelianGroup((2, 84)), 0)


def test_smith_quotient_full_lattice_cases():
    # quotient of Z by the image of multiplication by 2
    assert smith_quotient([], [[2]]) == (FiniteAbelianGroup((2,)), 0)
    # zero map on Z^2: free of rank 2
    assert smith_quotient([], [[0, 0], [0, 0]]) == (FiniteAbelianGroup(), 2)
    assert smith_quotient([], [[2, 0], [0, 6]]) == (FiniteAbelianGroup((2, 6)), 0)


def test_smith_quotient_kernel_mod_image():
    # cycle of length 3: quotient of ker(1,1,1) by the intersection columns
    alpha = [[-2, 1, 1], [1, -2, 1], [1, 1, -2]]
    group, rank = smith_quotient([[1, 1, 1]], alpha)
    assert (group.factors, rank) == ((3,), 0)


def test_smith_quotient_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        smith_quotient([[1, 1]], [[1], [1], [1]])
    with pytest.raises(DimensionMismatch):
        smith_quotient([[1, 1]], [[1], [1]])  # image not in kernel


def test_group_canonicalization_and_order():
    g = FiniteAbelianGroup.from_factors([6, 2, 1])
    assert g.factors == (2, 6) and g.order == 12
    assert FiniteAbelianGroup.from_factors([4, 6]).factors == (2, 12)
    assert str(FiniteAbelianGroup()) == "1"
    with pytest.raises(PreconditionError, match="divisibility chain: \\[4, 6\\]"):
        FiniteAbelianGroup((4, 6))
    with pytest.raises(PreconditionError, match="must be >= 2"):
        FiniteAbelianGroup((1, 2))
    with pytest.raises(PreconditionError, match="0 is not a finite cyclic order"):
        FiniteAbelianGroup.from_factors([2, 0])


def test_prime_to_part_and_group_reduction():
    assert prime_to_part(12, 2) == 3
    assert prime_to_part(12, 1) == 12
    with pytest.raises(PreconditionError, match="prime_to_part of 0 is undefined"):
        prime_to_part(0, 2)
    g = FiniteAbelianGroup((2, 12))  # the oracle's |Phi|', from the factors' prime-to-p parts
    assert prime_to_order(g, 2) == 3
    assert prime_to_order(g, 3) == 8
    assert prime_to_order(g, 1) == g.order == 24


@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4))
@settings(max_examples=100)
def test_snf_two_by_two_order_via_determinant(entries):
    a, b, c, d = entries
    M = [[a, b], [c, d]]
    det = abs(a * d - b * c)
    diag = smith_diagonal([row[:] for row in M])
    if det:
        assert len(diag) == 2 and prod(diag) == det
