"""Smith normal form against an independent determinantal-divisor oracle."""

from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neroncalc.errors import DimensionMismatch
from neroncalc.linalg import (
    FiniteAbelianGroup,
    cokernel,
    prime_to_part,
    smith_diagonal,
)

from linalg_oracles import kernel_basis, smith_quotient


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
    assert cokernel([[2]]) == (FiniteAbelianGroup((2,)), 0)
    assert cokernel([[0, 0], [0, 0]]) == (FiniteAbelianGroup(), 2)
    assert cokernel([[2, 0], [0, 6]]) == (FiniteAbelianGroup((2, 6)), 0)


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
    with pytest.raises(ValueError):
        FiniteAbelianGroup((4, 6))


def test_prime_to_part_and_group_reduction():
    assert prime_to_part(12, 2) == 3
    assert prime_to_part(12, 1) == 12
    g = FiniteAbelianGroup((2, 12))
    assert g.prime_to(2).factors == (3,)
    assert g.prime_to(3).factors == (2, 4)
    assert g.prime_to(1) == g


@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4))
@settings(max_examples=100)
def test_snf_two_by_two_order_via_determinant(entries):
    a, b, c, d = entries
    M = [[a, b], [c, d]]
    det = abs(a * d - b * c)
    diag = smith_diagonal([row[:] for row in M])
    if det:
        assert len(diag) == 2 and prod(diag) == det
