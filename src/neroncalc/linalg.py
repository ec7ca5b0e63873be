"""Exact integer linear algebra: Smith normal form and abelian group quotients.

Dense matrices are plain lists of rows of Python ints and sparse ones are
``{row: {col: value}}`` dicts, so all arithmetic is arbitrary precision.
There is one elimination kernel, :func:`smith_diagonal_sparse`: it takes
unit pivots from a heap ordered by Markowitz cost and hands the residual
block, small on graph-shaped matrices, to a dense reduction.
:func:`smith_diagonal` and :func:`cokernel` take dense rows.

>>> cokernel([[2, 0], [0, 6]])
(FiniteAbelianGroup(factors=(2, 6)), 0)
>>> smith_diagonal_sparse({0: {0: 1, 1: 2}, 1: {1: 4}})
[1, 4]
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd, prod

from .errors import DimensionMismatch


def prime_to_part(n: int, p: int) -> int:
    """Largest divisor of ``n`` coprime to ``p`` (``p == 1`` strips nothing)."""
    if n == 0:
        raise ValueError("prime_to_part of 0 is undefined")
    n = abs(n)
    if p <= 1:
        return n
    while n % p == 0:
        n //= p
    return n


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Finite abelian group in invariant factor form ``Z/d1 x ... x Z/dr``.

    The factors satisfy ``d1 | d2 | ... | dr`` with every ``di >= 2``; the
    trivial group stores an empty tuple.

    >>> FiniteAbelianGroup.from_factors([6, 2]).factors
    (2, 6)
    >>> FiniteAbelianGroup.from_factors([4, 6]).factors   # repaired via gcd/lcm
    (2, 12)
    >>> FiniteAbelianGroup((4, 6))
    Traceback (most recent call last):
        ...
    ValueError: invariant factors must form a divisibility chain: [4, 6]
    """

    factors: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a:
                raise ValueError(
                    "invariant factors must form a divisibility chain: %r"
                    % list(self.factors)
                )
        if any(d < 2 for d in self.factors):
            raise ValueError("invariant factors must be >= 2")

    @classmethod
    def from_factors(cls, factors) -> "FiniteAbelianGroup":
        """Build from any list of cyclic orders (1s dropped, order fixed)."""
        cleaned = sorted(abs(d) for d in factors if abs(d) != 1)
        if any(d == 0 for d in cleaned):
            raise ValueError("0 is not a finite cyclic order")
        # Repair the divisibility chain with pairwise gcd/lcm exchanges.
        again = True
        while again:
            again = False
            for i in range(len(cleaned) - 1):
                a, b = cleaned[i], cleaned[i + 1]
                if b % a:
                    g = gcd(a, b)
                    cleaned[i], cleaned[i + 1] = g, a * b // g
                    again = True
        return cls(tuple(d for d in cleaned if d != 1))

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    def prime_to(self, p: int) -> "FiniteAbelianGroup":
        """Prime-to-``p`` part: ``p``-power factors stripped from each ``di``."""
        return FiniteAbelianGroup.from_factors(
            prime_to_part(d, p) for d in self.factors
        )

    def __str__(self):
        if not self.factors:
            return "1"
        return " x ".join("C%d" % d for d in self.factors)


def _row_sub(row_i, row_t, q):
    for j, v in enumerate(row_t):
        if v:
            row_i[j] -= q * v


def _snf_diagonal_dense(M: list[list[int]]) -> list[int]:
    """Diagonal left by reducing ``M`` to diagonal form (destroys ``M``).

    Returns the nonzero diagonal entries, positive, in no particular order;
    they need not form a divisibility chain.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    diag: list[int] = []
    t = 0
    while t < m and t < n:
        # Smallest nonzero entry of the trailing submatrix as pivot.
        pivot = None
        for i in range(t, m):
            row = M[i]
            for j in range(t, n):
                v = row[j]
                if v and (pivot is None or abs(v) < pivot[0]):
                    pivot = (abs(v), i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        M[t], M[pi] = M[pi], M[t]
        if pj != t:
            for row in M:
                row[t], row[pj] = row[pj], row[t]
        while True:
            dirty = False
            for i in range(t + 1, m):
                if M[i][t]:
                    q = M[i][t] // M[t][t]
                    if q:
                        _row_sub(M[i], M[t], q)
                    if M[i][t]:
                        M[t], M[i] = M[i], M[t]
                        dirty = True
            col_dirty = False
            for j in range(t + 1, n):
                if M[t][j]:
                    q = M[t][j] // M[t][t]
                    if q:
                        for row in M:
                            row[j] -= q * row[t]
                    if M[t][j]:
                        for row in M:
                            row[t], row[j] = row[j], row[t]
                        col_dirty = True
            if not dirty and not col_dirty:
                break
        diag.append(abs(M[t][t]))
        t += 1
    return diag


def smith_diagonal_sparse(rows: dict[int, dict[int, int]]) -> list[int]:
    """Nonzero invariant factors of a sparse integer matrix (destroys ``rows``).

    ``rows`` maps a row index to ``{column index: nonzero entry}``; indices
    need not be contiguous.  The result lists the invariant factors in
    divisibility order, one per unit of rank, 1s included.

    Every ``+-1`` entry is a candidate pivot, kept in a heap keyed by its
    Markowitz cost ``len(row) * len(column)``.  Keys go stale as the matrix
    changes, so a popped entry is checked again: one that is no longer a
    unit is dropped, one whose cost changed is pushed back with the new
    cost.  A unit pivot clears its column with row operations and then
    leaves the matrix with its row and column, contributing a factor 1;
    the unit entries of every row it touched are pushed.  When no unit is
    left, the residual block goes through the dense reduction.  On the
    intersection matrix of a dual graph nearly every pivot is a unit and
    the residual block stays a few rows wide, so the cost is about
    O((V + E) log V) instead of a rescan of the whole matrix per pivot.

    >>> smith_diagonal_sparse({0: {0: 2, 3: 1}, 2: {0: 4, 3: 2}, 7: {1: 6}})
    [1, 6]
    """
    rows = {i: r for i, r in rows.items() if r}
    cols: dict[int, set[int]] = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
    heap = [(len(r) * len(cols[j]), i, j)
            for i, r in rows.items() for j, v in r.items() if v in (1, -1)]
    heapq.heapify(heap)
    units = 0
    while heap:
        cost, pi, pj = heapq.heappop(heap)
        prow = rows.get(pi)
        if prow is None or prow.get(pj) not in (1, -1):
            continue
        now = len(prow) * len(cols[pj])
        if now != cost:
            heapq.heappush(heap, (now, pi, pj))
            continue
        del rows[pi]
        sign = prow.pop(pj)
        for j in prow:
            cols[j].discard(pi)
        touched = []
        for i in cols.pop(pj):
            if i == pi:
                continue
            row = rows[i]
            q = row.pop(pj) * sign  # entry / pivot with pivot = +-1
            for j, v in prow.items():
                new = row.get(j, 0) - q * v
                if new:
                    row[j] = new
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
            if row:
                touched.append(i)
            else:
                del rows[i]
        for i in touched:
            row = rows[i]
            for j, v in row.items():
                if v in (1, -1):
                    heapq.heappush(heap, (len(row) * len(cols[j]), i, j))
        units += 1
    colpos = {j: k for k, j in enumerate({j for r in rows.values() for j in r})}
    dense = [[0] * len(colpos) for _ in rows]
    for dense_row, row in zip(dense, rows.values()):
        for j, v in row.items():
            dense_row[colpos[j]] = v
    rest = _snf_diagonal_dense(dense)
    factors = FiniteAbelianGroup.from_factors(rest).factors
    return [1] * (units + len(rest) - len(factors)) + list(factors)


def smith_diagonal(rows: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of a dense integer matrix.

    Converts to the sparse form and runs :func:`smith_diagonal_sparse`.

    >>> smith_diagonal([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    [2, 6, 12]
    """
    if not rows:
        return []
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("ragged matrix")
    return smith_diagonal_sparse(
        {i: {j: v for j, v in enumerate(r) if v} for i, r in enumerate(rows)}
    )


def cokernel(rows: list[list[int]], ambient: int | None = None):
    """Quotient of ``Z^m`` by the column span of an ``m x n`` matrix.

    Returns ``(torsion, free_rank)``.  ``ambient`` overrides ``m`` when the
    matrix is empty.

    >>> cokernel([[2]])
    (FiniteAbelianGroup(factors=(2,)), 0)
    >>> cokernel([[0, 0], [0, 0]])
    (FiniteAbelianGroup(factors=()), 2)
    """
    m = len(rows) if ambient is None else ambient
    diag = smith_diagonal(rows) if rows else []
    torsion = FiniteAbelianGroup.from_factors(d for d in diag if d > 1)
    return torsion, m - len(diag)
